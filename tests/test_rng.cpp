// Unit tests for the deterministic PRNG and its samplers.
#include "sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace abe {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SubstreamsAreIndependentOfDrawOrder) {
  Rng root(7);
  Rng s1 = root.substream("alpha", 0);
  // Drawing from the root must not change what a substream yields.
  root.next_u64();
  root.next_u64();
  Rng s2 = root.substream("alpha", 0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(s1.next_u64(), s2.next_u64());
  }
}

TEST(Rng, SubstreamsDifferByNameAndIndex) {
  Rng root(7);
  Rng a = root.substream("alpha", 0);
  Rng b = root.substream("beta", 0);
  Rng c = root.substream("alpha", 1);
  EXPECT_NE(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng rng(4);
  double sum = 0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, UniformIntRangeInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int_range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, SkipBernoulliFailuresMatchesRepeatedDraws) {
  // The loop the skip replaces: bernoulli(p) until a success (whose draw is
  // undone) or until `max` failures.
  const auto repeated = [](Rng& rng, double p, std::uint64_t max) {
    std::uint64_t failures = 0;
    while (failures < max) {
      const Rng before = rng;
      if (rng.bernoulli(p)) {
        rng = before;
        break;
      }
      ++failures;
    }
    return failures;
  };
  const auto check = [&](std::uint64_t seed, double p, std::uint64_t max) {
    Rng skipped(seed);
    Rng drawn(seed);
    // Start mid-stream, not at a fresh seed.
    for (std::uint64_t i = 0; i < seed % 5; ++i) {
      skipped.next_u64();
      drawn.next_u64();
    }
    ASSERT_EQ(skipped.skip_bernoulli_failures(p, max), repeated(drawn, p, max))
        << "seed " << seed << " p " << p << " max " << max;
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(skipped.next_u64(), drawn.next_u64())
          << "seed " << seed << " p " << p << " max " << max;
    }
  };
  const double ps[] = {-1.0,
                       0.0,
                       std::ldexp(1.0, -1074),
                       std::ldexp(1.0, -53),
                       1.0 / 256.0,
                       1.0 / 3.0,
                       0.5,
                       1.0 - std::ldexp(1.0, -53),
                       1.0,
                       2.0,
                       std::nan("")};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (double p : ps) {
      for (std::uint64_t max : {0u, 1u, 64u, 1024u}) check(seed, p, max);
    }
    // The threshold edge: p at, just below and just above the first
    // output's uniform01() value, where `u < p` flips.
    Rng probe(seed);
    for (std::uint64_t i = 0; i < seed % 5; ++i) probe.next_u64();
    const double u = probe.uniform01();
    for (double p : {u, std::nextafter(u, 0.0), std::nextafter(u, 1.0),
                     u + std::ldexp(1.0, -53)}) {
      for (std::uint64_t max : {1u, 64u}) check(seed, p, max);
    }
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(10);
  double sum = 0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / kN, 2.5, 0.05);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.exponential(1.0), 0.0);
  }
}

TEST(Rng, GeometricFailuresMean) {
  Rng rng(12);
  // mean failures = (1-p)/p; for p = 0.25 that is 3.
  double sum = 0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(rng.geometric_failures(0.25));
  }
  EXPECT_NEAR(sum / kN, 3.0, 0.05);
}

TEST(Rng, GeometricPOneIsZero) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.geometric_failures(1.0), 0u);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(14);
  double sum = 0, sq = 0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, LomaxMean) {
  Rng rng(15);
  // alpha=3, lambda=4 -> mean = lambda/(alpha-1) = 2.
  double sum = 0;
  const int kN = 400000;
  for (int i = 0; i < kN; ++i) sum += rng.lomax(3.0, 4.0);
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(Rng, ErlangMean) {
  Rng rng(16);
  double sum = 0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.erlang(4, 0.5);
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(Rng, ErlangHasLowerVarianceThanExponential) {
  Rng rng(17);
  const int kN = 100000;
  double sq_erl = 0, sq_exp = 0;
  for (int i = 0; i < kN; ++i) {
    const double e = rng.erlang(4, 0.5);  // mean 2
    const double x = rng.exponential(2.0);
    sq_erl += (e - 2.0) * (e - 2.0);
    sq_exp += (x - 2.0) * (x - 2.0);
  }
  EXPECT_LT(sq_erl, sq_exp * 0.5);  // Erlang-4 variance is 1/4 of exp
}

TEST(Rng, PermutationIsValid) {
  Rng rng(18);
  const auto perm = rng.permutation(100);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationShuffles) {
  Rng rng(19);
  const auto perm = rng.permutation(50);
  std::size_t fixed = 0;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] == i) ++fixed;
  }
  EXPECT_LT(fixed, 10u);  // expected ~1 fixed point
}

TEST(Rng, PermutationEmptyAndSingle) {
  Rng rng(20);
  EXPECT_TRUE(rng.permutation(0).empty());
  const auto one = rng.permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(Rng, HashNameStable) {
  EXPECT_EQ(hash_name("channels"), hash_name("channels"));
  EXPECT_NE(hash_name("channels"), hash_name("channel"));
  EXPECT_NE(hash_name("a"), hash_name("b"));
}

// Distribution tails: the geometric sampler must actually produce large
// values occasionally (the unbounded-delay property the paper builds on).
TEST(Rng, GeometricTailReachesLargeValues) {
  Rng rng(21);
  std::uint64_t max_seen = 0;
  for (int i = 0; i < 100000; ++i) {
    max_seen = std::max(max_seen, rng.geometric_failures(0.5));
  }
  EXPECT_GE(max_seen, 10u);  // P(X >= 10) per draw ~ 1e-3
}

TEST(Rng, LomaxTailHeavierThanExponential) {
  Rng rng(22);
  const int kN = 200000;
  int lomax_tail = 0, exp_tail = 0;
  for (int i = 0; i < kN; ++i) {
    if (rng.lomax(2.5, 1.5) > 10.0) ++lomax_tail;  // mean 1
    if (rng.exponential(1.0) > 10.0) ++exp_tail;
  }
  EXPECT_GT(lomax_tail, exp_tail * 5);
}

}  // namespace
}  // namespace abe
