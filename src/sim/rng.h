// Deterministic pseudo-random number generation for the simulator.
//
// We implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64, and
// hand-rolled inverse-transform samplers, instead of <random>, so that every
// experiment is bit-reproducible across standard libraries and platforms.
//
// Streams: experiments derive independent named sub-streams from one root
// seed (`Rng::substream`), so adding a consumer never perturbs the draws seen
// by existing consumers — a prerequisite for clean A/B comparisons.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace abe {

// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

// Deterministic 64-bit hash of a string (FNV-1a), used to name sub-streams.
std::uint64_t hash_name(std::string_view name);

class Rng {
 public:
  // Seeds the four xoshiro words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Derives an independent generator for (this seed, name, index).
  Rng substream(std::string_view name, std::uint64_t index = 0) const;

  // Core generator: uniform 64-bit word.
  std::uint64_t next_u64();

  // Uniform double in [0, 1) with 53 random bits.
  double uniform01();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_int(std::uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int_range(std::int64_t lo, std::int64_t hi);

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  // Makes exactly the state change of calling bernoulli(p) until it returns
  // true (that successful draw is NOT consumed) or until `max` calls have
  // failed, and returns the number of failed calls: less than `max` means
  // the next bernoulli(p) succeeds. p <= 0 fails without drawing (returns
  // `max`, state unchanged), p >= 1 succeeds without drawing (returns 0),
  // and NaN draws and fails, all as in bernoulli. The loop runs on the four
  // state words in registers and tests each output against the integer
  // threshold ceil(p * 2^53), which is exactly uniform01() < p.
  std::uint64_t skip_bernoulli_failures(double p, std::uint64_t max);

  // Exponential with the given mean (inverse transform). Requires mean > 0.
  double exponential(double mean);

  // Number of Bernoulli(p) failures before the first success; support {0,1,…}
  // with mean (1-p)/p. Requires p in (0, 1].
  std::uint64_t geometric_failures(double p);

  // Standard normal via Box–Muller (no caching, stateless draws).
  double normal(double mean, double stddev);

  // Pareto (Lomax) with shape alpha > 1 and scale lambda > 0:
  // P(X > x) = (1 + x/lambda)^(-alpha), mean = lambda / (alpha - 1).
  double lomax(double alpha, double lambda);

  // Sum of k independent exponentials, each with mean `mean_each` (Erlang-k).
  double erlang(unsigned k, double mean_each);

  // Random permutation of {0, …, n-1} (Fisher–Yates).
  std::vector<std::size_t> permutation(std::size_t n);

  // Exposes the seed this generator was created from (for logging).
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t s_[4] = {};
};

}  // namespace abe
