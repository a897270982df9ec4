#include "sim/rng.h"

#include <cmath>

#include "util/check.h"

namespace abe {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // xoshiro requires a nonzero state; splitmix output of any seed gives one
  // with overwhelming probability, but guard against the degenerate case.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

Rng Rng::substream(std::string_view name, std::uint64_t index) const {
  // Mix (seed, name-hash, index) through SplitMix64 into a fresh seed.
  std::uint64_t sm = seed_ ^ rotl(hash_name(name), 17) ^ (index * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull);
  std::uint64_t derived = splitmix64(sm);
  derived ^= splitmix64(sm);
  return Rng(derived);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ABE_CHECK_LE(lo, hi);
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  ABE_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

std::int64_t Rng::uniform_int_range(std::int64_t lo, std::int64_t hi) {
  ABE_CHECK_LE(lo, hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_int(span));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t Rng::skip_bernoulli_failures(double p, std::uint64_t max) {
  if (p <= 0.0) return max;
  if (p >= 1.0) return 0;
  // uniform01() < p  <=>  (x >> 11) < p * 2^53  <=>  (x >> 11) < ceil(p * 2^53)
  // for the integer x >> 11; the scaling is exact, and p < 1 keeps the
  // threshold below 2^53, so shifting it left by 11 cannot overflow. NaN
  // compares false everywhere: threshold 0, every draw fails.
  const std::uint64_t threshold =
      p == p ? static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53)) << 11 : 0;
  std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  std::uint64_t s2 = s_[2];
  std::uint64_t s3 = s_[3];
  std::uint64_t failures = 0;
  for (; failures < max; ++failures) {
    // next_u64(), with the output tested before the state advances.
    if (rotl(s1 * 5, 7) * 9 < threshold) break;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
  return failures;
}

double Rng::exponential(double mean) {
  ABE_CHECK_GT(mean, 0.0);
  // Inverse transform; 1 - u in (0,1] avoids log(0).
  return -mean * std::log1p(-uniform01());
}

std::uint64_t Rng::geometric_failures(double p) {
  ABE_CHECK_GT(p, 0.0);
  ABE_CHECK_LE(p, 1.0);
  if (p == 1.0) return 0;
  // Inverse transform: floor(log(1-u) / log(1-p)).
  const double u = uniform01();
  return static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
}

double Rng::normal(double mean, double stddev) {
  ABE_CHECK_GE(stddev, 0.0);
  double u1 = uniform01();
  while (u1 == 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::lomax(double alpha, double lambda) {
  ABE_CHECK_GT(alpha, 1.0) << "finite mean requires alpha > 1";
  ABE_CHECK_GT(lambda, 0.0);
  const double u = uniform01();
  // Inverse of CDF F(x) = 1 - (1 + x/lambda)^(-alpha).
  return lambda * (std::pow(1.0 - u, -1.0 / alpha) - 1.0);
}

double Rng::erlang(unsigned k, double mean_each) {
  ABE_CHECK_GT(k, 0u);
  double sum = 0.0;
  for (unsigned i = 0; i < k; ++i) {
    sum += exponential(mean_each);
  }
  return sum;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_int(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace abe
