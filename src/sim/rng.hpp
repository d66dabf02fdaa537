// Deterministic random number generation.
//
// Experiments must be bit-reproducible across platforms, so we do not use
// std::normal_distribution (whose algorithm is implementation-defined).
// Instead we implement xoshiro256** for the raw stream and explicit
// Box-Muller / inverse-CDF transforms on top of it.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/time.hpp"

namespace tmg::sim {

/// SplitMix64's state increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// The SplitMix64 output for state `x`: one gamma step, then the
/// full-avalanche finalizer. A pure function, so it doubles as an
/// integer hash (open-addressed tables, per-trial seeds).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** seeded via SplitMix64. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal deviate (Box-Muller, cached second value).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal deviate: exp(N(mu, sigma)). Heavy-tailed latencies.
  double lognormal(double mu, double sigma);

  /// Exponential deviate with the given mean (mean = 1/lambda).
  double exponential(double mean);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Derive an independent child stream (for per-component determinism).
  Rng fork();

 private:
  std::uint64_t s_[4];
  std::optional<double> cached_normal_;
};

}  // namespace tmg::sim
