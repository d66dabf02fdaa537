#include "sim/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace tmg::sim {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) {
    s = splitmix64(seed);
    seed += kSplitMix64Gamma;
  }
  // xoshiro256** must not be seeded with all zeros; splitmix64 of any
  // seed cannot produce four zero words, but guard regardless.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
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
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::normal() {
  if (cached_normal_) {
    const double v = *cached_normal_;
    cached_normal_.reset();
    return v;
  }
  // Box-Muller. u1 must be strictly positive for the log.
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return -mean * std::log(u);
}

bool Rng::chance(double p) {
  return uniform01() < p;
}

Rng Rng::fork() {
  return Rng{next_u64()};
}

}  // namespace tmg::sim
