// Deterministic random number generation.
//
// We deliberately avoid std::mt19937 + std::*_distribution because their
// output is not guaranteed identical across standard library implementations;
// experiment reproducibility depends on the generator alone. xoshiro256**
// seeded via splitmix64 is small, fast and well analyzed.
#pragma once

#include <cstdint>
#include <string_view>

namespace streamha {

/// splitmix64 step; used for seeding and for hashing ids into seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** PRNG with explicit, portable distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive an independent child generator; `salt` distinguishes children of
  /// the same parent (e.g. one child per machine id).
  Rng fork(std::uint64_t salt) const;

  std::uint64_t nextU64();

  /// Uniform in [0, 1).
  double nextDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniformReal(double lo, double hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal via Box-Muller (deterministic pairing).
  double normal(double mean, double stddev);

  /// Log-normal parameterized by the mean/stddev of the *underlying* normal.
  double logNormal(double mu, double sigma);

  /// Bernoulli trial.
  bool chance(double probability);

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Stable 64-bit hash of a string, for deriving per-component seeds.
std::uint64_t stableHash(std::string_view text);

}  // namespace streamha
