#include "common/rng.hpp"

#include <cassert>
#include <cmath>

namespace streamha {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t salt) const {
  std::uint64_t mix = s_[0] ^ rotl(s_[1], 17) ^ (salt * 0x9E3779B97F4A7C15ULL);
  return Rng(mix);
}

std::uint64_t Rng::nextU64() {
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

double Rng::nextDouble() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(nextU64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t draw;
  do {
    draw = nextU64();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::uniformReal(double lo, double hi) {
  return lo + (hi - lo) * nextDouble();
}

double Rng::exponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = nextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = nextDouble();
  } while (u1 <= 0.0);
  const double u2 = nextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

double Rng::logNormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::chance(double probability) {
  return nextDouble() < probability;
}

std::uint64_t stableHash(std::string_view text) {
  // FNV-1a 64-bit.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace streamha
