// Deterministic pseudo-random number generation.
//
// The simulator, workload generators, and property tests all need streams
// that are reproducible across runs and platforms, so we implement the
// generators ourselves instead of relying on unspecified standard-library
// distributions. SplitMix64 seeds Xoshiro256**, the main engine.
#pragma once

#include <cstdint>

namespace dgc {

/// SplitMix64: tiny, passes BigCrush; used for seeding and cheap streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL);

  std::uint64_t NextU64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool NextBool(double p = 0.5);

 private:
  std::uint64_t s_[4];
};

}  // namespace dgc
