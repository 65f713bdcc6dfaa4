#include "support/rng.h"

namespace dgc {
namespace {
inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  __uint128_t m = __uint128_t(NextU64()) * bound;
  std::uint64_t lo = std::uint64_t(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      m = __uint128_t(NextU64()) * bound;
      lo = std::uint64_t(m);
    }
  }
  return std::uint64_t(m >> 64);
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  // Unsigned arithmetic: hi - lo can exceed INT64_MAX. A span that wraps to
  // 0 is the whole int64 range.
  const std::uint64_t span = std::uint64_t(hi) - std::uint64_t(lo) + 1;
  const std::uint64_t offset = span == 0 ? NextU64() : NextBounded(span);
  return std::int64_t(std::uint64_t(lo) + offset);
}

double Rng::NextDouble() {
  // 53 high bits → uniform in [0,1).
  return double(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

}  // namespace dgc
