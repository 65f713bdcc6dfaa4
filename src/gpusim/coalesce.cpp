#include "gpusim/coalesce.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace dgc::sim {
namespace {

// Process-wide fast-path switch. Defaults to on; the determinism harness
// flips it off to drive whole ensemble runs through the scalar reference
// and assert byte-identical stats (tests/ensemble/perf_determinism_test).
std::atomic<bool> g_fast_path{true};

/// Scratch bound of the bitmap emit: 1,024 words (8 KiB, on the stack)
/// cover a 65,536-sector span.
constexpr std::uint64_t kBitmapWords = 1024;

}  // namespace

bool SetCoalesceFastPath(bool enabled) {
  return g_fast_path.exchange(enabled, std::memory_order_relaxed);
}

bool CoalesceFastPathEnabled() {
  return g_fast_path.load(std::memory_order_relaxed);
}

void CoalesceSectorsScalar(std::span<const LaneAccess> accesses,
                           std::uint32_t sector_bytes,
                           std::vector<std::uint64_t>& sectors_out) {
  sectors_out.clear();
  for (const LaneAccess& a : accesses) {
    if (a.bytes == 0) continue;
    const std::uint64_t first = a.addr / sector_bytes;
    const std::uint64_t last = (a.addr + a.bytes - 1) / sector_bytes;
    for (std::uint64_t s = first; s <= last; ++s) sectors_out.push_back(s);
  }
  std::sort(sectors_out.begin(), sectors_out.end());
  sectors_out.erase(std::unique(sectors_out.begin(), sectors_out.end()),
                    sectors_out.end());
}

void CoalesceSectors(std::span<const LaneAccess> accesses,
                     std::uint32_t sector_bytes,
                     std::vector<std::uint64_t>& sectors_out) {
  if (!g_fast_path.load(std::memory_order_relaxed)) {
    CoalesceSectorsScalar(accesses, sector_bytes, sectors_out);
    return;
  }
  sectors_out.clear();

  // Sector size is a power of two on every real device, so addr→sector is
  // a shift; a hardware u64 divide (two per lane otherwise) only backs the
  // exotic-geometry fallback. Same quotients either way.
  const int shift = std::has_single_bit(sector_bytes)
                        ? std::countr_zero(sector_bytes)
                        : -1;
  const auto sector_of = [&](std::uint64_t addr) {
    return shift >= 0 ? addr >> shift : addr / sector_bytes;
  };

  // Fast path: the dominant shape is a full warp of equal-width lanes
  // walking one contiguous ascending run (unit stride). The touched bytes
  // then form a single interval, and the sector run falls out of its two
  // endpoints — no per-lane expansion, no sort, no dedup.
  if (accesses.size() > 1) {
    const std::uint32_t bytes = accesses.front().bytes;
    bool contiguous = bytes != 0;
    for (std::size_t i = 1; contiguous && i < accesses.size(); ++i) {
      contiguous = accesses[i].bytes == bytes &&
                   accesses[i].addr == accesses[i - 1].addr + bytes;
    }
    if (contiguous) {
      const std::uint64_t first = sector_of(accesses.front().addr);
      const std::uint64_t last = sector_of(accesses.back().addr + bytes - 1);
      sectors_out.reserve(std::size_t(last - first + 1));
      for (std::uint64_t s = first; s <= last; ++s) sectors_out.push_back(s);
      return;
    }
  }

  // General path: expand per-lane sector ranges while tracking whether the
  // output is already non-decreasing (typical for sorted-but-gappy
  // patterns) and its sector span.
  bool sorted = true;
  std::uint64_t prev = 0, lo = ~std::uint64_t(0), hi = 0;
  for (const LaneAccess& a : accesses) {
    if (a.bytes == 0) continue;
    const std::uint64_t first = sector_of(a.addr);
    const std::uint64_t last = sector_of(a.addr + a.bytes - 1);
    if (!sectors_out.empty() && first < prev) sorted = false;
    for (std::uint64_t s = first; s <= last; ++s) sectors_out.push_back(s);
    prev = last;
    lo = std::min(lo, first);
    hi = std::max(hi, last);
  }
  const std::uint64_t words = (hi - lo) / 64 + 1;
  if (!sorted && words <= kBitmapWords &&
      words <= 64 + 4 * sectors_out.size()) {
    // Unsorted but narrow (batch groups are mostly duplicates): one bit
    // per sector, then walking the words emits the sorted unique list. The
    // word bound keeps zeroing and walking within a few words per sector.
    std::uint64_t bits[kBitmapWords];
    std::fill_n(bits, words, 0);
    for (const std::uint64_t s : sectors_out) {
      bits[(s - lo) / 64] |= std::uint64_t(1) << ((s - lo) % 64);
    }
    std::size_t n = 0;
    for (std::uint64_t w = 0; w < words; ++w) {
      for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
        sectors_out[n++] = lo + w * 64 + std::uint64_t(std::countr_zero(b));
      }
    }
    sectors_out.resize(n);
    return;
  }
  if (!sorted) std::sort(sectors_out.begin(), sectors_out.end());
  sectors_out.erase(std::unique(sectors_out.begin(), sectors_out.end()),
                    sectors_out.end());
}

}  // namespace dgc::sim
