// Per-warp memory coalescing: lane addresses → unique memory sectors.
//
// A warp memory instruction touches, per lane, `bytes` at `addr`. The
// hardware merges those into 32-byte sector transactions; the number of
// unique sectors is what the memory system is charged for. This is the
// mechanism behind the paper's §4.3 observation: lanes of one warp access
// one instance's contiguous data (few sectors), but different blocks walk
// different heap allocations (no cross-block merging happens anywhere).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/address.h"

namespace dgc::sim {

/// One lane's contribution to a warp memory instruction.
struct LaneAccess {
  DeviceAddr addr = 0;
  std::uint32_t bytes = 0;  ///< 0 marks an inactive lane
};

/// Computes the unique sector indices (addr / sector_bytes) touched by the
/// given lane accesses. The result is sorted and deduplicated; inactive
/// lanes (bytes == 0) contribute nothing. An access may straddle sector
/// boundaries and then contributes every covered sector.
///
/// This is the optimized entry point: full-warp unit-stride runs compute
/// their sector interval directly, already-sorted patterns skip the sort,
/// and unsorted groups whose sector span fits a fixed 8 KiB bitmap are
/// deduplicated and sorted in one pass over its words, so their cost
/// follows the unique sectors, not the sort. Wider unsorted groups fall
/// back to sort + unique. The output is defined to be identical to
/// CoalesceSectorsScalar for every input.
void CoalesceSectors(std::span<const LaneAccess> accesses,
                     std::uint32_t sector_bytes,
                     std::vector<std::uint64_t>& sectors_out);

/// Reference implementation: per-lane sector expansion followed by
/// sort+unique, with no shape-dependent shortcuts. Kept callable so tests
/// and the determinism harness can pin the fast path against it.
void CoalesceSectorsScalar(std::span<const LaneAccess> accesses,
                           std::uint32_t sector_bytes,
                           std::vector<std::uint64_t>& sectors_out);

/// Enables/disables the CoalesceSectors fast path process-wide (default
/// on); returns the previous setting. Off routes every call through the
/// scalar reference — used by the determinism harness to prove the two
/// paths produce byte-identical runs.
bool SetCoalesceFastPath(bool enabled);
bool CoalesceFastPathEnabled();

/// ceil(total requested bytes / sector size): the sectors the accesses
/// would need if packed perfectly with no sharing. Duplicate addresses
/// count once per lane, so this can exceed the coalesced sector count
/// (see LaunchStats::ideal_sectors). The warp issue loops accumulate the
/// byte total while gathering lane accesses; stats report
/// ideal / global as the coalescing efficiency.
inline std::uint64_t IdealSectorCountForBytes(std::uint64_t total_bytes,
                                              std::uint32_t sector_bytes) {
  return total_bytes == 0 ? 0
                          : (total_bytes + sector_bytes - 1) / sector_bytes;
}

}  // namespace dgc::sim
