// The memory hierarchy timing model: per-SM L1 → shared L2 → DRAM.
//
// DRAM is the contended resource that produces the paper's sub-linear
// ensemble scaling: it has a finite byte rate, a small number of channels,
// and per-channel row buffers. Streams from many concurrent instances hit
// disjoint heap allocations, interleave on the channels, and lower the
// row-hit rate — exactly the effect §4.3 describes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/cache.h"
#include "gpusim/device_spec.h"
#include "gpusim/stats.h"

namespace dgc::sim {

class MemorySystem {
 public:
  explicit MemorySystem(const DeviceSpec& spec);

  /// Services one warp memory instruction: `sectors` (unique sector ids
  /// from the coalescer) issued by SM `sm_id` at time `now`. Returns the
  /// completion time. Hits and misses are recorded into `stats`.
  ///
  /// Queue accounting (stats.l2_queue_cycles / dram_queue_cycles): the
  /// instruction is charged the backlog it finds on arrival, once per
  /// resource it actually reaches — the L2 port once, each DRAM channel
  /// once — truncated to whole cycles. An instruction's own sectors never
  /// count toward its own queue charge.
  std::uint64_t Access(int sm_id, std::span<const std::uint64_t> sectors,
                       bool is_store, std::uint64_t now, LaunchStats& stats);

  /// Services one warp *shared-memory* instruction: lane bank indices are
  /// derived from addresses; conflicting banks serialize. Returns completion.
  std::uint64_t AccessShared(std::span<const std::uint64_t> addrs,
                             std::uint64_t now, LaunchStats& stats);

  /// Resets caches and channel state (between independent launches).
  void Reset();

  /// Fixed-point scale for the busy-until cursors (see below). Public so
  /// tests can reason about quantization exactly.
  static constexpr std::uint32_t kFpBits = 20;
  static constexpr std::uint64_t kFpOne = std::uint64_t(1) << kFpBits;

 private:
  /// One DRAM channel: a shared busy-until cursor (bandwidth) and one open
  /// row per bank (locality). Cursors are *integer fixed-point* cycle
  /// counts (kFpBits fractional bits): a sector's service time is far
  /// below one cycle on a modern part, so whole-cycle rounding would
  /// throttle the hierarchy, while a floating-point cursor accumulates
  /// magnitude-dependent rounding over long launches. Integer accumulation
  /// is exact — completion times are invariant to how a sector stream is
  /// chunked into instructions.
  struct Channel {
    std::uint64_t busy_until_fp = 0;
    /// Stamp of the last Access() call charged for this channel's backlog
    /// (queue cycles are per instruction, not per sector).
    std::uint64_t charge_stamp = 0;
    std::vector<std::uint64_t> open_row;  ///< per bank, ~0 = closed
  };

  const DeviceSpec& spec_;
  std::vector<SectorCache> l1_;  ///< one per SM
  SectorCache l2_;
  std::uint64_t l2_busy_until_fp_ = 0;
  std::uint64_t l2_service_fp_ = 0;    ///< per-sector L2 port occupancy
  std::uint64_t dram_service_fp_ = 0;  ///< per-sector channel occupancy
  std::uint64_t access_stamp_ = 0;     ///< one per Access() call
  std::vector<Channel> channels_;
  // Precomputed index arithmetic for the per-sector DRAM loop. All shipped
  // specs have power-of-two channel/bank/row geometry, so the three hot
  // divisions reduce to shifts and masks; pow2_geometry_ falls back to the
  // div/mod forms (identical results) for exotic specs.
  bool pow2_geometry_ = false;
  std::uint32_t channel_mask_ = 0;   ///< channels - 1
  std::uint32_t channel_shift_ = 0;  ///< log2(channels)
  std::uint32_t row_shift_ = 0;      ///< log2(row_bytes / sector_bytes)
  std::uint32_t bank_mask_ = 0;      ///< banks_per_channel - 1
  std::uint32_t smem_bank_mask_ = 0;  ///< smem_banks - 1 when pow2, else 0
  // AccessShared scratch (the engine services one warp turn at a time, so
  // per-device scratch buffers are safe and keep the path allocation-free).
  std::vector<std::uint64_t> smem_words_;
  std::vector<std::uint32_t> smem_per_bank_;
};

}  // namespace dgc::sim
