// Launch profiler: a sampled stall/utilization timeline.
//
// The profiler is passive storage plus sampling policy; the hot-path hooks
// live in LaunchContext. Counters are charged to per-instance buckets on
// every launch (LaunchContext::IssueStats) whether or not a profiler is
// attached; when a LaunchConfig carries one, the run loop asks it —
// between events, never inside one — whether the next event crosses a
// sample boundary. Each sample records window *deltas* of the summed
// buckets (work issued since the previous sample) and instantaneous
// occupancy, so DRAM-bandwidth saturation is directly visible as instance
// count grows.
//
// One Profiler may observe several sequential launches (ensemble retry
// waves): each OnLaunchBegin opens a new wave and the timeline keeps
// growing.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/stats.h"

namespace dgc::sim {

struct DeviceSpec;

/// One timeline entry. All counter fields are deltas over the window that
/// ends at `cycle`; occupancy fields are window averages. Cycle values are
/// in the clock of the wave the sample belongs to (each launch restarts
/// the engine clock at 0).
struct TimelineSample {
  std::uint64_t cycle = 0;       ///< window end (the sample boundary)
  std::uint32_t wave = 0;        ///< retry wave this window belongs to
  std::uint32_t active_warps = 0;     ///< resident warps across all SMs
  std::uint32_t resident_blocks = 0;  ///< occupied block slots across SMs
  std::uint64_t warp_instructions = 0;  ///< issued in this window
  /// DRAM traffic in the window divided by the device's peak
  /// (dram_bytes_per_cycle * window). Deliberately NOT clamped to 1.0:
  /// values above 1 mean the channels served queued backlog faster than
  /// the nominal per-cycle rate sustained over the window — i.e. demand
  /// oversubscription, exactly the saturation signal we want visible.
  double dram_bw_occupancy = 0.0;
  /// L1-miss traffic into L2 divided by l2_bytes_per_cycle * window.
  double l2_bw_occupancy = 0.0;
  // Issue-stall breakdown for the window (same units as the LaunchStats
  // counters they are deltas of).
  std::uint64_t dram_queue_stall = 0;
  std::uint64_t l2_queue_stall = 0;
  std::uint64_t barrier_stall = 0;
  std::uint64_t bank_conflict_replays = 0;
  std::uint64_t divergence_replays = 0;
};

class Profiler {
 public:
  struct Options {
    /// Cycles between timeline samples. Smaller = finer timeline, more
    /// samples; the engine does no extra work between boundaries either way.
    std::uint64_t sample_interval = 8192;
    /// Timeline ring limit; samples past it are counted, not stored
    /// (mirrors Trace's capacity/dropped contract). Exception: the closing
    /// sample of each wave — the final partial interval at launch end — is
    /// always stored, even at capacity. Dropping it would silently truncate
    /// the stall/utilization timeline short of the launch's last cycles,
    /// exactly the tail a saturation analysis needs.
    std::size_t timeline_capacity = 1u << 16;
  };

  Profiler() = default;
  explicit Profiler(Options options) : options_(options) {}

  // --- Hooks called by LaunchContext / loaders -----------------------------

  /// Opens a new wave: resets the sampling window to the (restarted) engine
  /// clock and captures the device's bandwidth constants. The first call is
  /// wave 0.
  void OnLaunchBegin(const DeviceSpec& spec);

  /// True when the next event (at time `t`) is strictly past the pending
  /// sample boundary, i.e. the run loop must call AdvanceTo before
  /// dispatching it. Inline: this is called once per engine event.
  bool NeedsSampleBefore(std::uint64_t t) const { return t > next_boundary_; }

  /// Emits one sample per boundary < `t`. `buckets` are the context's
  /// per-instance stats so far (LaunchContext::instance_stats); delta
  /// fields diff their sum against the previous sample.
  void AdvanceTo(std::uint64_t t, std::uint32_t active_warps,
                 std::uint32_t resident_blocks,
                 const std::vector<LaunchStats>& buckets);

  /// Closes the wave at time `now`: emits the final partial-window sample.
  void OnLaunchEnd(std::uint64_t now, std::uint32_t active_warps,
                   std::uint32_t resident_blocks,
                   const std::vector<LaunchStats>& buckets);

  // --- Results -------------------------------------------------------------

  const std::vector<TimelineSample>& timeline() const { return timeline_; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }
  std::uint64_t sample_interval() const { return options_.sample_interval; }
  /// Number of waves observed (OnLaunchBegin calls).
  std::uint32_t waves() const { return waves_; }

 private:
  /// `final_flush` marks the wave-closing sample, which bypasses the
  /// capacity limit (see Options::timeline_capacity).
  void EmitSample(std::uint64_t cycle, std::uint32_t active_warps,
                  std::uint32_t resident_blocks,
                  const std::vector<LaunchStats>& buckets,
                  bool final_flush = false);

  Options options_;
  std::vector<TimelineSample> timeline_;
  std::uint64_t dropped_samples_ = 0;

  // Current-wave sampling state.
  std::uint32_t waves_ = 0;
  std::uint64_t next_boundary_ = 0;
  std::uint64_t window_start_ = 0;
  LaunchStats window_base_;  ///< summed bucket counters at the last sample
  double dram_bytes_per_cycle_ = 0.0;
  double l2_bytes_per_cycle_ = 0.0;
  std::uint32_t sector_bytes_ = 0;
};

}  // namespace dgc::sim
