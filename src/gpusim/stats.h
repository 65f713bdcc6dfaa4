// Counters collected by the simulator during a kernel launch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dgc::sim {

struct LaunchStats {
  // Instruction mix (warp granularity).
  std::uint64_t warp_instructions = 0;
  std::uint64_t compute_instructions = 0;
  std::uint64_t load_instructions = 0;
  std::uint64_t store_instructions = 0;
  std::uint64_t atomic_instructions = 0;
  std::uint64_t external_calls = 0;   ///< RPC / host callbacks
  std::uint64_t barrier_arrivals = 0;
  std::uint64_t divergent_replays = 0;  ///< extra serialized op groups

  // Memory behaviour.
  std::uint64_t global_sectors = 0;        ///< after coalescing
  /// ceil(requested bytes / sector) per instruction. Not a lower bound on
  /// global_sectors: lanes that read the same address request more bytes
  /// than they touch (a 32-lane broadcast requests 8 sectors' worth and
  /// touches 1), so ideal_sectors can exceed global_sectors.
  std::uint64_t ideal_sectors = 0;
  std::uint64_t l1_hits = 0, l1_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t dram_bytes = 0;
  std::uint64_t dram_row_hits = 0, dram_row_misses = 0;
  std::uint64_t smem_accesses = 0;
  std::uint64_t smem_bank_conflicts = 0;  ///< extra serialized bank cycles

  // Stall / queueing behaviour (see docs/MODEL.md, "Profiling & metrics").
  /// DRAM-channel backlog found by memory instructions on arrival — the
  /// direct signature of bandwidth saturation. Charged once per channel
  /// per instruction (whole cycles): an instruction's own sectors are
  /// service time, never queue time.
  std::uint64_t dram_queue_cycles = 0;
  /// L2-port backlog found by memory instructions on arrival, charged once
  /// per instruction (whole cycles).
  std::uint64_t l2_queue_cycles = 0;
  /// Cycles lanes spent parked at barriers between arrival and release.
  std::uint64_t barrier_stall_cycles = 0;

  // Compute behaviour.
  std::uint64_t compute_cycles_issued = 0;

  // Outcome.
  std::uint64_t elapsed_cycles = 0;
  std::uint64_t blocks_launched = 0;
  /// Sanitizer findings attributed to this launch (0 when memcheck is off).
  std::uint64_t memcheck_findings = 0;
  /// Lanes retired by a device trap (OOM/abort/injected; watchdog counted
  /// separately below).
  std::uint64_t lane_traps = 0;
  /// Lanes retired by a watchdog cycle budget.
  std::uint64_t watchdog_traps = 0;

  /// Merges counters of work that ran AFTER this work, on the same device
  /// clock (retry waves, successive launches): every counter sums,
  /// including elapsed_cycles — back-to-back durations add.
  void AccumulateSequential(const LaunchStats& other);

  /// Merges counters of work that ran CONCURRENTLY inside one launch
  /// (per-instance stats of co-resident instances): throughput counters
  /// sum, but elapsed_cycles takes the max — two instances that each ran
  /// 1000 overlapping cycles occupied the device for 1000 cycles, not
  /// 2000. Summing here was the historical bug this split fixes.
  void AccumulateConcurrent(const LaunchStats& other);

  bool operator==(const LaunchStats&) const = default;

  /// ideal_sectors / global_sectors: 1.0 is perfectly coalesced, lower
  /// means scattered accesses, and above 1.0 means lanes shared addresses
  /// (see ideal_sectors).
  double CoalescingEfficiency() const;
  double L1HitRate() const;
  double L2HitRate() const;
  double DramRowHitRate() const;

  /// Multi-line human-readable report. Hit rates with zero accesses print
  /// "n/a" (not 0.00): a kernel that never touched a cache did not miss
  /// 100% of the time.
  std::string ToString() const;
};

/// Per-instance slice of a run's counters, folded across waves from each
/// launch's buckets (LaunchResult::instance_stats) by the ensemble loader.
/// instance == -1 collects work no instance owns (runtime bookkeeping,
/// padding lanes, teams between instances).
struct InstanceStats {
  std::int32_t instance = -1;
  LaunchStats stats;
};

}  // namespace dgc::sim
