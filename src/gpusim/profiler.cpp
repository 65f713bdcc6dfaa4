#include "gpusim/profiler.h"

#include "gpusim/device_spec.h"

namespace dgc::sim {

namespace {

/// Sums the counters the timeline needs across all per-instance buckets.
/// (Buckets carry elapsed_cycles = 0, so summing everything is safe, but
/// we only read a handful of fields — keep it explicit and cheap.)
LaunchStats SumBuckets(const std::vector<LaunchStats>& buckets) {
  LaunchStats total;
  for (const LaunchStats& b : buckets) total.AccumulateSequential(b);
  return total;
}

}  // namespace

void Profiler::OnLaunchBegin(const DeviceSpec& spec) {
  ++waves_;
  next_boundary_ = options_.sample_interval;
  window_start_ = 0;
  window_base_ = LaunchStats{};
  dram_bytes_per_cycle_ = spec.dram_bytes_per_cycle;
  l2_bytes_per_cycle_ = spec.l2_bytes_per_cycle;
  sector_bytes_ = spec.sector_bytes;
}

void Profiler::AdvanceTo(std::uint64_t t, std::uint32_t active_warps,
                         std::uint32_t resident_blocks,
                         const std::vector<LaunchStats>& buckets) {
  while (next_boundary_ < t) {
    EmitSample(next_boundary_, active_warps, resident_blocks, buckets);
    next_boundary_ += options_.sample_interval;
  }
}

void Profiler::OnLaunchEnd(std::uint64_t now, std::uint32_t active_warps,
                           std::uint32_t resident_blocks,
                           const std::vector<LaunchStats>& buckets) {
  // Final partial window, only if anything happened past the last sample.
  // This is the wave's closing sample: it must land in the timeline even
  // at capacity (final_flush), or the last < sample_interval cycles of the
  // launch silently vanish from the stall/utilization timeline.
  if (now > window_start_) {
    EmitSample(now, active_warps, resident_blocks, buckets,
               /*final_flush=*/true);
  }
}

void Profiler::EmitSample(std::uint64_t cycle, std::uint32_t active_warps,
                          std::uint32_t resident_blocks,
                          const std::vector<LaunchStats>& buckets,
                          bool final_flush) {
  const std::uint64_t window = cycle - window_start_;
  const LaunchStats total = SumBuckets(buckets);
  if (window != 0) {
    if (final_flush || timeline_.size() < options_.timeline_capacity) {
      TimelineSample s;
      s.cycle = cycle;
      s.wave = waves_ - 1;
      s.active_warps = active_warps;
      s.resident_blocks = resident_blocks;
      s.warp_instructions = total.warp_instructions - window_base_.warp_instructions;
      const double dram_delta = double(total.dram_bytes - window_base_.dram_bytes);
      const double l2_delta =
          double(total.l1_misses - window_base_.l1_misses) * double(sector_bytes_);
      if (dram_bytes_per_cycle_ > 0.0) {
        s.dram_bw_occupancy = dram_delta / (dram_bytes_per_cycle_ * double(window));
      }
      if (l2_bytes_per_cycle_ > 0.0) {
        s.l2_bw_occupancy = l2_delta / (l2_bytes_per_cycle_ * double(window));
      }
      s.dram_queue_stall = total.dram_queue_cycles - window_base_.dram_queue_cycles;
      s.l2_queue_stall = total.l2_queue_cycles - window_base_.l2_queue_cycles;
      s.barrier_stall =
          total.barrier_stall_cycles - window_base_.barrier_stall_cycles;
      s.bank_conflict_replays =
          total.smem_bank_conflicts - window_base_.smem_bank_conflicts;
      s.divergence_replays =
          total.divergent_replays - window_base_.divergent_replays;
      timeline_.push_back(s);
    } else {
      ++dropped_samples_;
    }
  }
  window_start_ = cycle;
  window_base_ = total;
}

}  // namespace dgc::sim
