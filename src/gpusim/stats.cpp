#include "gpusim/stats.h"

#include "support/str.h"
#include "support/units.h"

namespace dgc::sim {

void LaunchStats::AccumulateSequential(const LaunchStats& o) {
  LaunchStats& s = *this;
  s.warp_instructions += o.warp_instructions;
  s.compute_instructions += o.compute_instructions;
  s.load_instructions += o.load_instructions;
  s.store_instructions += o.store_instructions;
  s.atomic_instructions += o.atomic_instructions;
  s.external_calls += o.external_calls;
  s.barrier_arrivals += o.barrier_arrivals;
  s.divergent_replays += o.divergent_replays;
  s.global_sectors += o.global_sectors;
  s.ideal_sectors += o.ideal_sectors;
  s.l1_hits += o.l1_hits;
  s.l1_misses += o.l1_misses;
  s.l2_hits += o.l2_hits;
  s.l2_misses += o.l2_misses;
  s.dram_bytes += o.dram_bytes;
  s.dram_row_hits += o.dram_row_hits;
  s.dram_row_misses += o.dram_row_misses;
  s.smem_accesses += o.smem_accesses;
  s.smem_bank_conflicts += o.smem_bank_conflicts;
  s.dram_queue_cycles += o.dram_queue_cycles;
  s.l2_queue_cycles += o.l2_queue_cycles;
  s.barrier_stall_cycles += o.barrier_stall_cycles;
  s.compute_cycles_issued += o.compute_cycles_issued;
  s.blocks_launched += o.blocks_launched;
  s.memcheck_findings += o.memcheck_findings;
  s.lane_traps += o.lane_traps;
  s.watchdog_traps += o.watchdog_traps;
  s.elapsed_cycles += o.elapsed_cycles;
}

namespace {
double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : double(num) / double(den);
}

/// "0.83" for real rates, "n/a" when nothing was accessed: Ratio's zero
/// default would otherwise make an untouched cache look like a 100%-miss
/// cache in reports.
std::string RateOrNa(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return "n/a";
  return StrFormat("%.2f", Ratio(num, den));
}
}  // namespace

// Not capped at 1.0: ideal_sectors counts requested bytes, so a group of
// lanes reading one address (a broadcast) yields ideal > global and an
// efficiency above 1 — which is why an ensemble of lookup kernels can
// report 1.01. Redefining ideal_sectors over unique bytes would change
// every committed metrics document.
double LaunchStats::CoalescingEfficiency() const {
  return global_sectors == 0 ? 1.0 : Ratio(ideal_sectors, global_sectors);
}
double LaunchStats::L1HitRate() const { return Ratio(l1_hits, l1_hits + l1_misses); }
double LaunchStats::L2HitRate() const { return Ratio(l2_hits, l2_hits + l2_misses); }
double LaunchStats::DramRowHitRate() const {
  return Ratio(dram_row_hits, dram_row_hits + dram_row_misses);
}

std::string LaunchStats::ToString() const {
  std::string out;
  out += StrFormat("elapsed: %s cycles, blocks: %llu\n",
                   FormatCount(elapsed_cycles).c_str(),
                   (unsigned long long)blocks_launched);
  out += StrFormat(
      "warp instructions: %s (compute %s, load %s, store %s, atomic %s, "
      "external %s)\n",
      FormatCount(warp_instructions).c_str(),
      FormatCount(compute_instructions).c_str(),
      FormatCount(load_instructions).c_str(),
      FormatCount(store_instructions).c_str(),
      FormatCount(atomic_instructions).c_str(),
      FormatCount(external_calls).c_str());
  out += StrFormat(
      "sectors: %s (coalescing efficiency %.2f), L1 %s, L2 %s, "
      "DRAM %s rows %s\n",
      FormatCount(global_sectors).c_str(), CoalescingEfficiency(),
      RateOrNa(l1_hits, l1_hits + l1_misses).c_str(),
      RateOrNa(l2_hits, l2_hits + l2_misses).c_str(),
      FormatBytes(dram_bytes).c_str(),
      RateOrNa(dram_row_hits, dram_row_hits + dram_row_misses).c_str());
  out += StrFormat("barriers: %s, divergent replays: %s, smem conflicts: %s\n",
                   FormatCount(barrier_arrivals).c_str(),
                   FormatCount(divergent_replays).c_str(),
                   FormatCount(smem_bank_conflicts).c_str());
  if (dram_queue_cycles != 0 || l2_queue_cycles != 0 ||
      barrier_stall_cycles != 0) {
    out += StrFormat(
        "stall cycles: dram-queue %s, l2-queue %s, barrier %s\n",
        FormatCount(dram_queue_cycles).c_str(),
        FormatCount(l2_queue_cycles).c_str(),
        FormatCount(barrier_stall_cycles).c_str());
  }
  if (memcheck_findings != 0) {
    out += StrFormat("memcheck findings: %s\n",
                     FormatCount(memcheck_findings).c_str());
  }
  if (lane_traps != 0 || watchdog_traps != 0) {
    out += StrFormat("lane traps: %s (watchdog %s)\n",
                     FormatCount(lane_traps + watchdog_traps).c_str(),
                     FormatCount(watchdog_traps).c_str());
  }
  return out;
}

}  // namespace dgc::sim
