#include "ensemble/metrics.h"

#include <fstream>

#include "ensemble/loader.h"
#include "gpusim/profiler.h"
#include "support/json.h"
#include "support/str.h"

namespace dgc::ensemble {

namespace {

std::string U64(std::uint64_t v) {
  return StrFormat("%llu", (unsigned long long)v);
}

/// Fixed-precision doubles keep the document byte-stable across platforms
/// (printf of finite doubles at fixed precision is deterministic).
std::string F6(double v) { return StrFormat("%.6f", v); }

/// Derived rate: fixed-precision number, or null on a zero denominator
/// (the JSON spelling of ToString's "n/a").
std::string RateOrNull(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return "null";
  return F6(double(num) / double(den));
}

/// The shared counter block of "launch", "per_instance" entries and
/// "unattributed". One fixed order; `derived` adds the rate fields.
void AppendCounters(std::string& out, const std::string& indent,
                    const sim::LaunchStats& s, bool derived) {
  auto field = [&](const char* name, const std::string& value, bool last) {
    out += indent + "\"" + name + "\": " + value + (last ? "\n" : ",\n");
  };
  field("elapsed_cycles", U64(s.elapsed_cycles), false);
  field("blocks_launched", U64(s.blocks_launched), false);
  field("warp_instructions", U64(s.warp_instructions), false);
  field("compute_instructions", U64(s.compute_instructions), false);
  field("load_instructions", U64(s.load_instructions), false);
  field("store_instructions", U64(s.store_instructions), false);
  field("atomic_instructions", U64(s.atomic_instructions), false);
  field("external_calls", U64(s.external_calls), false);
  field("barrier_arrivals", U64(s.barrier_arrivals), false);
  field("divergent_replays", U64(s.divergent_replays), false);
  field("global_sectors", U64(s.global_sectors), false);
  field("ideal_sectors", U64(s.ideal_sectors), false);
  field("l1_hits", U64(s.l1_hits), false);
  field("l1_misses", U64(s.l1_misses), false);
  field("l2_hits", U64(s.l2_hits), false);
  field("l2_misses", U64(s.l2_misses), false);
  field("dram_bytes", U64(s.dram_bytes), false);
  field("dram_row_hits", U64(s.dram_row_hits), false);
  field("dram_row_misses", U64(s.dram_row_misses), false);
  field("smem_accesses", U64(s.smem_accesses), false);
  field("smem_bank_conflicts", U64(s.smem_bank_conflicts), false);
  field("dram_queue_cycles", U64(s.dram_queue_cycles), false);
  field("l2_queue_cycles", U64(s.l2_queue_cycles), false);
  field("barrier_stall_cycles", U64(s.barrier_stall_cycles), false);
  field("compute_cycles_issued", U64(s.compute_cycles_issued), false);
  field("memcheck_findings", U64(s.memcheck_findings), false);
  field("lane_traps", U64(s.lane_traps), false);
  field("watchdog_traps", U64(s.watchdog_traps), !derived);
  if (derived) {
    field("coalescing_efficiency", F6(s.CoalescingEfficiency()), false);
    field("l1_hit_rate", RateOrNull(s.l1_hits, s.l1_hits + s.l1_misses),
          false);
    field("l2_hit_rate", RateOrNull(s.l2_hits, s.l2_hits + s.l2_misses),
          false);
    field("dram_row_hit_rate",
          RateOrNull(s.dram_row_hits, s.dram_row_hits + s.dram_row_misses),
          true);
  }
}

void AppendTimeline(std::string& out, const sim::Profiler& profiler) {
  out += "  \"timeline\": {\n";
  out += "    \"sample_interval\": " + U64(profiler.sample_interval()) + ",\n";
  out += "    \"dropped_samples\": " + U64(profiler.dropped_samples()) + ",\n";
  out += "    \"samples\": [";
  const auto& samples = profiler.timeline();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const sim::TimelineSample& s = samples[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"cycle\": " + U64(s.cycle);
    out += ", \"wave\": " + U64(s.wave);
    out += ", \"active_warps\": " + U64(s.active_warps);
    out += ", \"resident_blocks\": " + U64(s.resident_blocks);
    out += ", \"warp_instructions\": " + U64(s.warp_instructions);
    out += ", \"dram_bw_occupancy\": " + F6(s.dram_bw_occupancy);
    out += ", \"l2_bw_occupancy\": " + F6(s.l2_bw_occupancy);
    out += ", \"stalls\": {\"dram_queue\": " + U64(s.dram_queue_stall);
    out += ", \"l2_queue\": " + U64(s.l2_queue_stall);
    out += ", \"barrier\": " + U64(s.barrier_stall);
    out += ", \"bank_conflict\": " + U64(s.bank_conflict_replays);
    out += ", \"divergence\": " + U64(s.divergence_replays);
    out += "}}";
  }
  if (!samples.empty()) out += "\n    ";
  out += "]\n";
  out += "  }\n";
}

}  // namespace

std::string FormatMetricsJson(const EnsembleOptions& options,
                              const std::string& device,
                              const dgcf::RunResult& run,
                              const sim::Profiler* profiler) {
  std::string out = "{\n";
  out += "  \"schema\": \"dgc-metrics-v1\",\n";
  out += "  \"app\": \"" + JsonEscape(options.app) + "\",\n";
  out += "  \"device\": \"" + JsonEscape(device) + "\",\n";
  out += "  \"thread_limit\": " + U64(options.thread_limit) + ",\n";
  out += "  \"instances\": " + U64(run.instances.size()) + ",\n";
  out += "  \"teams_per_block\": " + U64(options.teams_per_block) + ",\n";
  out += "  \"waves\": " + U64(run.waves) + ",\n";
  out += "  \"kernel_cycles\": " + U64(run.kernel_cycles) + ",\n";
  out += "  \"transfer_cycles\": " + U64(run.transfer_cycles) + ",\n";

  const sim::DeviceMemSnapshot& mem = run.device_mem;
  out += "  \"device_mem\": {\n";
  out += "    \"capacity\": " + U64(mem.capacity) + ",\n";
  out += "    \"peak_bytes\": " + U64(mem.peak_bytes) + ",\n";
  out += "    \"bytes_in_use\": " + U64(mem.bytes_in_use) + ",\n";
  out += "    \"allocation_count\": " + U64(mem.allocation_count) + ",\n";
  out += "    \"shared_live\": " + U64(mem.shared_live) + ",\n";
  out += "    \"shared_materialized\": " + U64(mem.shared_materialized) + ",\n";
  out += "    \"shared_attaches\": " + U64(mem.shared_attaches) + ",\n";
  out += "    \"shared_bytes_saved\": " + U64(mem.shared_bytes_saved) + "\n";
  out += "  },\n";

  out += "  \"launch\": {\n";
  AppendCounters(out, "    ", run.stats, /*derived=*/true);
  out += "  },\n";

  // Per-instance section: run.instance_stats entry 0 is the unattributed
  // slot; instance i (when present) sits at entry i + 1 by construction.
  out += "  \"per_instance\": [";
  bool first = true;
  for (std::size_t i = 0; i < run.instances.size(); ++i) {
    const dgcf::InstanceResult& inst = run.instances[i];
    sim::LaunchStats stats;  // zero when the run carried no attribution
    if (i + 1 < run.instance_stats.size()) {
      stats = run.instance_stats[i + 1].stats;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\n";
    out += "      \"instance\": " + U64(i) + ",\n";
    out += std::string("      \"completed\": ") +
           (inst.completed ? "true" : "false") + ",\n";
    out += "      \"exit_code\": " + StrFormat("%d", inst.exit_code) + ",\n";
    out += "      \"reason\": \"" +
           JsonEscape(dgcf::ToString(inst.reason)) + "\",\n";
    out += "      \"attempts\": " + U64(inst.attempts) + ",\n";
    out += "      \"mem_peak_bytes\": " + U64(inst.mem_peak_bytes) + ",\n";
    out += "      \"mem_allocations\": " + U64(inst.mem_allocations) + ",\n";
    AppendCounters(out, "      ", stats, /*derived=*/true);
    out += "    }";
  }
  if (!first) out += "\n  ";
  out += "],\n";

  if (!run.instance_stats.empty()) {
    out += "  \"unattributed\": {\n";
    AppendCounters(out, "    ", run.instance_stats[0].stats,
                   /*derived=*/false);
    out += "  },\n";
  } else {
    out += "  \"unattributed\": null,\n";
  }

  if (profiler != nullptr) {
    AppendTimeline(out, *profiler);
  } else {
    out += "  \"timeline\": null\n";
  }
  out += "}\n";
  return out;
}

Status WriteMetricsJson(const std::string& path,
                        const EnsembleOptions& options,
                        const std::string& device, const dgcf::RunResult& run,
                        const sim::Profiler* profiler) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status(ErrorCode::kInvalidArgument, "cannot write " + path);
  }
  out << FormatMetricsJson(options, device, run, profiler);
  return Status::Ok();
}

}  // namespace dgc::ensemble
