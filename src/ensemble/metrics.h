// Machine-readable metrics export (the `--metrics-json` sidecar).
//
// Serializes a loader RunResult plus the profiler's per-instance
// attribution and utilization timeline into one stable JSON document that
// tools and CI can diff. The schema is versioned ("dgc-metrics-v1") and the
// field order is fixed — byte-identical output for identical runs is part
// of the contract (sweeps emit the same sidecar for any --jobs value).
//
// Document layout (all cycle values are simulated device cycles):
//   {
//     "schema": "dgc-metrics-v1",
//     "app": ..., "device": ..., "thread_limit": ...,
//     "instances": ..., "teams_per_block": ...,
//     "waves": ..., "kernel_cycles": ..., "transfer_cycles": ...,
//     "launch":       { <counters>, <derived rates> },   // launch-global
//     "per_instance": [ { "instance": I, "completed": ..., "exit_code": ...,
//                         "reason": ..., "attempts": ...,
//                         <counters>, <derived rates> }, ... ],
//     (an instance's end-to-end cycles are its "elapsed_cycles" counter)
//     "unattributed": { <counters> },    // work owned by no instance
//     "timeline": { "sample_interval": ..., "dropped_samples": ...,
//                   "samples": [ { "cycle": ..., "wave": ...,
//                                  "active_warps": ..., "resident_blocks": ...,
//                                  "warp_instructions": ...,
//                                  "dram_bw_occupancy": ...,
//                                  "l2_bw_occupancy": ...,
//                                  "stalls": { "dram_queue": ...,
//                                              "l2_queue": ..., "barrier": ...,
//                                              "bank_conflict": ...,
//                                              "divergence": ... } }, ... ] }
//   }
// Derived rates with a zero denominator serialize as null (mirrors the
// "n/a" rule in LaunchStats::ToString). "per_instance", "unattributed" and
// "timeline" degrade to [] / null when the run was not profiled.
#pragma once

#include <string>

#include "dgcf/loader.h"
#include "support/status.h"

namespace dgc::sim {
class Profiler;
}  // namespace dgc::sim

namespace dgc::ensemble {

struct EnsembleOptions;

/// Serializes the run that `options` launched on the device named
/// `device`; the header's instance count is the run's. `profiler` may be
/// null: the document then carries only the launch-global section (empty
/// per_instance, null timeline).
std::string FormatMetricsJson(const EnsembleOptions& options,
                              const std::string& device,
                              const dgcf::RunResult& run,
                              const sim::Profiler* profiler);

Status WriteMetricsJson(const std::string& path,
                        const EnsembleOptions& options,
                        const std::string& device, const dgcf::RunResult& run,
                        const sim::Profiler* profiler);

}  // namespace dgc::ensemble
