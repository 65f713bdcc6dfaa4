// The Figure 6 workloads: the paper's four benchmarks, their flags and
// instance counts, on the Fig. 6 device. Every figure of the `figures`
// harness that runs them reads this one table.
//
// Workloads are scaled 1/512 relative to the paper's A100-40GB testbed
// (capacities AND caches scale together; see DESIGN.md §2/§4), so absolute
// cycle counts are not comparable — the *relative speedups* are.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ensemble/experiment.h"
#include "gpusim/device_spec.h"
#include "support/status.h"
#include "support/str.h"

namespace dgc::bench {

inline sim::DeviceSpec Fig6Spec() { return sim::DeviceSpec::A100_40GB(512); }

struct Fig6Workload {
  const char* app;
  std::vector<std::string> flags;  ///< every instance's flags but its seed
  std::vector<std::uint32_t> instance_counts;
};

/// Page-Rank stops at 8 instances so the figure shows the out-of-memory
/// boundary the paper reports.
inline const std::vector<Fig6Workload>& Fig6Workloads() {
  static const std::vector<Fig6Workload> kWorkloads = {
      {"xsbench", {"-i", "24", "-g", "256", "-l", "2048"},
       {1, 2, 4, 8, 16, 32, 64}},
      {"rsbench", {"-u", "24", "-w", "16", "-p", "8", "-l", "2048"},
       {1, 2, 4, 8, 16, 32, 64}},
      {"amgmk", {"-x", "14", "-y", "14", "-z", "14"}, {1, 2, 4, 8, 16, 32, 64}},
      {"pagerank", {"-g", "200000", "-d", "10"}, {1, 2, 4, 8}},
  };
  return kWorkloads;
}

inline const Fig6Workload& FindFig6Workload(std::string_view app) {
  const std::vector<Fig6Workload>& all = Fig6Workloads();
  auto it = std::find_if(all.begin(), all.end(),
                         [&](const Fig6Workload& w) { return w.app == app; });
  DGC_CHECK_MSG(it != all.end(), "no Fig. 6 workload " + std::string(app));
  return *it;
}

/// One sweep of `w` on the Fig. 6 device. Instance i runs with seed i + 1,
/// so each instance works on a different input (§1).
inline ensemble::ExperimentConfig Fig6Config(const Fig6Workload& w,
                                             std::uint32_t thread_limit) {
  ensemble::ExperimentConfig cfg;
  cfg.app = w.app;
  cfg.args_for_instance = [flags = w.flags](std::uint32_t i) {
    std::vector<std::string> args = flags;
    args.push_back("-s");
    args.push_back(StrFormat("%u", i + 1));
    return args;
  };
  cfg.instance_counts = w.instance_counts;
  cfg.thread_limit = thread_limit;
  cfg.spec = Fig6Spec();
  return cfg;
}

}  // namespace dgc::bench
