// Shared configuration of the Figure 6 reproduction harnesses.
//
// Workloads are scaled 1/512 relative to the paper's A100-40GB testbed
// (capacities AND caches scale together; see DESIGN.md §2/§4), so absolute
// cycle counts are not comparable — the *relative speedups* are.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "apps/common.h"
#include "ensemble/experiment.h"
#include "gpusim/device_spec.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace dgc::bench {

/// Parses the bench binaries' shared command line: `--jobs N` (sweep
/// worker threads; default one per hardware thread, `--jobs 1` is the
/// fully serial run — output is identical either way). Exits on bad usage.
inline std::uint32_t ParseJobsFlag(int argc, char** argv) {
  std::uint32_t jobs = DefaultThreads();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      const auto value = ParseInt(argv[++i]);
      if (!value.ok() || *value < 1) {
        std::fprintf(stderr, "bad --jobs value '%s' (want a count >= 1)\n",
                     argv[i]);
        std::exit(2);
      }
      jobs = std::uint32_t(*value);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--jobs N]\n"
                  "  --jobs N  concurrent sweep points (default: %u, the\n"
                  "            hardware thread count; 1 = serial)\n",
                  argv[0], DefaultThreads());
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s' (see --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return jobs;
}

/// Structured per-point progress on stderr so long sweeps are observable.
inline ensemble::SweepOptions PanelSweepOptions(std::uint32_t jobs) {
  ensemble::SweepOptions options;
  options.jobs = jobs;
  options.progress = [](const ensemble::SweepPointEvent& e) {
    if (e.kind == ensemble::SweepPointEvent::Kind::kStarted) {
      std::fprintf(stderr, "[sweep] %s tl=%u n=%u started (%zu/%zu started)\n",
                   e.app.c_str(), e.thread_limit, e.instances,
                   e.points_started, e.points_total);
    } else {
      std::fprintf(stderr,
                   "[sweep] %s tl=%u n=%u %s in %.2fs (%zu/%zu finished)\n",
                   e.app.c_str(), e.thread_limit, e.instances,
                   e.ran ? "finished" : "skipped", e.wall_seconds,
                   e.points_finished, e.points_total);
    }
  };
  return options;
}

inline sim::DeviceSpec Fig6Spec() { return sim::DeviceSpec::A100_40GB(512); }

struct Fig6Benchmark {
  const char* app;
  std::function<std::vector<std::string>(std::uint32_t)> args_for_instance;
  std::vector<std::uint32_t> instance_counts;
};

/// The paper's four benchmarks with per-instance seeds (each instance runs
/// on a different input, §1). Page-Rank includes the 8-instance point so
/// the harness demonstrates the out-of-memory boundary the paper reports.
inline std::vector<Fig6Benchmark> Fig6Benchmarks() {
  return {
      {"xsbench",
       [](std::uint32_t i) {
         return std::vector<std::string>{"-i", "24",   "-g", "256",
                                         "-l", "2048", "-s", StrFormat("%u", i + 1)};
       },
       {1, 2, 4, 8, 16, 32, 64}},
      {"rsbench",
       [](std::uint32_t i) {
         return std::vector<std::string>{"-u", "24", "-w", "16",
                                         "-p", "8",  "-l", "2048",
                                         "-s", StrFormat("%u", i + 1)};
       },
       {1, 2, 4, 8, 16, 32, 64}},
      {"amgmk",
       [](std::uint32_t i) {
         return std::vector<std::string>{"-x", "14", "-y", "14", "-z", "14",
                                         "-s", StrFormat("%u", i + 1)};
       },
       {1, 2, 4, 8, 16, 32, 64}},
      {"pagerank",
       [](std::uint32_t i) {
         return std::vector<std::string>{"-g", "200000", "-d", "10",
                                         "-s", StrFormat("%u", i + 1)};
       },
       {1, 2, 4, 8}},
  };
}

/// Runs one panel of Fig. 6 — all four benchmarks as one pool of
/// independent point-jobs — and returns the series for the qualitative
/// checks. Deterministic for any job count.
inline std::vector<ensemble::SpeedupSeries> RunFig6Panel(
    std::uint32_t thread_limit, std::uint32_t jobs = 1) {
  apps::RegisterAllApps();
  std::vector<ensemble::ExperimentConfig> configs;
  for (const Fig6Benchmark& b : Fig6Benchmarks()) {
    ensemble::ExperimentConfig cfg;
    cfg.app = b.app;
    cfg.args_for_instance = b.args_for_instance;
    cfg.instance_counts = b.instance_counts;
    cfg.thread_limit = thread_limit;
    cfg.spec = Fig6Spec();
    configs.push_back(std::move(cfg));
  }
  auto all = ensemble::RunSweeps(configs, PanelSweepOptions(jobs));
  if (!all.ok()) {
    std::fprintf(stderr, "panel failed: %s\n", all.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*all);
}

/// Asserts the qualitative claims of §4.3 on a panel; aborts on violation
/// so the bench doubles as a regression gate.
inline void CheckPanel(const std::vector<ensemble::SpeedupSeries>& series,
                       std::uint32_t thread_limit) {
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "FIG6 CHECK FAILED (tl=%u): %s\n", thread_limit,
                 what.c_str());
    std::exit(1);
  };
  for (const auto& s : series) {
    double prev = 0;
    for (const auto& p : s.points) {
      if (!p.ran) continue;
      // Sub-linear: speedup never exceeds the instance count.
      if (p.speedup > double(p.instances) * 1.005) {
        fail(s.app + " is super-linear");
      }
      // Monotone growth with more instances.
      if (p.speedup + 0.35 < prev) fail(s.app + " speedup regressed");
      prev = std::max(prev, p.speedup);
    }
  }
  // Page-Rank hits the device memory limit past 4 instances (§4.3).
  for (const auto& s : series) {
    if (s.app != "pagerank") continue;
    for (const auto& p : s.points) {
      if (p.instances <= 4 && !p.ran) fail("pagerank OOM below 4 instances");
      if (p.instances > 4 && p.ran) fail("pagerank exceeded the memory cap");
    }
  }
}

/// Writes the panel's CSV next to the binary's working directory.
inline void ExportPanelCsv(const std::vector<ensemble::SpeedupSeries>& series,
                           std::uint32_t thread_limit) {
  const std::string path =
      StrFormat("fig6%s.csv", thread_limit == 32 ? "a" : "b");
  const Status s = ensemble::WriteSpeedupCsv(series, path);
  if (s.ok()) {
    std::printf("csv written: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "csv export failed: %s\n", s.ToString().c_str());
  }
}

inline void PrintPanel(const std::vector<ensemble::SpeedupSeries>& series,
                       std::uint32_t thread_limit) {
  std::printf("Figure 6%s — relative speedup T1*N/TN, thread limit %u\n",
              thread_limit == 32 ? "a" : "b", thread_limit);
  std::printf("device: %s\n\n", Fig6Spec().name.c_str());
  std::printf("%s", ensemble::FormatSpeedupTable(series).c_str());
  double best = 0;
  for (const auto& s : series) best = std::max(best, s.MaxSpeedup());
  std::printf("\nmax speedup at this thread limit: %.1fX (paper: up to 51X)\n",
              best);
}

}  // namespace dgc::bench
