// Determinism harness for the hot-path optimizations (ctest label: perf).
//
// The simulator's speed work (warp scratch reuse, coalescer fast path,
// masked cache indexing, duplicate wake-up suppression) is gated by a
// byte-identical-stats bar: a fig6a-style sweep at small scale must render
// the same CSV and the same dgc-metrics-v1 sidecars whether the coalescer
// runs its optimized path or the scalar reference, and for any --jobs
// value — the same bar RunSweeps already meets.
#include <gtest/gtest.h>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/experiment.h"
#include "ensemble/loader.h"
#include "ensemble/metrics.h"
#include "gpusim/coalesce.h"
#include "gpusim/device.h"
#include "gpusim/profiler.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

/// fig6a methodology (thread limit 32, per-instance seeds) shrunk to test
/// scale: the paper's two lookup benchmarks on the test device, plus
/// multi-warp amgmk and pagerank legs.
std::vector<ExperimentConfig> SmallFig6aConfigs() {
  std::vector<ExperimentConfig> configs;
  ExperimentConfig xs;
  xs.app = "xsbench";
  xs.args_for_instance = [](std::uint32_t i) {
    return std::vector<std::string>{"-i", "8",  "-g", "64",
                                    "-l", "96", "-s", StrFormat("%u", i + 1)};
  };
  xs.instance_counts = {1, 2, 4};
  xs.thread_limit = 32;
  xs.spec = sim::DeviceSpec::TestDevice();
  xs.profile = true;
  configs.push_back(xs);

  ExperimentConfig rs;
  rs.app = "rsbench";
  rs.args_for_instance = [](std::uint32_t i) {
    return std::vector<std::string>{"-u", "6",  "-w", "4",
                                    "-l", "64", "-s", StrFormat("%u", i + 1)};
  };
  rs.instance_counts = {1, 2, 4};
  rs.thread_limit = 32;
  rs.spec = sim::DeviceSpec::TestDevice();
  rs.profile = true;
  configs.push_back(rs);

  // Multi-warp leg: thread limit 64 puts two warps in every block, so the
  // panel also covers block barriers, shared memory and sibling warps.
  ExperimentConfig amg;
  amg.app = "amgmk";
  amg.args_for_instance = [](std::uint32_t i) {
    return std::vector<std::string>{"-x", "8", "-y", "8", "-z", "8",
                                    "-w", "2", "-s", StrFormat("%u", i + 1)};
  };
  amg.instance_counts = {1, 2, 4};
  amg.thread_limit = 64;
  amg.spec = sim::DeviceSpec::TestDevice();
  amg.profile = true;
  configs.push_back(amg);

  // Irregular leg: pagerank's CSR neighbour lists issue wide gathers whose
  // addresses scatter, so the panel also covers the coalescer's unsorted
  // batch path.
  ExperimentConfig pr;
  pr.app = "pagerank";
  pr.args_for_instance = [](std::uint32_t i) {
    return std::vector<std::string>{"-g", "2000", "-d", "8",
                                    "-s", StrFormat("%u", i + 1)};
  };
  pr.instance_counts = {1, 2, 4};
  pr.thread_limit = 64;
  pr.spec = sim::DeviceSpec::TestDevice();
  pr.profile = true;
  configs.push_back(pr);
  return configs;
}

struct PanelRender {
  std::string csv;
  std::vector<std::string> sidecars;  ///< dgc-metrics-v1 per ran point
};

PanelRender RunPanel(std::uint32_t jobs, bool fast_path) {
  apps::RegisterAllApps();
  const bool was = sim::SetCoalesceFastPath(fast_path);
  SweepOptions options;
  options.jobs = jobs;
  auto series = RunSweeps(SmallFig6aConfigs(), options);
  sim::SetCoalesceFastPath(was);
  EXPECT_TRUE(series.ok()) << series.status().ToString();
  PanelRender render;
  if (!series.ok()) return render;
  render.csv = FormatSpeedupCsv(*series);
  for (const auto& s : *series) {
    for (const auto& p : s.points) {
      EXPECT_TRUE(p.ran) << s.app << " n=" << p.instances << ": " << p.note;
      render.sidecars.push_back(p.metrics_json);
    }
  }
  return render;
}

TEST(PerfDeterminism, FastPathMatchesScalarReferenceEndToEnd) {
  const PanelRender fast = RunPanel(/*jobs=*/1, /*fast_path=*/true);
  const PanelRender scalar = RunPanel(/*jobs=*/1, /*fast_path=*/false);
  EXPECT_EQ(fast.csv, scalar.csv);
  ASSERT_EQ(fast.sidecars.size(), scalar.sidecars.size());
  for (std::size_t i = 0; i < fast.sidecars.size(); ++i) {
    EXPECT_EQ(fast.sidecars[i], scalar.sidecars[i]) << "sidecar " << i;
  }
}

TEST(PerfDeterminism, JobsCountDoesNotChangeOutput) {
  const PanelRender serial = RunPanel(/*jobs=*/1, /*fast_path=*/true);
  const PanelRender parallel = RunPanel(/*jobs=*/4, /*fast_path=*/true);
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_EQ(serial.sidecars.size(), parallel.sidecars.size());
  for (std::size_t i = 0; i < serial.sidecars.size(); ++i) {
    EXPECT_EQ(serial.sidecars[i], parallel.sidecars[i]) << "sidecar " << i;
  }
}

TEST(PerfDeterminism, ScalarPathUnderParallelJobsStillIdentical) {
  // Crossed axes: the toggle is process-wide, so exercise scalar × jobs=4
  // against the fast × jobs=1 reference too.
  const PanelRender reference = RunPanel(/*jobs=*/1, /*fast_path=*/true);
  const PanelRender crossed = RunPanel(/*jobs=*/4, /*fast_path=*/false);
  EXPECT_EQ(reference.csv, crossed.csv);
  ASSERT_EQ(reference.sidecars.size(), crossed.sidecars.size());
  for (std::size_t i = 0; i < reference.sidecars.size(); ++i) {
    EXPECT_EQ(reference.sidecars[i], crossed.sidecars[i]) << "sidecar " << i;
  }
}

TEST(PerfDeterminism, SingleEnsembleLaunchStatsIdenticalAcrossPaths) {
  // One profiled ensemble launch, compared counter-for-counter via the
  // metrics document (it serializes every LaunchStats field, launch-global
  // and per-instance).
  apps::RegisterAllApps();
  auto run_once = [](bool fast_path) {
    const bool was = sim::SetCoalesceFastPath(fast_path);
    sim::Device device(sim::DeviceSpec::TestDevice());
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    sim::Profiler profiler;
    EnsembleOptions opt;
    opt.app = "xsbench";
    for (int i = 0; i < 4; ++i) {
      opt.instance_args.push_back(
          {"-i", "8", "-g", "64", "-l", "96", "-s", StrFormat("%d", i + 1)});
    }
    opt.thread_limit = 32;
    opt.profiler = &profiler;
    auto run = RunEnsemble(env, opt);
    sim::SetCoalesceFastPath(was);
    EXPECT_TRUE(run.ok());
    return FormatMetricsJson(opt, device.spec().name, *run, &profiler);
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

}  // namespace
}  // namespace dgc::ensemble
