// Cross-module integration tests: the full stack (apps → ensemble loader →
// ompx → simulator) exercised as a user would, with parameterized sweeps
// over loader configurations and end-to-end properties from the paper.
#include <gtest/gtest.h>

#include "apps/amgmk.h"
#include "apps/common.h"
#include "apps/xsbench.h"
#include "dgcf/libc.h"
#include "dgcf/loader.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "support/str.h"

namespace dgc {
namespace {

struct LoaderSweepParam {
  const char* app;
  std::uint32_t instances;
  std::uint32_t thread_limit;
  std::uint32_t teams_per_block;
  std::uint32_t num_teams;  // 0 = one per instance
};

std::vector<std::string> ArgsFor(const std::string& app, std::uint32_t i) {
  if (app == "xsbench") {
    return {"-i", "6", "-g", "32", "-l", "64", "-s", StrFormat("%u", i + 1)};
  }
  if (app == "rsbench") {
    return {"-u", "6", "-w", "4", "-l", "64", "-s", StrFormat("%u", i + 1)};
  }
  if (app == "amgmk") {
    return {"-x", "4", "-y", "4", "-z", "4", "-s", StrFormat("%u", i + 1)};
  }
  return {"-g", "1500", "-d", "4", "-s", StrFormat("%u", i + 1)};  // pagerank
}

class LoaderSweep : public testing::TestWithParam<LoaderSweepParam> {
 protected:
  static void SetUpTestSuite() { apps::RegisterAllApps(); }
};

TEST_P(LoaderSweep, EveryInstanceVerifiesAgainstHostReference) {
  const LoaderSweepParam p = GetParam();
  sim::Device device(sim::DeviceSpec::TestDevice());
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};

  ensemble::EnsembleOptions opt;
  opt.app = p.app;
  for (std::uint32_t i = 0; i < p.instances; ++i) {
    opt.instance_args.push_back(ArgsFor(p.app, i));
  }
  opt.thread_limit = p.thread_limit;
  opt.teams_per_block = p.teams_per_block;
  opt.num_teams = p.num_teams;

  auto run = ensemble::RunEnsemble(env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), p.instances);
  for (std::uint32_t i = 0; i < p.instances; ++i) {
    EXPECT_TRUE(run->instances[i].completed) << "instance " << i;
    // Exit code 0 == the device kernel reproduced the host reference hash.
    EXPECT_EQ(run->instances[i].exit_code, 0) << "instance " << i;
  }
  EXPECT_EQ(run->failures.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, LoaderSweep,
    testing::Values(
        LoaderSweepParam{"xsbench", 1, 32, 1, 0},
        LoaderSweepParam{"xsbench", 6, 32, 1, 0},
        LoaderSweepParam{"xsbench", 6, 128, 1, 0},
        LoaderSweepParam{"xsbench", 8, 16, 4, 0},   // §3.1 mapping
        LoaderSweepParam{"xsbench", 8, 32, 1, 2},   // distribute, 4/team
        LoaderSweepParam{"rsbench", 6, 32, 1, 0},
        LoaderSweepParam{"rsbench", 8, 16, 2, 0},
        LoaderSweepParam{"rsbench", 5, 64, 1, 0},
        LoaderSweepParam{"amgmk", 4, 32, 1, 0},
        LoaderSweepParam{"amgmk", 6, 64, 1, 3},
        LoaderSweepParam{"amgmk", 4, 16, 2, 0},
        LoaderSweepParam{"pagerank", 3, 32, 1, 0},
        LoaderSweepParam{"pagerank", 4, 128, 1, 0},
        LoaderSweepParam{"pagerank", 4, 16, 4, 0}),
    [](const testing::TestParamInfo<LoaderSweepParam>& param_info) {
      return StrFormat("%s_n%u_t%u_m%u_teams%u", param_info.param.app,
                       param_info.param.instances, param_info.param.thread_limit,
                       param_info.param.teams_per_block, param_info.param.num_teams);
    });

// --- End-to-end paper properties ---------------------------------------------

class PaperProperties : public testing::Test {
 protected:
  static void SetUpTestSuite() { apps::RegisterAllApps(); }

  static std::uint64_t EnsembleCycles(const std::string& app,
                                      std::uint32_t instances,
                                      std::uint32_t thread_limit) {
    sim::Device device(sim::DeviceSpec::A100_40GB(512));
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    ensemble::EnsembleOptions opt;
    opt.app = app;
    for (std::uint32_t i = 0; i < instances; ++i) {
      opt.instance_args.push_back(ArgsFor(app, i));
    }
    opt.thread_limit = thread_limit;
    auto run = ensemble::RunEnsemble(env, opt);
    DGC_CHECK(run.ok());
    DGC_CHECK_MSG(run->all_ok(), "ensemble failed verification");
    return run->kernel_cycles;
  }
};

TEST_F(PaperProperties, EnsembleIsSubLinearButProfitable) {
  // T_N between T_1 (perfect overlap) and N*T_1 (no overlap) — and much
  // closer to T_1 (the paper's whole point).
  const auto t1 = EnsembleCycles("xsbench", 1, 32);
  const auto t8 = EnsembleCycles("xsbench", 8, 32);
  EXPECT_GE(t8, t1);
  EXPECT_LT(t8, 8 * t1);
  EXPECT_LT(t8, 2 * t1);  // ≥4x speedup at 8 instances
}

TEST_F(PaperProperties, ThreadLimit1024BeatsThreadLimit32PerInstance) {
  // §2.3: more threads per team speed up the parallel regions. Needs a
  // problem with enough parallelism to feed 1024 threads.
  auto cycles = [](std::uint32_t tl) {
    sim::Device device(sim::DeviceSpec::A100_40GB(512));
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    ensemble::EnsembleOptions opt;
    opt.app = "amgmk";
    opt.instance_args.push_back({"-x", "12", "-y", "12", "-z", "12"});
    opt.thread_limit = tl;
    auto run = ensemble::RunEnsemble(env, opt);
    DGC_CHECK(run.ok());
    DGC_CHECK_MSG(run->all_ok(), "verification failed");
    return run->kernel_cycles;
  };
  EXPECT_LT(cycles(1024), cycles(32));
}

TEST_F(PaperProperties, EnsembleKernelIsOneLaunch) {
  sim::Device device(sim::DeviceSpec::A100_40GB(512));
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};
  ensemble::EnsembleOptions opt;
  opt.app = "rsbench";
  for (std::uint32_t i = 0; i < 16; ++i) {
    opt.instance_args.push_back(ArgsFor("rsbench", i));
  }
  opt.thread_limit = 32;
  auto run = ensemble::RunEnsemble(env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->waves, 1u);
  EXPECT_EQ(run->stats.blocks_launched, 16u);
}

TEST_F(PaperProperties, WholeStackIsDeterministic) {
  const auto a = EnsembleCycles("amgmk", 4, 64);
  const auto b = EnsembleCycles("amgmk", 4, 64);
  EXPECT_EQ(a, b);
}

TEST_F(PaperProperties, InstanceResultsMatchSingleRuns) {
  // The exit code (host-reference check) of instance i in an ensemble
  // equals that of the same instance run alone — full isolation.
  apps::RegisterAllApps();
  sim::Device device(sim::DeviceSpec::TestDevice());
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};

  for (std::uint32_t i = 0; i < 4; ++i) {
    dgcf::SingleRunOptions single{.app = "xsbench",
                                  .args = ArgsFor("xsbench", i),
                                  .thread_limit = 32};
    auto run = dgcf::RunSingleInstance(env, single);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->instances[0].exit_code, 0) << i;
  }
}

}  // namespace
}  // namespace dgc
