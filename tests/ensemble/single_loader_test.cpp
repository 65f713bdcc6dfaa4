// The single-instance loader (dgcf::RunSingleInstance) — the T1 baseline,
// which is the ensemble loader with one argument row. Besides the loader
// contract, the plain runs of the four apps are pinned by golden documents
// (tests/testdata/single_<app>.txt) whose content was first pinned on the
// separate single-instance launch path this wrapper replaced: the merge
// must not move a cycle, a counter or a byte of output.
#include <gtest/gtest.h>

#include <string_view>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"
#include "golden.h"
#include "support/str.h"

namespace dgc::dgcf {
namespace {

using sim::Device;
using sim::DeviceSpec;

struct Env {
  Device device{DeviceSpec::TestDevice()};
  RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv app_env{&device, &rpc, &libc};
};

TEST(SingleLoader, RunsAppEndToEnd) {
  Env env;
  SingleRunOptions opt;
  opt.app = "testapp";
  opt.args = {"-n", "500", "-x", "2.0"};
  opt.thread_limit = 64;
  auto run = RunSingleInstance(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), 1u);
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].exit_code, kExitOk);
  EXPECT_EQ(env.rpc.stdout_text(), "sum=1000.0\n");
  EXPECT_GT(run->kernel_cycles, 0u);
  EXPECT_GT(run->transfer_cycles, 0u);
  EXPECT_TRUE(run->all_ok());
}

TEST(SingleLoader, MemcheckCleanOnCorrectApp) {
  Env env;
  sim::Memcheck memcheck;
  memcheck.Attach(env.device.memory());
  SingleRunOptions opt;
  opt.app = "testapp";
  opt.args = {"-n", "500", "-x", "2.0"};
  opt.thread_limit = 64;
  opt.memcheck = &memcheck;
  auto run = RunSingleInstance(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
  EXPECT_TRUE(run->memcheck.clean()) << run->memcheck.ToString();
  EXPECT_EQ(run->stats.memcheck_findings, 0u);
}

TEST(SingleLoader, UsageErrorSurfacesAsExitCode) {
  Env env;
  SingleRunOptions opt;
  opt.app = "testapp";
  opt.args = {"--bogus"};
  opt.thread_limit = 32;
  auto run = RunSingleInstance(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].exit_code, kExitUsage);
  EXPECT_FALSE(run->all_ok());
}

TEST(SingleLoader, OomSurfacesAsExitCode) {
  Env env;
  SingleRunOptions opt;
  opt.app = "testapp";
  // 64 MiB test device: ask for 100M doubles.
  opt.args = {"-n", "100000000"};
  opt.thread_limit = 32;
  auto run = RunSingleInstance(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->instances[0].exit_code, kExitNoMem);
}

TEST(SingleLoader, UnknownAppFails) {
  Env env;
  SingleRunOptions opt;
  opt.app = "missing";
  auto run = RunSingleInstance(env.app_env, opt);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kNotFound);
}

TEST(SingleLoader, ThreadLimitChangesParallelPerformance) {
  Env env;
  auto time_with = [&](std::uint32_t tl) {
    SingleRunOptions opt;
    opt.app = "testapp";
    opt.args = {"-n", "20000"};
    opt.thread_limit = tl;
    auto run = RunSingleInstance(env.app_env, opt);
    EXPECT_TRUE(run.ok());
    return run->kernel_cycles;
  };
  const auto t1 = time_with(1);
  const auto t64 = time_with(64);
  EXPECT_GT(t1, t64);  // the parallel fill/reduce dominates
}

TEST(SingleLoader, PlainRunsOfTheFourAppsMatchPinnedDigests) {
  apps::RegisterAllApps();
  struct Case {
    const char* app;
    std::vector<std::string> args;
  };
  const Case cases[] = {
      {"xsbench", {"-i", "8", "-g", "64", "-l", "256"}},
      {"rsbench", {"-u", "8", "-w", "8", "-l", "256"}},
      {"amgmk", {"-x", "6", "-y", "6", "-z", "6"}},
      {"pagerank", {"-g", "2000", "-d", "4"}},
  };
  for (const Case& c : cases) {
    Env env;
    SingleRunOptions opt{.app = c.app, .args = c.args, .thread_limit = 64};
    auto run = RunSingleInstance(env.app_env, opt);
    ASSERT_TRUE(run.ok()) << c.app << ": " << run.status().ToString();
    EXPECT_TRUE(run->all_ok()) << c.app;
    // The kernel cycles, the LaunchStats rendering and the stdout.
    ExpectGolden(StrFormat("%llu\n", (unsigned long long)run->kernel_cycles) +
                     run->stats.ToString() + env.rpc.stdout_text(),
                 StrFormat("single_%s.txt", c.app));
  }
}

}  // namespace
}  // namespace dgc::dgcf
