// Fault-tolerant ensemble execution, end to end: a trapping or hanging
// instance is contained to its own InstanceResult while siblings run to
// completion; retry-relaunch recovers recoverable instances on a smaller
// wave; and fault-injected sweeps stay byte-identical for any --jobs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/experiment.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "ompx/team.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

using dgcf::AppEnv;
using dgcf::DeviceArgv;
using dgcf::DeviceLibc;
using dgcf::TerminationReason;
using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::FaultPlan;
using sim::ThreadCtx;

struct Env {
  Device device{DeviceSpec::TestDevice()};
  dgcf::RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv app_env{&device, &rpc, &libc};
};

// A fault-probe app, one failure mode per flag:
//   -x <code>  return <code> (a *completed* execution, never retried)
//   -h         hang: spin forever (killed by a watchdog)
//   -o         allocate via the unchecked-malloc path (traps on OOM)
//   -a         call abort()
//   -p         printf via RPC; returns 7 when the RPC call fails
//   -w <n>     n units of well-behaved compute (the default citizen)
DeviceTask<int> FaultProbeMain(AppEnv& env, TeamCtx& team, int argc,
                               DeviceArgv argv) {
  ThreadCtx& ctx = *team.hw;
  for (int i = 1; i < argc; ++i) {
    if (DeviceLibc::StrCmp(argv[i], "-x") == 0 && i + 1 < argc) {
      co_return int(std::strtol(DeviceLibc::ToString(argv[++i]).c_str(),
                                nullptr, 10));
    } else if (DeviceLibc::StrCmp(argv[i], "-h") == 0) {
      while (true) co_await ctx.Work(100);
    } else if (DeviceLibc::StrCmp(argv[i], "-o") == 0) {
      auto buf = co_await env.libc->MallocOrTrap(ctx, 256);
      co_await env.libc->Free(ctx, buf.addr);
    } else if (DeviceLibc::StrCmp(argv[i], "-a") == 0) {
      DeviceLibc::Abort();
    } else if (DeviceLibc::StrCmp(argv[i], "-p") == 0) {
      const int n = co_await env.rpc->Print(ctx, "probe\n");
      if (n < 0) co_return 7;
    } else if (DeviceLibc::StrCmp(argv[i], "-w") == 0 && i + 1 < argc) {
      const long reps =
          std::strtol(DeviceLibc::ToString(argv[++i]).c_str(), nullptr, 10);
      for (long r = 0; r < reps; ++r) co_await ctx.Work(50);
    } else {
      co_return dgcf::kExitUsage;
    }
  }
  co_return 0;
}

DGC_REGISTER_APP(faultprobe, "fault-injection probe", FaultProbeMain)

// The acceptance scenario: 8 instances, instance 2 hits an injected OOM
// trap, instance 5 hangs until the per-instance watchdog kills it, the
// other six run to completion.
EnsembleOptions MixedOptions() {
  EnsembleOptions opt;
  opt.app = "faultprobe";
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i == 2) opt.instance_args.push_back({"-o"});
    else if (i == 5) opt.instance_args.push_back({"-h"});
    else opt.instance_args.push_back({"-w", "20"});
  }
  opt.thread_limit = 8;
  opt.instance_watchdog_cycles = 100000;
  return opt;
}

TEST(FaultEnsemble, MixedOutcomesAreContainedPerInstance) {
  Env env;
  auto plan = *FaultPlan::Parse("malloc-fail@1");
  auto opt = MixedOptions();
  opt.faults = &plan;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), 8u);
  EXPECT_EQ(run->waves, 1u);

  // The injected-OOM instance.
  EXPECT_FALSE(run->instances[2].completed);
  EXPECT_EQ(run->instances[2].reason, TerminationReason::kTrapOOM);
  EXPECT_NE(run->instances[2].detail.find("malloc"), std::string::npos);
  EXPECT_EQ(run->instances[2].attempts, 1u);

  // The hung instance, retired by the per-instance watchdog.
  EXPECT_FALSE(run->instances[5].completed);
  EXPECT_EQ(run->instances[5].reason, TerminationReason::kWatchdog);
  EXPECT_EQ(run->instances[5].attempts, 1u);

  // Six siblings exit 0, untouched.
  std::set<TerminationReason> failure_reasons;
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i == 2 || i == 5) {
      failure_reasons.insert(run->instances[i].reason);
      continue;
    }
    EXPECT_TRUE(run->instances[i].completed) << i;
    EXPECT_EQ(run->instances[i].exit_code, 0) << i;
    EXPECT_EQ(run->instances[i].reason, TerminationReason::kReturned) << i;
    EXPECT_GT(run->instances[i].cycles, 0u) << i;
  }
  EXPECT_EQ(failure_reasons.size(), 2u);  // two distinct reasons
  EXPECT_FALSE(run->all_ok());

  // Failures name their owning instance.
  bool oom_attributed = false, watchdog_attributed = false;
  for (const std::string& f : run->failures) {
    if (f.find("instance=2") != std::string::npos) oom_attributed = true;
    if (f.find("instance=5") != std::string::npos) watchdog_attributed = true;
  }
  EXPECT_TRUE(oom_attributed);
  EXPECT_TRUE(watchdog_attributed);
  EXPECT_GE(run->stats.watchdog_traps, 1u);
}

TEST(FaultEnsemble, RetryRecoversTheOomInstanceOnASmallerWave) {
  Env env;
  auto plan = *FaultPlan::Parse("malloc-fail@1");
  auto opt = MixedOptions();
  opt.faults = &plan;
  opt.max_attempts = 2;
  opt.retry_shrink = 2;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->waves, 2u);

  // The injected allocation failure was consumed in wave 1, so the retry's
  // malloc succeeds: the instance recovers.
  EXPECT_TRUE(run->instances[2].completed);
  EXPECT_EQ(run->instances[2].exit_code, 0);
  EXPECT_EQ(run->instances[2].reason, TerminationReason::kReturned);
  EXPECT_EQ(run->instances[2].attempts, 2u);

  // The hang is deterministic: the watchdog kills it again.
  EXPECT_FALSE(run->instances[5].completed);
  EXPECT_EQ(run->instances[5].reason, TerminationReason::kWatchdog);
  EXPECT_EQ(run->instances[5].attempts, 2u);
  EXPECT_FALSE(run->all_ok());
}

TEST(FaultEnsemble, RetryWaveLeavesFirstWaveSiblingsUntouched) {
  // The first wave must be identical whether or not a retry follows it:
  // run the mixed ensemble with and without retry and compare the
  // successful siblings' results cycle for cycle.
  auto run_with = [](std::uint32_t attempts) {
    Env env;
    auto plan = *FaultPlan::Parse("malloc-fail@1");
    auto opt = MixedOptions();
    opt.faults = &plan;
    opt.max_attempts = attempts;
    auto run = RunEnsemble(env.app_env, opt);
    EXPECT_TRUE(run.ok());
    return *run;
  };
  const dgcf::RunResult base = run_with(1);
  const dgcf::RunResult retried = run_with(2);
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i == 2 || i == 5) continue;
    EXPECT_EQ(base.instances[i].exit_code, retried.instances[i].exit_code) << i;
    EXPECT_EQ(base.instances[i].completed, retried.instances[i].completed) << i;
    EXPECT_EQ(base.instances[i].cycles, retried.instances[i].cycles) << i;
    EXPECT_EQ(base.instances[i].attempts, retried.instances[i].attempts) << i;
  }
}

TEST(FaultEnsemble, NonzeroExitIsCompletedAndNeverRetried) {
  Env env;
  EnsembleOptions opt;
  opt.app = "faultprobe";
  opt.instance_args = {{"-x", "3"}, {"-w", "5"}};
  opt.thread_limit = 4;
  opt.max_attempts = 3;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->waves, 1u);  // nothing retryable: one wave only
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].exit_code, 3);
  EXPECT_EQ(run->instances[0].attempts, 1u);
  EXPECT_FALSE(run->all_ok());  // nonzero exit still fails the run
}

TEST(FaultEnsemble, AbortTrapsAreContainedAndAttributed) {
  Env env;
  EnsembleOptions opt;
  opt.app = "faultprobe";
  opt.instance_args = {{"-w", "5"}, {"-a"}, {"-w", "5"}};
  opt.thread_limit = 4;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->instances[1].completed);
  EXPECT_EQ(run->instances[1].reason, TerminationReason::kTrapAbort);
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_TRUE(run->instances[2].completed);
}

TEST(FaultEnsemble, RpcFailureIsAnErrnoReturnNotACrash) {
  Env env;
  auto plan = *FaultPlan::Parse("rpc-fail@1");
  EnsembleOptions opt;
  opt.app = "faultprobe";
  opt.instance_args = {{"-p"}};
  opt.thread_limit = 4;
  opt.faults = &plan;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  // The app sees -1 from the failed printf and turns it into exit 7 — a
  // completed execution.
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].exit_code, 7);
  EXPECT_TRUE(env.rpc.stdout_text().empty());  // the print never landed
}

TEST(FaultEnsemble, SameSeedSameResultsAcrossRuns) {
  auto run_once = [] {
    Env env;
    auto plan = *FaultPlan::Parse("seed@9;malloc-fail@1");
    auto opt = MixedOptions();
    opt.faults = &plan;
    opt.max_attempts = 2;
    auto run = RunEnsemble(env.app_env, opt);
    EXPECT_TRUE(run.ok());
    return *run;
  };
  const dgcf::RunResult a = run_once();
  const dgcf::RunResult b = run_once();
  EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
  EXPECT_EQ(a.waves, b.waves);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].exit_code, b.instances[i].exit_code) << i;
    EXPECT_EQ(a.instances[i].cycles, b.instances[i].cycles) << i;
    EXPECT_EQ(int(a.instances[i].reason), int(b.instances[i].reason)) << i;
    EXPECT_EQ(a.instances[i].attempts, b.instances[i].attempts) << i;
  }
  EXPECT_EQ(a.failures, b.failures);
}

// --- Single-instance loader containment --------------------------------------

TEST(FaultSingle, AbortIsContainedWithAReason) {
  Env env;
  dgcf::SingleRunOptions opt;
  opt.app = "faultprobe";
  opt.args = {"-a"};
  opt.thread_limit = 4;
  auto run = dgcf::RunSingleInstance(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].reason, TerminationReason::kTrapAbort);
  EXPECT_NE(run->instances[0].detail.find("abort"), std::string::npos);
  EXPECT_FALSE(run->all_ok());
  ASSERT_FALSE(run->failures.empty());
  EXPECT_NE(run->failures[0].find("instance=0"), std::string::npos);
}

TEST(FaultSingle, WatchdogKillsAHungSingleInstance) {
  Env env;
  dgcf::SingleRunOptions opt;
  opt.app = "faultprobe";
  opt.args = {"-h"};
  opt.thread_limit = 4;
  opt.watchdog_cycles = 100000;
  auto run = dgcf::RunSingleInstance(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].reason, TerminationReason::kWatchdog);
}

TEST(FaultSingle, ContainedTrapIsFoldedIntoLaneTraps) {
  // XSBench at thread limit 64 (two warps). The trap kills warp 0 of the
  // only team: rank 0's trap is contained by the loader, its 31 sibling
  // lanes die. The run's stats count every trap that fired — 32 — as
  // `dgc-run -n 1` does.
  apps::RegisterAllApps();
  Env env;
  auto plan = *FaultPlan::Parse("trap@b0.w0.c3000");
  dgcf::SingleRunOptions opt{.app = "xsbench",
                             .args = {"-i", "8", "-g", "64", "-l", "256"},
                             .thread_limit = 64,
                             .faults = &plan};
  auto run = dgcf::RunSingleInstance(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].reason, TerminationReason::kTrapInjected);
  EXPECT_EQ(run->stats.lane_traps, 32u);
}

TEST(FaultSingle, AllOkIsFalseForAnEmptyRun) {
  // "No instance ran" must never read as success (documented contract).
  dgcf::RunResult empty;
  EXPECT_FALSE(empty.all_ok());
}

// --- Sweep-level behaviour ---------------------------------------------------

ExperimentConfig FaultSweepConfig() {
  ExperimentConfig cfg;
  cfg.app = "faultprobe";
  // Instance 3 allocates through the unchecked path; everyone else is pure
  // compute. With malloc-fail@1, the first device malloc of each point
  // fails — which is instance 3's, the only one that allocates. Points
  // with fewer than 4 instances never allocate and run clean.
  cfg.args_for_instance = [](std::uint32_t i) -> std::vector<std::string> {
    if (i == 3) return {"-o"};
    return {"-w", StrFormat("%u", 10 + i)};
  };
  cfg.instance_counts = {1, 2, 4, 8};
  cfg.thread_limit = 8;
  cfg.spec = DeviceSpec::TestDevice();
  cfg.inject_spec = "malloc-fail@1";
  return cfg;
}

TEST(FaultSweep, FaultingPointIsSkippedNotFatal) {
  auto series = MeasureSpeedup(FaultSweepConfig());
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->points.size(), 4u);
  EXPECT_TRUE(series->points[0].ran);   // n=1: no malloc, clean
  EXPECT_TRUE(series->points[1].ran);   // n=2: clean
  EXPECT_FALSE(series->points[2].ran);  // n=4: instance 3 traps
  EXPECT_FALSE(series->points[3].ran);  // n=8: instance 3 traps
  EXPECT_NE(series->points[2].note.find("failed"), std::string::npos);
  EXPECT_NE(series->points[2].note.find("instance=3"), std::string::npos);
}

TEST(FaultSweep, InjectedSweepIsByteIdenticalForAnyJobCount) {
  // Two series × four points, every point parsing its own FaultPlan: the
  // rendered CSV must not depend on how many worker threads ran the points.
  auto run_with_jobs = [](std::uint32_t jobs) {
    ExperimentConfig a = FaultSweepConfig();
    ExperimentConfig b = FaultSweepConfig();
    b.thread_limit = 4;
    SweepOptions options;
    options.jobs = jobs;
    auto series = RunSweeps({a, b}, options);
    EXPECT_TRUE(series.ok());
    return FormatSpeedupCsv(*series);
  };
  const std::string serial = run_with_jobs(1);
  const std::string parallel = run_with_jobs(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find(",0,,"), std::string::npos);  // skipped points present
}

TEST(FaultSweep, RetryInSweepRecoversInjectedPoint) {
  ExperimentConfig cfg = FaultSweepConfig();
  cfg.max_attempts = 2;
  cfg.retry_shrink = 2;
  auto series = MeasureSpeedup(cfg);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  // With a retry, the injected allocation failure is consumed in wave 1
  // and instance 3 recovers in wave 2: every point measures.
  for (const SpeedupPoint& p : series->points) {
    EXPECT_TRUE(p.ran) << "n=" << p.instances << ": " << p.note;
  }
}

}  // namespace
}  // namespace dgc::ensemble
