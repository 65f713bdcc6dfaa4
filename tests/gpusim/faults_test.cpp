// Trap containment, watchdog budgets, and deterministic fault injection at
// the simulator level: traps retire the faulting lane (recorded, counted)
// while the launch itself completes; deadlock is a launch *outcome*, not a
// process error; FaultPlan specs parse and fire exactly where they say.
#include <gtest/gtest.h>

#include <memory>

#include "gpusim/barrier.h"
#include "gpusim/block.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"

namespace dgc::sim {
namespace {

std::unique_ptr<Device> MakeDevice() {
  return std::make_unique<Device>(DeviceSpec::TestDevice());
}

// --- FaultPlan grammar -------------------------------------------------------

TEST(FaultPlan, ParsesEveryClause) {
  auto plan = FaultPlan::Parse(
      "seed@7; malloc-fail@3,5; rpc-fail@p25; trap@b1.w2.c5000; slow@b0.x4");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_EQ(plan->malloc_fail.ordinals, (std::vector<std::uint64_t>{3, 5}));
  EXPECT_EQ(plan->malloc_fail.p, 0.0);
  EXPECT_TRUE(plan->rpc_fail.ordinals.empty());
  EXPECT_DOUBLE_EQ(plan->rpc_fail.p, 0.25);
  ASSERT_EQ(plan->traps.size(), 1u);
  EXPECT_EQ(plan->traps[0].block, 1u);
  EXPECT_EQ(plan->traps[0].warp, 2u);
  EXPECT_EQ(plan->traps[0].cycle, 5000u);
  ASSERT_EQ(plan->slowdowns.size(), 1u);
  EXPECT_EQ(plan->slowdowns[0].block, 0u);
  EXPECT_EQ(plan->slowdowns[0].factor, 4u);
  EXPECT_FALSE(plan->empty());
}

// Repeated clauses of one kind accumulate their ordinals; a later p<pct>
// replaces an earlier one.
TEST(FaultPlan, RepeatedFailClausesAccumulate) {
  auto plan = FaultPlan::Parse(
      "malloc-fail@2; malloc-fail@p10; malloc-fail@4; malloc-fail@p30");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->malloc_fail.ordinals, (std::vector<std::uint64_t>{2, 4}));
  EXPECT_DOUBLE_EQ(plan->malloc_fail.p, 0.30);
  EXPECT_TRUE(plan->rpc_fail.empty());
}

TEST(FaultPlan, EmptySpecYieldsEmptyPlan) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("bogus@1").ok());
  EXPECT_FALSE(FaultPlan::Parse("malloc-fail").ok());
  EXPECT_FALSE(FaultPlan::Parse("malloc-fail@zero").ok());
  EXPECT_FALSE(FaultPlan::Parse("trap@b0.w0").ok());
  EXPECT_FALSE(FaultPlan::Parse("trap@w0.b0.c0").ok());
  EXPECT_FALSE(FaultPlan::Parse("slow@b0").ok());
  EXPECT_EQ(FaultPlan::Parse("rpc-fail@p200").status().message(),
            "bad fault clause 'rpc-fail@p200': probability must be p<0..100>");
  EXPECT_EQ(FaultPlan::Parse("malloc-fail@1,0").status().message(),
            "bad fault clause 'malloc-fail@1,0': ordinals are 1-based "
            "positive integers");
  // Block and warp ids fill uint32 fields: past UINT32_MAX they would wrap
  // onto block/warp 0.
  EXPECT_TRUE(FaultPlan::Parse("trap@b4294967295.w4294967295.c1").ok());
  EXPECT_FALSE(FaultPlan::Parse("trap@b4294967296.w0.c100").ok());
  EXPECT_FALSE(FaultPlan::Parse("trap@b0.w4294967296.c100").ok());
  EXPECT_FALSE(FaultPlan::Parse("slow@b4294967296.x2").ok());
}

TEST(FaultPlan, CountBasedMallocFailuresFireOnceEach) {
  auto plan = *FaultPlan::Parse("malloc-fail@2,4");
  EXPECT_FALSE(plan.NextMallocFails());  // call 1
  EXPECT_TRUE(plan.NextMallocFails());   // call 2
  EXPECT_FALSE(plan.NextMallocFails());  // call 3
  EXPECT_TRUE(plan.NextMallocFails());   // call 4
  EXPECT_FALSE(plan.NextMallocFails());  // call 5: the plan is spent
}

TEST(FaultPlan, ProbabilisticDecisionsAreSeedDeterministic) {
  auto a = *FaultPlan::Parse("seed@42;rpc-fail@p50");
  auto b = *FaultPlan::Parse("seed@42;rpc-fail@p50");
  int fails = 0;
  for (int i = 0; i < 64; ++i) {
    const bool fa = a.NextRpcFails();
    EXPECT_EQ(fa, b.NextRpcFails()) << i;
    fails += fa ? 1 : 0;
  }
  EXPECT_GT(fails, 0);   // p=50% over 64 draws: statistically certain
  EXPECT_LT(fails, 64);
}

// --- Trap containment --------------------------------------------------------

TEST(Faults, SharedMemoryExhaustionTrapsLaneNotProcess) {
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1},
                   .shared_bytes = 64, .name = "smem-oom"};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    co_await ctx.Work(1);
    if (ctx.thread_id == 0) {
      ctx.block->SharedAlloc<double>(1024);  // far beyond the reservation
    }
    co_await ctx.Work(1);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, LaunchOutcome::kCompleted);
  EXPECT_EQ(result->failure_count, 1u);
  EXPECT_EQ(result->stats.lane_traps, 1u);
  ASSERT_FALSE(result->failures.empty());
  EXPECT_NE(result->failures[0].find("shared memory"), std::string::npos);
}

TEST(Faults, DeviceCodeCanContainASharedMemoryTrap) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint32_t));
  auto p = buf.Typed<std::uint32_t>();
  *p = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}, .shared_bytes = 16};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    bool contained = false;  // co_await is illegal inside a catch handler
    try {
      ctx.block->SharedAlloc<double>(64);
    } catch (const DeviceTrap& trap) {
      EXPECT_EQ(trap.kind(), TrapKind::kOOM);
      contained = true;
    }
    if (contained) {
      co_await ctx.Store(p, std::uint32_t(1));  // recovered; keep running
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());  // contained: no lane failure recorded
  EXPECT_EQ(result->failure_count, 0u);
  EXPECT_EQ(*p, 1u);
}

TEST(Faults, InjectedTrapKillsOnlyTheTargetWarp) {
  auto dev = MakeDevice();
  auto plan = *FaultPlan::Parse("trap@b0.w1.c1");
  auto buf = *dev->Malloc(64 * sizeof(std::uint32_t));
  auto p = buf.Typed<std::uint32_t>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {64, 1, 1}, .name = "inject"};
  cfg.faults = &plan;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    co_await ctx.Work(100);
    co_await ctx.Store(p + ctx.thread_id, std::uint32_t(1));
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, LaunchOutcome::kCompleted);
  // Warp 1 = threads 32..63 all trap; warp 0 completes untouched.
  EXPECT_EQ(result->failure_count, 32u);
  EXPECT_EQ(result->stats.lane_traps, 32u);
  for (std::uint32_t t = 0; t < 32; ++t) EXPECT_EQ(p[t], 1u) << t;
  for (std::uint32_t t = 32; t < 64; ++t) EXPECT_EQ(p[t], 0u) << t;
  ASSERT_FALSE(result->failures.empty());
  EXPECT_NE(result->failures[0].find("injected"), std::string::npos);
}

TEST(Faults, SlowdownScalesComputeCycles) {
  auto run = [](FaultPlan* plan) {
    auto dev = MakeDevice();
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}, .name = "slow"};
    cfg.faults = plan;
    auto r = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
      for (int i = 0; i < 50; ++i) co_await ctx.Work(100);
    });
    return (*r).cycles;
  };
  const std::uint64_t base = run(nullptr);
  auto plan = *FaultPlan::Parse("slow@b0.x4");
  const std::uint64_t slowed = run(&plan);
  // Compute dominates this kernel, so a 4x work multiplier should show as
  // (nearly) 4x elapsed cycles; launch overhead keeps it below exactly 4x.
  EXPECT_GT(slowed, 3 * base);
}

// --- Watchdog ----------------------------------------------------------------

TEST(Faults, LaunchWatchdogRetiresSpinningLanes) {
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}, .name = "spin"};
  cfg.watchdog_cycles = 50000;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    while (true) co_await ctx.Work(100);  // never terminates on its own
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, LaunchOutcome::kCompleted);  // drained, not hung
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->failure_count, 32u);
  EXPECT_EQ(result->stats.watchdog_traps, 32u);
  ASSERT_FALSE(result->failures.empty());
  EXPECT_NE(result->failures[0].find("watchdog"), std::string::npos);
  // The launch ends promptly after the budget, not at some far horizon.
  EXPECT_LT(result->stats.elapsed_cycles, 2 * cfg.watchdog_cycles);
}

TEST(Faults, WatchdogDoesNotFireUnderBudget) {
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  cfg.watchdog_cycles = DeviceSpec::TestDevice().DefaultWatchdogCycles();
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    for (int i = 0; i < 10; ++i) co_await ctx.Work(100);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->stats.watchdog_traps, 0u);
}

// --- Deadlock is an outcome, not an error ------------------------------------

TEST(Faults, DeadlockIsRecordedAsOutcome) {
  auto dev = MakeDevice();
  Barrier never("never-releases");
  never.AddParticipants(2);  // only one lane will ever arrive
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {2, 1, 1}, .name = "deadlock"};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    if (ctx.thread_id == 0) {
      co_await ctx.SyncOn(&never);  // parked forever
    }
    co_return;  // lane 1 exits without arriving (and is not a member)
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();  // not a Status error
  EXPECT_EQ(result->outcome, LaunchOutcome::kDeadlocked);
  EXPECT_FALSE(result->ok());
  EXPECT_GE(result->failure_count, 1u);
  ASSERT_FALSE(result->failures.empty());
  EXPECT_NE(result->failures[0].find("deadlock"), std::string::npos);
}

}  // namespace
}  // namespace dgc::sim
