// Focused unit tests for the coroutine task machinery and lane-granular
// barriers (the pieces everything else is built on).
#include <gtest/gtest.h>

#include "gpusim/barrier.h"
#include "gpusim/block.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"

namespace dgc::sim {
namespace {

std::unique_ptr<Device> MakeDevice() {
  return std::make_unique<Device>(DeviceSpec::TestDevice());
}

// --- DeviceTask semantics ----------------------------------------------------

TEST(DeviceTask, ValueTypesRoundTrip) {
  auto dev = MakeDevice();
  struct Helpers {
    static DeviceTask<double> Dbl(ThreadCtx& ctx) {
      co_await ctx.Work(1);
      co_return 2.5;
    }
    static DeviceTask<std::int32_t> Int(ThreadCtx& ctx) {
      co_await ctx.Work(1);
      co_return -7;
    }
    static DeviceTask<std::uint64_t> U64(ThreadCtx& ctx) {
      co_await ctx.Work(1);
      co_return ~std::uint64_t(0);
    }
  };
  double d = 0;
  std::int32_t i = 0;
  std::uint64_t u = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    d = co_await Helpers::Dbl(ctx);
    i = co_await Helpers::Int(ctx);
    u = co_await Helpers::U64(ctx);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(i, -7);
  EXPECT_EQ(u, ~std::uint64_t(0));
}

TEST(DeviceTask, DeepNestingUnwindsCorrectly) {
  auto dev = MakeDevice();
  struct Helpers {
    static DeviceTask<int> Recurse(ThreadCtx& ctx, int depth) {
      if (depth == 0) {
        co_await ctx.Work(1);
        co_return 1;
      }
      const int below = co_await Recurse(ctx, depth - 1);
      co_return below + 1;
    }
  };
  int depth_reached = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    depth_reached = co_await Helpers::Recurse(ctx, 64);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(depth_reached, 65);
}

TEST(DeviceTask, ExceptionInMiddleOfChainUnwindsToHandler) {
  auto dev = MakeDevice();
  struct Helpers {
    static DeviceTask<int> Level2(ThreadCtx& ctx) {
      co_await ctx.Work(1);
      throw std::runtime_error("level2");
    }
    static DeviceTask<int> Level1(ThreadCtx& ctx) {
      co_return co_await Level2(ctx) + 1;  // no handler: propagates
    }
  };
  bool caught = false;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    try {
      (void)co_await Helpers::Level1(ctx);
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "level2";
    }
    co_await ctx.Work(1);  // execution continues after the handler
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_TRUE(caught);
}

TEST(DeviceTask, ManySequentialChildTasksReuseCleanly) {
  auto dev = MakeDevice();
  struct Helpers {
    static DeviceTask<int> One(ThreadCtx& ctx, int i) {
      co_await ctx.Work(1);
      co_return i;
    }
  };
  int sum = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    for (int i = 0; i < 500; ++i) sum += co_await Helpers::One(ctx, i);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sum, 500 * 499 / 2);
}

// --- Lane-granular barriers ----------------------------------------------------

TEST(BarrierUnit, SubsetBarrierSynchronizesOnlyItsMembers) {
  // Lanes 0..15 use a custom barrier; lanes 16..31 run free. The free
  // lanes must be able to finish while the barrier half is still parked.
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(2 * sizeof(std::uint64_t));
  auto before = buf.Typed<std::uint64_t>();
  auto after = buf.Typed<std::uint64_t>(1);
  *before = 0;
  *after = 0;
  Barrier half("half");
  half.AddParticipants(16);
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    if (ctx.thread_id < 16) {
      ctx.lane->memberships.push_back(&half);
      co_await ctx.AtomicAdd(before, std::uint64_t{1});
      co_await ctx.SyncOn(&half);
      // Every member arrived before anyone passed.
      const std::uint64_t seen = co_await ctx.Load(before);
      if (seen != 16) throw std::runtime_error("barrier released early");
      co_await ctx.AtomicAdd(after, std::uint64_t{1});
    } else {
      co_await ctx.Work(5);
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_EQ(*after, 16u);
}

TEST(BarrierUnit, ReusableAcrossPhases) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  *p = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {64, 1, 1}};
  const int phases = 10;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    for (int ph = 0; ph < phases; ++ph) {
      co_await ctx.AtomicAdd(p, std::uint64_t{1});
      co_await ctx.SyncThreads();
      // After each barrier, the total must be a full multiple of 64.
      const std::uint64_t v = co_await ctx.Load(p);
      if (v % 64 != 0 || v < std::uint64_t(ph + 1) * 64) {
        throw std::runtime_error("phase tearing");
      }
      co_await ctx.SyncThreads();
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_EQ(*p, std::uint64_t(phases) * 64);
  EXPECT_EQ(result->stats.barrier_arrivals, std::uint64_t(2 * phases) * 64);
}

TEST(BarrierUnit, ExplicitBarrierReleasesEveryPhase) {
  auto dev = MakeDevice();
  Barrier b("counted");
  b.AddParticipants(32);
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    ctx.lane->memberships.push_back(&b);
    co_await ctx.SyncOn(&b);
    co_await ctx.SyncOn(&b);
  });
  // Both phases arrived with every lane, and a missed release would have
  // left the lanes parked: the launch would end deadlocked, not clean.
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.barrier_arrivals, 2u * 32);
  EXPECT_EQ(result->outcome, LaunchOutcome::kCompleted);
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_EQ(b.arrived(), 0u);
}

}  // namespace
}  // namespace dgc::sim
