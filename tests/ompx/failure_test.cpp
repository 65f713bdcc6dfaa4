// Failure-injection tests: device code that throws must surface as lane
// failures without deadlocking teams, barriers, or the launch.
#include <gtest/gtest.h>

#include "ompx/league.h"
#include "ompx/team.h"

namespace dgc::ompx {
namespace {

using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::ThreadCtx;

std::unique_ptr<Device> MakeDevice() {
  return std::make_unique<Device>(DeviceSpec::TestDevice());
}

TEST(FailureInjection, WorkerThrowsInsideParallelRegion) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  *p = 0;
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 64};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
    co_await Parallel(team, [&](ThreadCtx& ctx, std::uint32_t rank,
                                std::uint32_t) -> DeviceTask<void> {
      if (rank == 13) throw std::runtime_error("worker 13 died");
      co_await ctx.AtomicAdd(p, std::uint64_t{1});
    });
    // The region still joins; the main thread continues sequential code.
    co_await team.hw->AtomicAdd(p, std::uint64_t{100});
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();  // no deadlock
  EXPECT_EQ(result->failure_count, 1u);
  EXPECT_EQ(*p, 63u + 100u);  // everyone but worker 13, plus the epilogue
  ASSERT_FALSE(result->failures.empty());
  EXPECT_NE(result->failures[0].find("worker 13 died"), std::string::npos);
}

TEST(FailureInjection, MainThreadThrowsBetweenRegions) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  *p = 0;
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 64};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
    co_await Parallel(team, [&](ThreadCtx& ctx, std::uint32_t,
                                std::uint32_t) -> DeviceTask<void> {
      co_await ctx.AtomicAdd(p, std::uint64_t{1});
    });
    throw std::runtime_error("sequential part failed");
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();  // workers released
  EXPECT_EQ(result->failure_count, 1u);
  EXPECT_EQ(*p, 64u);  // the first region completed
}

TEST(FailureInjection, MainThreadThrowInsideRegionWaitsForWorkers) {
  // Rank 0 fails inside the region while its workers are still in the
  // body, parked at a team barrier (the reduction) that rank 0 never
  // reaches. The body captures rank 0's locals by reference, so the
  // exception may only unwind them once every worker has left the body.
  auto dev = MakeDevice();
  std::uint32_t finished = 0, finished_at_unwind = 0;
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 64};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
    const double weight = 2.0;  // lives in this (rank 0's) frame
    try {
      co_await Parallel(team, [&](ThreadCtx& ctx, std::uint32_t rank,
                                  std::uint32_t) -> DeviceTask<void> {
        if (rank == 0) throw std::runtime_error("rank 0 died");
        co_await ctx.Work(50 + rank);
        const double total = co_await TeamReduceSum(team, weight);
        (void)total;
        ++finished;
      });
    } catch (const std::runtime_error&) {
      finished_at_unwind = finished;
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failure_count, 0u);
  EXPECT_EQ(finished, 63u);
  EXPECT_EQ(finished_at_unwind, 63u);
}

TEST(FailureInjection, MultipleTeamsFailIndependently) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(8 * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  for (int i = 0; i < 8; ++i) p[i] = 0;
  TeamsConfig cfg{.num_teams = 8, .thread_limit = 32};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
    co_await team.hw->Work(5);
    if (team.team_id % 3 == 0) {
      throw std::runtime_error("team died");
    }
    co_await team.hw->Store(p + team.team_id, std::uint64_t{1});
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failure_count, 3u);  // teams 0, 3, 6
  for (std::uint32_t t = 0; t < 8; ++t) {
    EXPECT_EQ(p[t], t % 3 == 0 ? 0u : 1u) << t;
  }
}

TEST(FailureInjection, WorkerThrowInMultiDimTeamDoesNotPoisonNeighbours) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(4 * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  for (int i = 0; i < 4; ++i) p[i] = 0;
  TeamsConfig cfg{.num_teams = 4, .thread_limit = 16, .teams_per_block = 2};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
    co_await Parallel(team, [&](ThreadCtx& ctx, std::uint32_t rank,
                                std::uint32_t) -> DeviceTask<void> {
      if (team.team_id == 1 && rank == 5) throw std::runtime_error("boom");
      co_await ctx.AtomicAdd(p + team.team_id, std::uint64_t{1});
    });
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failure_count, 1u);
  EXPECT_EQ(p[0], 16u);
  EXPECT_EQ(p[1], 15u);  // lost one worker
  EXPECT_EQ(p[2], 16u);  // same block as team 3 — unaffected
  EXPECT_EQ(p[3], 16u);
}

TEST(FailureInjection, FailureCountCapsRecordedMessages) {
  auto dev = MakeDevice();
  TeamsConfig cfg{.num_teams = 8, .thread_limit = 32};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
    co_await Parallel(team, [&](ThreadCtx& ctx, std::uint32_t,
                                std::uint32_t) -> DeviceTask<void> {
      co_await ctx.Work(1);
      throw std::runtime_error("everyone dies");
    });
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failure_count, 8u * 32u);
  EXPECT_LE(result->failures.size(), 16u);  // bounded recording
}

}  // namespace
}  // namespace dgc::ompx
