// Per-instance counter buckets (LaunchResult::instance_stats), timeline
// sampling (gpusim/profiler.h), and the LaunchStats merge-semantics split.
#include "gpusim/profiler.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gpusim/ctx.h"
#include "gpusim/device.h"

namespace dgc::sim {
namespace {

std::unique_ptr<Device> MakeDevice() {
  return std::make_unique<Device>(DeviceSpec::TestDevice());
}

/// Ensemble-shaped kernel: each block is one "instance" and block b does
/// b+1 units of compute per element, so instances are distinguishable in
/// the attributed counters.
LaunchResult RunInstanced(Device& dev, Profiler* profiler,
                          std::uint32_t blocks = 4) {
  auto buf = *dev.Malloc(1024 * sizeof(double));
  auto p = buf.Typed<double>();
  std::vector<std::int32_t> row_instances(blocks);  // block b runs instance b
  std::iota(row_instances.begin(), row_instances.end(), 0);
  LaunchConfig cfg{.grid = {blocks, 1, 1}, .block = {32, 1, 1}};
  cfg.row_instances = row_instances;
  cfg.profiler = profiler;
  auto r = dev.Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    for (std::uint32_t i = ctx.block_id * ctx.block_threads + ctx.thread_id;
         i < 1024; i += ctx.block_threads * ctx.grid_blocks) {
      const double v = co_await ctx.Load(p + i);
      co_await ctx.Work(5 * (ctx.block_id + 1));
      co_await ctx.Store(p + i, v + 1);
    }
    co_await ctx.SyncThreads();
  });
  DGC_CHECK(r.ok());
  return *r;
}

/// The counters a launch bumps on the issue path (everything the fold in
/// LaunchContext::Run must conserve).
std::uint64_t IssueCounterSum(const LaunchStats& s) {
  return s.warp_instructions + s.compute_instructions + s.load_instructions +
         s.store_instructions + s.barrier_arrivals + s.divergent_replays +
         s.global_sectors + s.l1_hits + s.l1_misses + s.l2_hits + s.l2_misses +
         s.dram_bytes + s.dram_queue_cycles + s.l2_queue_cycles +
         s.barrier_stall_cycles + s.compute_cycles_issued;
}

TEST(LaunchBuckets, ConserveLaunchTotals) {
  // Every launch attributes, profiled or not.
  auto dev = MakeDevice();
  const LaunchResult r = RunInstanced(*dev, nullptr);

  // Bucket 0 is unattributed (-1), bucket i + 1 instance i; every block
  // here runs an instance, so only the instances did work.
  ASSERT_EQ(r.instance_stats.size(), 5u);
  EXPECT_EQ(r.instance_stats[0].warp_instructions, 0u);
  for (std::size_t i = 1; i < r.instance_stats.size(); ++i) {
    EXPECT_GT(r.instance_stats[i].warp_instructions, 0u);
    EXPECT_EQ(r.instance_stats[i].elapsed_cycles, 0u);
  }

  // Per-instance buckets partition the launch-global counters exactly.
  LaunchStats sum;
  for (const LaunchStats& bucket : r.instance_stats) {
    sum.AccumulateSequential(bucket);
  }
  EXPECT_EQ(IssueCounterSum(sum), IssueCounterSum(r.stats));
  EXPECT_EQ(sum.warp_instructions, r.stats.warp_instructions);
  EXPECT_EQ(sum.dram_bytes, r.stats.dram_bytes);
  EXPECT_EQ(sum.barrier_arrivals, r.stats.barrier_arrivals);
}

TEST(LaunchBuckets, UnattributedWithoutRowTable) {
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {2, 1, 1}, .block = {32, 1, 1}};
  auto r = dev->Launch(cfg, [](ThreadCtx& ctx) -> DeviceTask<void> {
    co_await ctx.Work(4);
  });
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->instance_stats.size(), 1u);
  EXPECT_EQ(IssueCounterSum(r->instance_stats[0]), IssueCounterSum(r->stats));
}

TEST(Profiler, ProfiledRunIsBitIdenticalToUnprofiled) {
  // Profiling is observational: attaching a profiler must not change the
  // simulation (sampling happens between events, never inside one).
  auto d1 = MakeDevice(), d2 = MakeDevice();
  Profiler profiler(Profiler::Options{.sample_interval = 64});
  const LaunchResult plain = RunInstanced(*d1, nullptr);
  const LaunchResult profiled = RunInstanced(*d2, &profiler);
  EXPECT_EQ(plain.cycles, profiled.cycles);
  EXPECT_EQ(plain.stats.elapsed_cycles, profiled.stats.elapsed_cycles);
  EXPECT_EQ(IssueCounterSum(plain.stats), IssueCounterSum(profiled.stats));
  EXPECT_EQ(plain.stats.warp_instructions, profiled.stats.warp_instructions);
  EXPECT_EQ(plain.stats.dram_bytes, profiled.stats.dram_bytes);
  EXPECT_EQ(plain.instance_stats, profiled.instance_stats);
}

TEST(LaunchBuckets, InstancesWithMoreWorkShowMoreAttributedCompute) {
  auto dev = MakeDevice();
  const LaunchResult r = RunInstanced(*dev, nullptr);
  const std::vector<LaunchStats>& inst = r.instance_stats;
  ASSERT_EQ(inst.size(), 5u);
  // Block b runs Work(5*(b+1)): issued compute cycles must rise with the id.
  EXPECT_LT(inst[1].compute_cycles_issued, inst[4].compute_cycles_issued);
  // Every instance did the same number of loads/stores.
  EXPECT_EQ(inst[1].load_instructions, inst[4].load_instructions);
}

TEST(Profiler, TimelineSamplesAreOrderedAndConserveDeltas) {
  auto dev = MakeDevice();
  Profiler profiler(Profiler::Options{.sample_interval = 128});
  const LaunchResult r = RunInstanced(*dev, &profiler);

  ASSERT_GT(profiler.timeline().size(), 1u);
  EXPECT_EQ(profiler.dropped_samples(), 0u);
  std::uint64_t prev = 0, instr = 0;
  for (const TimelineSample& s : profiler.timeline()) {
    EXPECT_GT(s.cycle, prev);
    prev = s.cycle;
    EXPECT_EQ(s.wave, 0u);
    instr += s.warp_instructions;
    EXPECT_GE(s.dram_bw_occupancy, 0.0);
  }
  // Windows tile the whole launch, so the deltas sum to the total.
  EXPECT_EQ(instr, r.stats.warp_instructions);
  EXPECT_EQ(prev, r.stats.elapsed_cycles);  // final partial window ends at T
}

TEST(Profiler, TimelineCapacityDropsAreCounted) {
  auto dev = MakeDevice();
  Profiler profiler(
      Profiler::Options{.sample_interval = 16, .timeline_capacity = 2});
  const LaunchResult r = RunInstanced(*dev, &profiler);
  // 2 stored at capacity, plus the wave-closing sample that bypasses it.
  EXPECT_EQ(profiler.timeline().size(), 3u);
  EXPECT_GT(profiler.dropped_samples(), 0u);
  EXPECT_EQ(profiler.timeline().back().cycle, r.stats.elapsed_cycles);
}

TEST(Profiler, FinalPartialIntervalIsFlushedAtCapacity) {
  // The closing sample of each wave must land in the timeline even when the
  // ring is full — dropping it would truncate the stall/utilization
  // timeline short of the launch's final cycles. Pin the sample's schema:
  // it ends at the launch's last cycle and carries the tail-window deltas
  // the interior (dropped) windows no longer account for.
  auto dev = MakeDevice();
  Profiler profiler(
      Profiler::Options{.sample_interval = 16, .timeline_capacity = 1});
  const LaunchResult r = RunInstanced(*dev, &profiler);
  ASSERT_EQ(profiler.timeline().size(), 2u);  // 1 capacity + final flush
  const TimelineSample& closing = profiler.timeline().back();
  EXPECT_EQ(closing.cycle, r.stats.elapsed_cycles);
  EXPECT_EQ(closing.wave, 0u);
  // The closing window is the final partial interval, strictly shorter
  // than a full sample_interval past the last boundary would be; its cycle
  // is not a multiple of the interval unless the launch happened to align.
  EXPECT_GT(closing.cycle, profiler.timeline().front().cycle);
}

TEST(Profiler, SequentialLaunchesOpenNewWaves) {
  auto dev = MakeDevice();
  Profiler profiler(Profiler::Options{.sample_interval = 128});
  const LaunchResult first = RunInstanced(*dev, &profiler);
  const LaunchResult second = RunInstanced(*dev, &profiler);
  EXPECT_EQ(profiler.waves(), 2u);
  EXPECT_EQ(profiler.timeline().back().wave, 1u);
  // Each wave's window deltas restart from its own buckets, so the
  // timeline tiles both launches.
  std::uint64_t instr = 0;
  for (const TimelineSample& s : profiler.timeline()) {
    instr += s.warp_instructions;
  }
  EXPECT_EQ(instr,
            first.stats.warp_instructions + second.stats.warp_instructions);
}

// --- LaunchStats merge semantics (the bug the profiler exposed) ------------

LaunchStats SampleStats(std::uint64_t elapsed) {
  LaunchStats s;
  s.elapsed_cycles = elapsed;
  s.warp_instructions = 10;
  s.dram_bytes = 64;
  s.blocks_launched = 1;
  return s;
}

TEST(LaunchStatsMerge, SequentialSumsElapsedCycles) {
  // Retry waves run back-to-back: durations add.
  LaunchStats total = SampleStats(1000);
  total.AccumulateSequential(SampleStats(400));
  EXPECT_EQ(total.elapsed_cycles, 1400u);
  EXPECT_EQ(total.warp_instructions, 20u);
  EXPECT_EQ(total.dram_bytes, 128u);
  EXPECT_EQ(total.blocks_launched, 2u);
}

TEST(LaunchStatsMerge, ConcurrentTakesMaxElapsedCycles) {
  // Co-resident instances overlap: the device was busy max(a, b) cycles,
  // not a + b. Summing here was the historical ensemble-loader bug.
  LaunchStats total = SampleStats(1000);
  total.AccumulateConcurrent(SampleStats(400));
  EXPECT_EQ(total.elapsed_cycles, 1000u);
  total.AccumulateConcurrent(SampleStats(2500));
  EXPECT_EQ(total.elapsed_cycles, 2500u);
  EXPECT_EQ(total.warp_instructions, 30u);  // throughput counters still sum
  EXPECT_EQ(total.blocks_launched, 3u);
}

TEST(LaunchStatsReport, UntouchedCachesPrintNaNotZero) {
  LaunchStats idle;
  idle.warp_instructions = 4;
  idle.compute_instructions = 4;
  const std::string report = idle.ToString();
  // A kernel that never accessed memory did not miss 100% of the time.
  EXPECT_NE(report.find("L1 n/a"), std::string::npos) << report;
  EXPECT_NE(report.find("L2 n/a"), std::string::npos) << report;
  EXPECT_NE(report.find("rows n/a"), std::string::npos) << report;
  EXPECT_EQ(report.find("0.00\n"), std::string::npos) << report;

  LaunchStats busy = idle;
  busy.l1_hits = 3;
  busy.l1_misses = 1;
  EXPECT_NE(busy.ToString().find("L1 0.75"), std::string::npos);
}

}  // namespace
}  // namespace dgc::sim
