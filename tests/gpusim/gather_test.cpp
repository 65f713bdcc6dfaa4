// Tests for the pipelined batch-load (Gather / LoadRun) mechanism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "gpusim/block.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"
#include "gpusim/trace.h"
#include "gpusim/warp.h"

namespace dgc::sim {
namespace {

std::unique_ptr<Device> MakeDevice() {
  return std::make_unique<Device>(DeviceSpec::TestDevice());
}

TEST(Gather, LoadsAllValuesInOrder) {
  auto dev = MakeDevice();
  const int n = 64;
  auto buf = *dev->Malloc(n * sizeof(double));
  auto p = buf.Typed<double>();
  for (int i = 0; i < n; ++i) p[i] = i * 1.5;

  std::vector<double> seen(n, 0);
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.LoadRun(p, n);
    co_await g;
    for (int i = 0; i < n; ++i) seen[std::size_t(i)] = g.Result(std::uint32_t(i));
  });
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(seen[std::size_t(i)], i * 1.5);
}

TEST(Gather, ArbitraryAddressesAndTypes) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(256 * sizeof(std::uint32_t));
  auto p = buf.Typed<std::uint32_t>();
  for (int i = 0; i < 256; ++i) p[i] = std::uint32_t(i * i);

  std::uint64_t sum = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.Gather<std::uint32_t>();
    for (int i = 0; i < 10; ++i) g.Add(p + i * 25);  // scattered
    co_await g;
    for (std::uint32_t i = 0; i < 10; ++i) sum += g.Result(i);
  });
  ASSERT_TRUE(result.ok());
  std::uint64_t expect = 0;
  for (int i = 0; i < 10; ++i) expect += std::uint64_t(i * 25) * (i * 25);
  EXPECT_EQ(sum, expect);
}

TEST(Gather, EmptyGatherIsReadyImmediately) {
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.Gather<double>();
    co_await g;  // count == 0: must not suspend or deadlock
    co_await ctx.Work(1);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
}

TEST(Gather, CapacitySaturatesAtKMaxGather) {
  // The default capacity is kMaxGather; a sized gather saturates at its own
  // N the same way.
  auto dev = MakeDevice();
  auto buf = *dev->Malloc((detail::kMaxGather + 8) * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  bool full_before_extra = false, sized_full_before_extra = false;
  std::uint32_t count = 0, sized_count = 0;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.Gather<double>();
    for (std::uint32_t i = 0; i < detail::kMaxGather + 8; ++i) {
      if (i == detail::kMaxGather) full_before_extra = g.Full();
      g.Add(p + i);
    }
    count = g.count;
    co_await g;
    auto sized = ctx.Gather<double, 5>();
    for (std::uint32_t i = 0; i < 5 + 8; ++i) {
      if (i == 4) {
        EXPECT_FALSE(sized.Full());
      }
      if (i == 5) sized_full_before_extra = sized.Full();
      sized.Add(p + i);
    }
    sized_count = sized.count;
    co_await sized;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(full_before_extra);
  EXPECT_EQ(count, detail::kMaxGather);  // extras ignored
  EXPECT_TRUE(sized_full_before_extra);
  EXPECT_EQ(sized_count, 5u);
}

/// Per lane: a strided gather, a streaming run and a scatter of kPer
/// elements, through awaiters of capacity N.
constexpr std::uint32_t kPer = 6;

template <std::uint32_t N>
std::pair<LaunchResult, std::vector<double>> RunBatchesWithCapacity() {
  auto dev = MakeDevice();
  const std::uint32_t n = 2 * 64 * kPer;
  auto in = *dev->Malloc(n * sizeof(double));
  auto out = *dev->Malloc(n * sizeof(double));
  auto pi = in.Typed<double>(), po = out.Typed<double>();
  for (std::uint32_t i = 0; i < n; ++i) pi[i] = 0.5 * i;
  LaunchConfig cfg{.grid = {2, 1, 1}, .block = {64, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t gid =
        ctx.block_id * ctx.block_threads + ctx.thread_id;
    const std::uint32_t base = (gid * 7) % (n / kPer) * kPer;
    auto g = ctx.Gather<double, N>();
    for (std::uint32_t j = 0; j < kPer; ++j) g.Add(pi + (base + j));
    co_await g;
    auto r = ctx.LoadRun<N>(pi + gid * kPer, kPer);
    co_await r;
    auto s = ctx.Scatter<double, N>();
    for (std::uint32_t j = 0; j < kPer; ++j) {
      s.Add(po + (gid * kPer + j), g.Result(j) + r.Result(j));
    }
    co_await s;
  });
  DGC_CHECK(result.ok());
  return {std::move(*result), std::vector<double>(po.host, po.host + n)};
}

TEST(Gather, SizedCapacityIsStorageOnly) {
  // The same batches through sized and default-capacity awaiters: the warp
  // sees only the filled count, so cycles, stats and memory agree.
  const auto [sized, sized_out] = RunBatchesWithCapacity<kPer>();
  const auto [full, full_out] = RunBatchesWithCapacity<detail::kMaxGather>();
  EXPECT_EQ(sized.cycles, full.cycles);
  EXPECT_EQ(sized.stats, full.stats);
  EXPECT_EQ(sized.instance_stats, full.instance_stats);
  EXPECT_EQ(sized_out, full_out);
  EXPECT_EQ(sized.stats.load_instructions, 8u);  // 2 batches x 4 warps
  EXPECT_EQ(sized.stats.store_instructions, 4u);
}

struct FillRun {
  LaunchResult result;
  std::vector<double> out;
  /// Gather()/LoadRun()/Scatter() and the run's issue left the fill alone.
  bool slots_untouched = true;
};

/// The batches of RunBatchesWithCapacity, but each lane fills 1..kPer
/// slots of default-capacity awaiters constructed over storage pre-filled
/// with `fill`, so every batch leaves most of its slots unfilled.
FillRun RunBatchesOverFill(unsigned char fill) {
  using G = detail::GatherAwaiter<double>;
  using R = detail::RunAwaiter<double>;
  using S = detail::ScatterAwaiter<double>;
  auto dev = MakeDevice();
  const std::uint32_t n = 2 * 64 * kPer;
  auto in = *dev->Malloc(n * sizeof(double));
  auto out = *dev->Malloc(n * sizeof(double));
  auto pi = in.Typed<double>(), po = out.Typed<double>();
  for (std::uint32_t i = 0; i < n; ++i) pi[i] = 0.5 * i;
  FillRun run;
  // True when the `bytes` bytes at `last` (an awaiter's last slot or
  // result) still hold the fill.
  const auto untouched = [fill](const void* last, std::size_t bytes) {
    const auto* mem = static_cast<const unsigned char*>(last);
    return std::all_of(mem, mem + bytes,
                       [fill](unsigned char b) { return b == fill; });
  };
  constexpr std::uint32_t kLast = detail::kMaxGather - 1;
  LaunchConfig cfg{.grid = {2, 1, 1}, .block = {64, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t gid =
        ctx.block_id * ctx.block_threads + ctx.thread_id;
    const std::uint32_t per = 1 + gid % kPer;
    const std::uint32_t base = (gid * 7) % (n / kPer) * kPer;
    // Word arrays, not alignas char arrays: coroutine frames do not honour
    // alignas on locals with every compiler.
    static_assert(alignof(G) <= 8 && alignof(R) <= 8 && alignof(S) <= 8);
    std::uint64_t g_mem[sizeof(G) / 8];
    std::uint64_t r_mem[sizeof(R) / 8];
    std::uint64_t s_mem[sizeof(S) / 8];
    std::memset(g_mem, fill, sizeof(g_mem));
    std::memset(r_mem, fill, sizeof(r_mem));
    std::memset(s_mem, fill, sizeof(s_mem));
    G& g = *::new (g_mem) G(ctx.Gather<double>());
    if (!untouched(&g.slots[kLast], sizeof(BatchSlot))) {
      run.slots_untouched = false;
    }
    for (std::uint32_t j = 0; j < per; ++j) g.Add(pi + (base + j));
    co_await g;
    R& r = *::new (r_mem) R(ctx.LoadRun(pi + gid * kPer, per));
    if (!untouched(&r.results[kLast], sizeof(double))) {
      run.slots_untouched = false;
    }
    co_await r;
    if (!untouched(&r.results[kLast], sizeof(double))) {
      run.slots_untouched = false;
    }
    S& s = *::new (s_mem) S(ctx.Scatter<double>());
    if (!untouched(&s.slots[kLast], sizeof(StoreSlot))) {
      run.slots_untouched = false;
    }
    for (std::uint32_t j = 0; j < per; ++j) {
      s.Add(po + (gid * kPer + j), g.Result(j) + r.Result(j));
    }
    co_await s;
  });
  DGC_CHECK(result.ok());
  run.result = std::move(*result);
  run.out.assign(po.host, po.host + n);
  return run;
}

TEST(Gather, UnfilledSlotsAreNeverRead) {
  // Slots past `count` are uninitialized: constructing an awaiter writes
  // none of them, and nothing downstream reads them, so garbage there
  // changes no result, cycle or counter.
  const FillRun zero = RunBatchesOverFill(0x00);
  const FillRun garbage = RunBatchesOverFill(0xA5);
  EXPECT_TRUE(garbage.slots_untouched);
  EXPECT_EQ(garbage.out, zero.out);
  EXPECT_EQ(garbage.result.cycles, zero.result.cycles);
  EXPECT_EQ(garbage.result.stats, zero.result.stats);
  EXPECT_EQ(garbage.result.instance_stats, zero.result.instance_stats);
  EXPECT_EQ(zero.result.stats.load_instructions, 8u);
  EXPECT_EQ(zero.result.stats.store_instructions, 4u);
  for (std::uint32_t gid = 0; gid < 128; ++gid) {
    const std::uint32_t base = (gid * 7) % 128 * kPer;
    for (std::uint32_t j = 0; j < kPer; ++j) {
      const double expect =
          j <= gid % kPer ? 0.5 * (base + j) + 0.5 * (gid * kPer + j) : 0.0;
      ASSERT_EQ(garbage.out[gid * kPer + j], expect) << gid << " " << j;
    }
  }
}

TEST(GatherDeathTest, LoadRunPastCapacityFailsItsCheck) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(8 * sizeof(double));
  auto p = buf.Typed<double>();
  ThreadCtx ctx;
  EXPECT_DEATH({ (void)ctx.LoadRun<4>(p, 5); }, "count <= N");
}

/// Runs one lane that awaits `LoadRun<4>(p, 2)` over {0.5, 1.5, ...} and
/// then hands the issued gather to `after`.
template <typename After>
void WithIssuedGather(After after) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(8 * sizeof(double));
  auto p = buf.Typed<double>();
  for (int i = 0; i < 8; ++i) p[i] = i + 0.5;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.LoadRun<4>(p, 2);
    co_await g;
    co_await after(g);
  });
  DGC_CHECK(result.ok() && result->ok());
}

TEST(GatherDeathTest, ResultPastCountFailsItsCheck) {
  // Slots past `count` are uninitialized, and a slot holds its host pointer
  // until the gather is issued, so either read is a bug.
  double seen = 0;
  WithIssuedGather([&](auto& g) -> DeviceTask<void> {
    seen = g.Result(1);
    co_return;
  });
  EXPECT_EQ(seen, 1.5);
  EXPECT_DEATH(WithIssuedGather([](auto& g) -> DeviceTask<void> {
                 (void)g.Result(2);
                 co_return;
               }),
               "i < count");
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(8 * sizeof(double));
  ThreadCtx ctx;
  const auto unissued = ctx.LoadRun<4>(buf.Typed<double>(), 2);
  EXPECT_DEATH({ (void)unissued.Result(1); }, "issued");
}

TEST(GatherDeathTest, SecondAwaitFailsItsCheck) {
  // After issue the slots hold results, so issuing them again would load
  // from result bits taken as addresses.
  EXPECT_DEATH(WithIssuedGather([](auto& g) -> DeviceTask<void> {
                 co_await g;
               }),
               "!issued");
}

TEST(Gather, BatchIsFasterThanDependentScalarLoads) {
  // The point of the mechanism: N independent loads in one batch pay one
  // latency, N scalar loads pay N.
  auto dev = MakeDevice();
  const int n = 32, reps = 50;
  auto buf = *dev->Malloc(std::uint64_t(n) * reps * sizeof(double));
  auto p = buf.Typed<double>();

  auto run = [&](bool batched) {
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
    auto r = dev->Launch(cfg, [&, batched](ThreadCtx& ctx) -> DeviceTask<void> {
      double acc = 0;
      for (int rep = 0; rep < reps; ++rep) {
        auto base = p + rep * n;
        if (batched) {
          auto g = ctx.LoadRun(base, n);
          co_await g;
          for (int i = 0; i < n; ++i) acc += g.Result(std::uint32_t(i));
        } else {
          for (int i = 0; i < n; ++i) acc += co_await ctx.Load(base + i);
        }
      }
      (void)acc;
    });
    return r->stats.elapsed_cycles;
  };
  const auto scalar = run(false);
  const auto batch = run(true);
  EXPECT_GT(scalar, batch * 5);
}

TEST(Gather, CountsSectorsLikeScalarLoads) {
  auto dev = MakeDevice();
  const int n = 64;  // 64 doubles = 16 sectors
  auto buf = *dev->Malloc(n * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.LoadRun(p, n);
    co_await g;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.global_sectors, 16u);
  EXPECT_DOUBLE_EQ(result->stats.CoalescingEfficiency(), 1.0);
}

TEST(Gather, WarpLanesCoalesceAcrossBatches) {
  // 32 lanes each gathering their own contiguous 2-element run over a
  // shared array: the warp instruction coalesces all 64 elements.
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(64 * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.LoadRun(p + ctx.thread_id * 2, 2);
    co_await g;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.global_sectors, 16u);          // 512B / 32B
  EXPECT_EQ(result->stats.load_instructions, 1u);        // one warp instr
}

// A run stores only its start and its packed results; Warp holds no
// issue scratch (the launch owns one set, IssueScratch). Both bounds keep
// the host memory per simulated lane and per warp from growing back.
static_assert(sizeof(detail::RunAwaiter<double, 78>) <= 78 * 8 + 32);
static_assert(sizeof(detail::RunAwaiter<std::int32_t, 78>) <= 78 * 4 + 32);
static_assert(sizeof(Warp) <= 48);

struct BatchRun {
  LaunchResult result;
  std::string trace;
  std::string memcheck;  ///< the memcheck report, when attached
  std::vector<double> sums;
};

constexpr std::uint32_t kRunIn = 700;  ///< elements of each input buffer
constexpr std::uint32_t kRunLanes = 128;

/// Four warps whose lanes each load a run of doubles and a run of int32
/// of varying length and start, and sum their products. `kRuns` loads
/// through LoadRun, otherwise through a Gather filled with Add(p + i). With
/// memcheck the last four lanes' runs cross the end of the doubles, which
/// are allocated last: elements in the allocator's 256-byte rounding are
/// flagged and read, those past it are flagged and read 0. The host side
/// of every element, past the ends too, is a vector of known values.
template <bool kRuns>
BatchRun LoadRunsOrGathers(bool memcheck_on) {
  auto dev = MakeDevice();
  Memcheck memcheck;
  if (memcheck_on) memcheck.Attach(dev->memory());
  auto ints = *dev->Malloc(kRunIn * sizeof(std::int32_t));
  auto in = *dev->Malloc(kRunIn * sizeof(double));
  std::vector<double> host_d(kRunIn + 16);
  std::vector<std::int32_t> host_n(kRunIn + 16);
  for (std::uint32_t i = 0; i < host_d.size(); ++i) {
    host_d[i] = 0.25 * i;
    host_n[i] = std::int32_t(3 * i) - 5;
  }
  const DevicePtr<double> pi{in.addr, host_d.data()};
  const DevicePtr<std::int32_t> pn{ints.addr, host_n.data()};
  const std::uint32_t limit = memcheck_on ? kRunIn + 12 : kRunIn;
  BatchRun run;
  run.sums.assign(kRunLanes, -1.0);
  Trace trace;
  LaunchConfig cfg{.grid = {2, 1, 1}, .block = {64, 1, 1}};
  cfg.trace = &trace;
  cfg.memcheck = memcheck_on ? &memcheck : nullptr;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t gid =
        ctx.block_id * ctx.block_threads + ctx.thread_id;
    const std::uint32_t n = (gid * 7) % 23;  // 0..22 elements
    const std::uint32_t start =
        gid >= kRunLanes - 4 ? limit - n : (gid * 37) % (kRunIn - 22);
    double sum = 0;
    if constexpr (kRuns) {
      auto d = ctx.LoadRun<24>(pi + start, n);
      co_await d;
      auto k = ctx.LoadRun<24>(pn + start, n);
      co_await k;
      for (std::uint32_t j = 0; j < n; ++j) sum += d.Result(j) * k.Result(j);
    } else {
      auto d = ctx.Gather<double, 24>();
      for (std::uint32_t j = 0; j < n; ++j) d.Add(pi + (start + j));
      co_await d;
      auto k = ctx.Gather<std::int32_t, 24>();
      for (std::uint32_t j = 0; j < n; ++j) k.Add(pn + (start + j));
      co_await k;
      for (std::uint32_t j = 0; j < n; ++j) sum += d.Result(j) * k.Result(j);
    }
    run.sums[gid] = sum;
    co_await ctx.Work(1);
  });
  DGC_CHECK(result.ok());
  run.result = std::move(*result);
  run.trace = trace.ToChromeJson();
  if (memcheck_on) run.memcheck = memcheck.report().ToString();
  return run;
}

/// Σ (0.25 i)(3 i - 5) over i in [begin, end): the sum of a lane whose
/// elements [begin, end) read their values.
double RunSum(std::uint32_t begin, std::uint32_t end) {
  double sum = 0;
  for (std::uint32_t i = begin; i < end; ++i) sum += 0.25 * i * (3.0 * i - 5);
  return sum;
}

TEST(Gather, RunsTimeLikeTheirGathers) {
  // A run is charged as the gather of its elements: same cycles, counters
  // and trace, and the same values.
  const BatchRun runs = LoadRunsOrGathers</*kRuns=*/true>(false);
  const BatchRun gathers = LoadRunsOrGathers</*kRuns=*/false>(false);
  EXPECT_EQ(runs.result.cycles, gathers.result.cycles);
  EXPECT_EQ(runs.result.stats.ToString(), gathers.result.stats.ToString());
  EXPECT_EQ(runs.result.stats, gathers.result.stats);
  EXPECT_EQ(runs.result.instance_stats, gathers.result.instance_stats);
  EXPECT_EQ(runs.trace, gathers.trace);
  EXPECT_EQ(runs.sums, gathers.sums);
  EXPECT_EQ(runs.result.stats.load_instructions, 8u);  // 2 batches x 4 warps
  EXPECT_EQ(runs.sums[1], RunSum(37, 44));  // lane 1: 7 elements from 37
}

TEST(Gather, RunAndGatherLanesIssueAsOneGroup) {
  // Runs and gathers both park as kLoadBatch: a warp whose even lanes load
  // a run and odd lanes a gather issues one memory instruction.
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(128 * sizeof(double));
  auto p = buf.Typed<double>();
  for (int i = 0; i < 128; ++i) p[i] = i;
  std::vector<double> seen(32);
  Trace trace;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  cfg.trace = &trace;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t lane = ctx.thread_id;
    if (lane % 2 == 0) {
      auto r = ctx.LoadRun<4>(p + 4 * lane, 4);
      co_await r;
      seen[lane] = r.Result(3);
    } else {
      auto g = ctx.Gather<double, 4>();
      for (std::uint32_t j = 0; j < 4; ++j) g.Add(p + (4 * lane + j));
      co_await g;
      seen[lane] = g.Result(3);
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.load_instructions, 1u);
  EXPECT_EQ(result->stats.divergent_replays, 0u);
  EXPECT_EQ(result->stats.global_sectors, 32u);  // 1 KiB / 32 B
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].lanes, 32u);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(seen[lane], 4.0 * lane + 3) << lane;
  }
}

TEST(Gather, RunsPastTheEndUnderMemcheckMatchTheirGathers) {
  // Under memcheck a run checks and reads element by element in element
  // order: the findings, the vetoed zeros and the in-bounds values are the
  // equivalent gather's.
  const BatchRun runs = LoadRunsOrGathers</*kRuns=*/true>(true);
  const BatchRun gathers = LoadRunsOrGathers</*kRuns=*/false>(true);
  EXPECT_EQ(runs.memcheck, gathers.memcheck);
  EXPECT_EQ(runs.result.stats, gathers.result.stats);
  EXPECT_EQ(runs.trace, gathers.trace);
  EXPECT_EQ(runs.sums, gathers.sums);
  EXPECT_EQ(runs.sums[1], RunSum(37, 44));
  // Lane 127 runs 15 elements from 697: the doubles' 5,632-byte slot ends
  // at element 704, so 697..703 read their values and 704..711 read 0.
  EXPECT_EQ(runs.sums[127], RunSum(697, 704));
  // Flagged: the doubles at 700..711 of lanes 124-127 (12 + 1 + 8 + 12)
  // and the int32 padding at 700..703 of lanes 124 and 127; ints past 703
  // lie in the doubles' allocation, so nothing flags them.
  EXPECT_EQ(runs.result.stats.memcheck_findings, 41u);
  EXPECT_NE(runs.memcheck.find("out-of-bounds"), std::string::npos)
      << runs.memcheck;
}

TEST(Gather, MixedWithComputeAndStoresVerifies) {
  auto dev = MakeDevice();
  const std::uint32_t n = 512;
  auto in = *dev->Malloc(n * sizeof(double));
  auto out = *dev->Malloc(n * sizeof(double));
  auto pi = in.Typed<double>(), po = out.Typed<double>();
  for (std::uint32_t i = 0; i < n; ++i) pi[i] = i;

  LaunchConfig cfg{.grid = {2, 1, 1}, .block = {64, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t gid = ctx.block_id * ctx.block_threads + ctx.thread_id;
    const std::uint32_t per = n / 128;
    auto g = ctx.LoadRun(pi + gid * per, per);
    co_await g;
    co_await ctx.Work(10);
    for (std::uint32_t j = 0; j < per; ++j) {
      co_await ctx.Store(po + (gid * per + j), g.Result(j) * 3.0);
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(po[i], 3.0 * i) << i;
}

}  // namespace
}  // namespace dgc::sim

namespace dgc::sim {
namespace {

TEST(Scatter, WritesAllValues) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  const int n = 48;
  auto buf = *dev->Malloc(n * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto s = ctx.Scatter<double>();
    for (int i = 0; i < n; ++i) s.Add(p + i, i * 2.5);
    co_await s;
  });
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(p[i], i * 2.5) << i;
  EXPECT_EQ(result->stats.store_instructions, 1u);
}

TEST(Scatter, EmptyScatterDoesNotSuspend) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto s = ctx.Scatter<double>();
    co_await s;
    co_await ctx.Work(1);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
}

TEST(Scatter, BatchedStoresFasterThanScalarChain) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  const int n = 32, reps = 40;
  auto buf = *dev->Malloc(std::uint64_t(n) * reps * sizeof(double));
  auto p = buf.Typed<double>();
  auto run = [&](bool batched) {
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
    auto r = dev->Launch(cfg, [&, batched](ThreadCtx& ctx) -> DeviceTask<void> {
      for (int rep = 0; rep < reps; ++rep) {
        auto base = p + rep * n;
        if (batched) {
          auto s = ctx.Scatter<double>();
          for (int i = 0; i < n; ++i) s.Add(base + i, 1.0);
          co_await s;
        } else {
          for (int i = 0; i < n; ++i) co_await ctx.Store(base + i, 1.0);
        }
      }
    });
    return r->stats.elapsed_cycles;
  };
  EXPECT_GT(run(false), run(true) * 3);
}

TEST(Scatter, GatherAfterScatterObservesValues) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  auto buf = *dev->Malloc(64 * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  std::uint64_t sum = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto s = ctx.Scatter<std::uint64_t>();
    for (std::uint64_t i = 0; i < 64; ++i) s.Add(p + i, i + 1);
    co_await s;
    auto g = ctx.LoadRun(p, 64);
    co_await g;
    for (std::uint32_t i = 0; i < 64; ++i) sum += g.Result(i);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sum, 64u * 65u / 2);
}

}  // namespace
}  // namespace dgc::sim
