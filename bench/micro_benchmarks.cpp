// google-benchmark microbenchmarks for the library's host-side hot paths:
// the coalescer, the lane-to-warp hand-off, the L2 sector cache, the DRAM
// charge, the engine heap, and whole ensemble launches (the CI speed gate).
// These measure the SIMULATOR's throughput (host nanoseconds), not
// simulated GPU cycles.
#include <benchmark/benchmark.h>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/cache.h"
#include "gpusim/coalesce.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "gpusim/launch_context.h"
#include "gpusim/memsys.h"
#include "gpusim/warp.h"
#include "support/rng.h"
#include "support/str.h"

using namespace dgc;

namespace {

/// Coalesces a rotating set of pre-generated warp batch groups, so that
/// neither the branch predictor nor the cache sees one input repeated.
void CoalesceBatchGroups(benchmark::State& state,
                         const std::vector<std::vector<sim::LaneAccess>>& groups) {
  std::vector<std::uint64_t> out;
  std::size_t next = 0;
  for (auto _ : state) {
    sim::CoalesceSectors(groups[next], 32, out);
    benchmark::DoNotOptimize(out.data());
    next = (next + 1) % groups.size();
  }
}

void BM_CoalesceBatchNarrow(benchmark::State& state) {
  // rsbench-like: each of 32 lanes does a LoadRun<4> of one 4-double pole
  // record picked at random from 4,096 records (128 KiB).
  Rng rng(5);
  std::vector<std::vector<sim::LaneAccess>> groups(64);
  for (auto& g : groups) {
    for (int lane = 0; lane < 32; ++lane) {
      const std::uint64_t record = 0x100000 + rng.NextBounded(4096) * 32;
      for (int i = 0; i < 4; ++i) g.push_back({record + std::uint64_t(i) * 8, 8});
    }
  }
  CoalesceBatchGroups(state, groups);
}
BENCHMARK(BM_CoalesceBatchNarrow);

void BM_CoalesceBatchWide(benchmark::State& state) {
  // pagerank-like: each of 32 lanes gathers 96 random doubles of a
  // 200,000-element rank array.
  Rng rng(7);
  std::vector<std::vector<sim::LaneAccess>> groups(64);
  for (auto& g : groups) {
    for (int slot = 0; slot < 32 * 96; ++slot) {
      g.push_back({0x100000 + rng.NextBounded(200000) * 8, 8});
    }
  }
  CoalesceBatchGroups(state, groups);
}
BENCHMARK(BM_CoalesceBatchWide);

/// The lane-to-warp hand-off layer: one 32-lane block whose lanes each
/// chase 64 dependent scalar Loads through a 1 KiB (L1-resident) array, so
/// host time is mostly lane resume, awaiter set-up and the warp's issue of
/// one-sector instructions. `lane_op` is host time per lane-op.
void BM_LaneHandoffScalarLoads(benchmark::State& state) {
  constexpr std::uint32_t kLanes = 32, kLoads = 64, kElems = 256;
  sim::Device device(sim::DeviceSpec::TestDevice());
  auto buf = *device.Malloc(kElems * sizeof(std::uint32_t));
  auto p = buf.Typed<std::uint32_t>();
  for (std::uint32_t i = 0; i < kElems; ++i) p[i] = (i * 37 + 11) % kElems;
  const sim::LaunchConfig cfg{.grid = {1, 1, 1}, .block = {kLanes, 1, 1}};
  for (auto _ : state) {
    auto r = device.Launch(cfg, [&](sim::ThreadCtx& ctx) -> sim::DeviceTask<void> {
      std::uint32_t i = ctx.thread_id;
      for (std::uint32_t k = 0; k < kLoads; ++k) i = co_await ctx.Load(p + i);
    });
    benchmark::DoNotOptimize(r->cycles);
  }
  state.counters["lane_op"] = benchmark::Counter(
      kLanes * kLoads,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LaneHandoffScalarLoads);

/// The L2 sector cache alone, at the a100/512 shape: 160 sets x 16 ways,
/// not a power of two, so every lookup takes the modulo set index. The
/// seeded stream draws from twice the cache's sectors (a mix of hits and
/// evictions) and rotates so no one pattern is replayed.
void BM_SectorCacheAccess(benchmark::State& state) {
  const sim::DeviceSpec spec = sim::DeviceSpec::A100_40GB(512);
  sim::SectorCache l2(spec.l2_bytes, spec.sector_bytes, spec.l2_ways);
  Rng rng(11);
  std::vector<std::uint64_t> stream(1 << 14);
  const std::uint64_t span = 2 * std::uint64_t(l2.sets()) * l2.ways();
  for (auto& s : stream) s = 0x8000 + rng.NextBounded(span);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2.Access(stream[next]));
    next = (next + 1) & (stream.size() - 1);
  }
  state.counters["sets"] = l2.sets();
}
BENCHMARK(BM_SectorCacheAccess);

/// The DRAM layer of MemorySystem::Access at the a100/512 shape: every
/// group is 8 runs of 4 sectors at fresh, ascending random rows, so each
/// sector misses L1 and L2 and pays the channel, bank and row-buffer model.
/// Issue times advance one cycle a group, about the DRAM service time of
/// its 1 KiB at 1,100 B/cycle, so the channel queues stay short but busy
/// (`queue_cycles`: DRAM queue charge per group). `sector` is host time
/// per sector.
void BM_MemsysDramCharge(benchmark::State& state) {
  constexpr std::uint64_t kRuns = 8, kRunSectors = 4;
  const sim::DeviceSpec spec = sim::DeviceSpec::A100_40GB(512);
  sim::MemorySystem memsys(spec);
  sim::LaunchStats stats;
  Rng rng(13);
  std::vector<std::uint64_t> sectors(kRuns * kRunSectors);
  std::uint64_t next_sector = 0x10000, now = 0;
  int sm = 0;
  for (auto _ : state) {
    for (std::uint64_t r = 0; r < kRuns; ++r) {
      next_sector += kRunSectors + rng.NextBounded(1024);
      for (std::uint64_t i = 0; i < kRunSectors; ++i) {
        sectors[r * kRunSectors + i] = next_sector + i;
      }
    }
    benchmark::DoNotOptimize(
        memsys.Access(sm, sectors, /*is_store=*/false, now, stats));
    sm = (sm + 1) % spec.num_sms;
    now += 1;
  }
  if (stats.l2_hits != 0 || stats.l1_hits != 0) {
    state.SkipWithError("a sector hit a cache");
  }
  state.counters["sector"] = benchmark::Counter(
      double(kRuns * kRunSectors),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["queue_cycles"] =
      benchmark::Counter(double(stats.dram_queue_cycles),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MemsysDramCharge);

/// The engine heap: `range(0)` lane-less warps (their turns resume and
/// issue nothing, so host time is Schedule and RunOne) are scheduled at
/// seeded random times within 10,000 cycles and drained, every iteration.
/// `event` is host time per scheduled-and-dispatched wake.
void BM_EngineHeap(benchmark::State& state) {
  const std::uint32_t warps = std::uint32_t(state.range(0));
  const sim::DeviceSpec spec = sim::DeviceSpec::TestDevice();
  sim::MemorySystem memsys(spec);
  const sim::LaunchConfig cfg;
  const sim::KernelFn kernel;
  sim::LaunchContext lc(spec, memsys, cfg, kernel);
  std::vector<std::unique_ptr<sim::Warp>> pool;
  for (std::uint32_t w = 0; w < warps; ++w) {
    pool.push_back(std::make_unique<sim::Warp>(nullptr, w,
                                               std::span<sim::Lane>(), &lc));
  }
  Rng rng(17);
  for (auto _ : state) {
    const std::uint64_t now = lc.engine.now();
    for (auto& warp : pool) {
      lc.engine.Schedule(now + rng.NextBounded(10000), warp.get());
    }
    while (lc.engine.RunOne()) {
    }
  }
  state.counters["event"] = benchmark::Counter(
      double(warps),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineHeap)->Arg(1024)->Arg(4096);

/// The hot-path speed gate: one full XSBench ensemble launch at fig6a
/// scale-down, parameterized by instance count. This is the benchmark the
/// CI bench-release job diffs against BENCH_sim_speed.json — it exercises
/// the per-launch path end to end (coalescer, caches, memory system,
/// engine scheduling) with enough simulated work that allocation and
/// indexing costs dominate measurable noise.
void BM_EnsembleLaunchXsbench(benchmark::State& state) {
  apps::RegisterAllApps();
  const int instances = int(state.range(0));
  for (auto _ : state) {
    sim::Device device(sim::DeviceSpec::TestDevice());
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    ensemble::EnsembleOptions opt;
    opt.app = "xsbench";
    for (int i = 0; i < instances; ++i) {
      opt.instance_args.push_back({"-i", "12", "-g", "128", "-l", "512", "-s",
                                   StrFormat("%d", i + 1)});
    }
    opt.thread_limit = 32;
    auto run = ensemble::RunEnsemble(env, opt);
    benchmark::DoNotOptimize(run->kernel_cycles);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * instances);
}
BENCHMARK(BM_EnsembleLaunchXsbench)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// Multi-warp speed gate: AMGmk ensembles at fig6b scale-down. With
/// thread_limit 64 every block holds two warps, so this series exercises
/// the paths the xsbench gate cannot: intra-block barriers and
/// shared-memory conflict modelling.
void BM_EnsembleLaunchAmgmk(benchmark::State& state) {
  apps::RegisterAllApps();
  const int instances = int(state.range(0));
  for (auto _ : state) {
    sim::Device device(sim::DeviceSpec::TestDevice());
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    ensemble::EnsembleOptions opt;
    opt.app = "amgmk";
    for (int i = 0; i < instances; ++i) {
      opt.instance_args.push_back({"-x", "8", "-y", "8", "-z", "8", "-w", "2",
                                   "-s", StrFormat("%d", i + 1)});
    }
    opt.thread_limit = 64;
    auto run = ensemble::RunEnsemble(env, opt);
    benchmark::DoNotOptimize(run->kernel_cycles);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * instances);
}
BENCHMARK(BM_EnsembleLaunchAmgmk)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// Compute-bound speed gate: the launch-rsbench shape of bench/e2e
/// (`-u 12 -w 8 -p 8 -l 128`, thread limit 32) on the test device. Few
/// sectors per instruction, so its host time is lane resume and awaiter
/// set-up, the layer whose cost grows fastest with the instance count.
void BM_EnsembleLaunchRsbench(benchmark::State& state) {
  apps::RegisterAllApps();
  const int instances = int(state.range(0));
  for (auto _ : state) {
    sim::Device device(sim::DeviceSpec::TestDevice());
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    ensemble::EnsembleOptions opt;
    opt.app = "rsbench";
    for (int i = 0; i < instances; ++i) {
      opt.instance_args.push_back({"-u", "12", "-w", "8", "-p", "8", "-l",
                                   "128", "-s", StrFormat("%d", i + 1)});
    }
    opt.thread_limit = 32;
    auto run = ensemble::RunEnsemble(env, opt);
    benchmark::DoNotOptimize(run->kernel_cycles);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * instances);
}
BENCHMARK(BM_EnsembleLaunchRsbench)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
