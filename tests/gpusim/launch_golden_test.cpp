// Pinned launch outputs: two kernels that exercise every op the issue path
// distinguishes (strided loads/stores, gather batches, atomics, compute,
// block barriers, shared memory, multi-warp blocks, an injected trap),
// each reduced to its kernel cycles plus FNV-1a digests of its LaunchStats
// text and of its memory contents and trace. A refactor of the engine, the
// warp issue path or the stats plumbing must reproduce these exactly; a
// model change that moves them must re-pin them deliberately (every
// mismatch message prints the new value).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpusim/block.h"
#include "gpusim/coalesce.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"
#include "gpusim/trace.h"

namespace dgc::sim {
namespace {

/// FNV-1a (64-bit) over a byte range, chained through `h`.
std::uint64_t Fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t FnvValue(T v, std::uint64_t h) {
  return Fnv1a(&v, sizeof v, h);
}

/// One launch reduced to what the golden values pin.
struct Golden {
  std::uint64_t cycles = 0;
  std::uint64_t stats_digest = 0;   ///< LaunchStats::ToString + failures
  std::uint64_t output_digest = 0;  ///< memory contents, then the trace
};

Golden Digest(const LaunchResult& r, const std::vector<double>& memory,
              const Trace& trace) {
  Golden g;
  g.cycles = r.cycles;
  std::string stats = r.stats.ToString();
  for (const std::string& f : r.failures) stats += "\n" + f;
  g.stats_digest = Fnv1a(stats.data(), stats.size());
  std::uint64_t h = Fnv1a(memory.data(), memory.size() * sizeof(double));
  for (const TraceEvent& e : trace.events()) {
    h = FnvValue(e.block, h);
    h = FnvValue(e.warp, h);
    h = FnvValue(e.sm, h);
    h = FnvValue(std::uint8_t(e.kind), h);
    h = FnvValue(e.issue, h);
    h = FnvValue(e.complete, h);
    h = FnvValue(e.lanes, h);
    h = FnvValue(e.sectors, h);
    h = FnvValue(e.wave, h);
  }
  g.output_digest = h;
  return g;
}

/// Single-warp blocks doing a mix of every op the issue path
/// distinguishes: strided loads/stores, a gather batch, an atomic
/// reduction, compute and a block barrier.
Golden RunMixed() {
  Device dev(DeviceSpec::TestDevice());
  const int n = 512;
  auto buf = *dev.Malloc(n * sizeof(double));
  auto acc = *dev.Malloc(sizeof(double));
  auto p = buf.Typed<double>();
  auto pa = acc.Typed<double>();
  for (int i = 0; i < n; ++i) p[i] = double(i);
  pa[0] = 0.0;

  Trace trace;
  LaunchConfig cfg{.grid = {8, 1, 1}, .block = {32, 1, 1}, .name = "mixed"};
  cfg.trace = &trace;
  auto r = dev.Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t stride = ctx.block_threads * ctx.grid_blocks;
    double local = 0.0;
    for (std::uint32_t i = ctx.block_id * ctx.block_threads + ctx.thread_id;
         i < n; i += stride) {
      const double v = co_await ctx.Load(p + i);
      co_await ctx.Work(3 + (i % 5));
      co_await ctx.Store(p + i, v * 2.0 + 1.0);
      local += v;
    }
    auto g = ctx.Gather<double>();
    for (std::uint32_t k = 0; k < 8; ++k) {
      g.Add(p + ((ctx.thread_id * 37 + k * 61) % n));
    }
    co_await g;
    for (std::uint32_t k = 0; k < 8; ++k) local += g.Result(k);
    co_await ctx.SyncThreads();
    co_await ctx.AtomicAdd(pa, local);
  });
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};

  std::vector<double> memory;
  memory.reserve(std::size_t(n) + 1);
  for (int i = 0; i < n; ++i) memory.push_back(p[i]);
  memory.push_back(pa[0]);
  return Digest(*r, memory, trace);
}

/// Multi-warp blocks (two warps per 64-thread block): a shared-memory
/// reduction through block barriers, shared-bank conflicts, a global
/// strided phase and an atomic tail. Optionally runs under a fault plan
/// (a fresh one per run — consumption counters advance).
Golden RunMultiWarp(const char* fault_spec = nullptr) {
  Device dev(DeviceSpec::TestDevice());
  const int blocks = 4, threads = 64, n = 512;
  auto buf = *dev.Malloc(n * sizeof(double));
  auto out = *dev.Malloc(std::uint64_t(blocks) * sizeof(double));
  auto p = buf.Typed<double>();
  auto po = out.Typed<double>();
  for (int i = 0; i < n; ++i) p[i] = double(i % 17);
  for (int b = 0; b < blocks; ++b) po[b] = 0.0;

  FaultPlan plan;
  if (fault_spec != nullptr) plan = *FaultPlan::Parse(fault_spec);

  Trace trace;
  LaunchConfig cfg{.grid = {std::uint32_t(blocks), 1, 1},
                   .block = {std::uint32_t(threads), 1, 1},
                   .shared_bytes = 64,
                   .name = "multiwarp"};
  cfg.trace = &trace;
  if (fault_spec != nullptr) cfg.faults = &plan;
  auto r = dev.Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto slot = ctx.block->SharedAt<double>(0);
    if (ctx.thread_id == 0) co_await ctx.Store(slot, 0.0);
    co_await ctx.SyncThreads();
    const std::uint32_t stride = ctx.block_threads * ctx.grid_blocks;
    double local = 0.0;
    for (std::uint32_t i = ctx.block_id * ctx.block_threads + ctx.thread_id;
         i < n; i += stride) {
      const double v = co_await ctx.Load(p + i);
      co_await ctx.Work(2 + (i % 3));
      co_await ctx.Store(p + i, v + 1.0);
      local += v;
    }
    co_await ctx.AtomicAdd(slot, local);
    co_await ctx.SyncThreads();
    if (ctx.thread_id == 0) {
      const double sum = co_await ctx.Load(slot);
      co_await ctx.Store(po + ctx.block_id, sum);
    }
  });
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};

  std::vector<double> memory;
  memory.reserve(std::size_t(n + blocks));
  for (int i = 0; i < n; ++i) memory.push_back(p[i]);
  for (int b = 0; b < blocks; ++b) memory.push_back(po[b]);
  return Digest(*r, memory, trace);
}

void ExpectGolden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.stats_digest, want.stats_digest)
      << "stats digest 0x" << std::hex << got.stats_digest;
  EXPECT_EQ(got.output_digest, want.output_digest)
      << "output digest 0x" << std::hex << got.output_digest;
}

// The mixed kernel's values were captured while it still awaited a
// zero-cost host fence after its strided loop; matching them shows the
// fence never changed an output.
constexpr Golden kMixed{1062, 0x97a1554d4711cc5eull, 0xcbecd61789b23806ull};
constexpr Golden kMultiWarp{1088, 0x6e2032feb30464b2ull,
                            0xf82c5e70aa92a2b0ull};
constexpr Golden kMultiWarpTrap{1088, 0x31f62af25fa265a2ull,
                                0x0fc00c398e58df8bull};

TEST(LaunchGolden, MixedKernelMatchesPinnedDigest) {
  ExpectGolden(RunMixed(), kMixed);
}

TEST(LaunchGolden, MixedKernelMatchesPinnedDigestUnderScalarCoalescer) {
  // Both coalescer implementations must produce the same sectors, so the
  // pinned values hold on the scalar reference path too.
  const bool was = SetCoalesceFastPath(false);
  const Golden scalar = RunMixed();
  SetCoalesceFastPath(was);
  ExpectGolden(scalar, kMixed);
}

TEST(LaunchGolden, MultiWarpKernelMatchesPinnedDigest) {
  ExpectGolden(RunMultiWarp(), kMultiWarp);
}

TEST(LaunchGolden, MultiWarpTrapMatchesPinnedDigest) {
  ExpectGolden(RunMultiWarp("trap@b1.w1.c400"), kMultiWarpTrap);
}

}  // namespace
}  // namespace dgc::sim
