// Pinned launch outputs: two kernels that exercise every op the issue path
// distinguishes (strided loads/stores, gather batches, atomics, compute,
// block barriers, shared memory, multi-warp blocks, an injected trap),
// each rendered as a golden document under tests/testdata/: kernel cycles,
// LaunchStats text and failures, memory contents and trace. A refactor of
// the engine, the warp issue path or the stats plumbing must reproduce them
// byte for byte; a model change that moves them must re-pin them
// deliberately (a mismatch names the first differing line and prints the
// cp command that re-pins the golden).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "gpusim/block.h"
#include "gpusim/coalesce.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"
#include "gpusim/trace.h"
#include "golden.h"
#include "support/str.h"

namespace dgc::sim {
namespace {

/// One launch as its golden document: the kernel cycles, the LaunchStats
/// text and failure lines, every memory value exactly, then the trace.
std::string Render(const LaunchResult& r, const std::vector<double>& memory,
                   const Trace& trace) {
  std::string out = StrFormat("cycles %llu\n", (unsigned long long)r.cycles) +
                    r.stats.ToString();
  for (const std::string& f : r.failures) out += f + "\n";
  out += "memory\n";
  for (double v : memory) out += StrFormat("%.17g\n", v);
  out += "trace: block warp sm kind issue complete lanes sectors wave\n";
  for (const TraceEvent& e : trace.events()) {
    const std::string_view kind = TraceKindName(e.kind);
    out += StrFormat("%u %u %d %.*s %llu %llu %u %u %u\n", e.block, e.warp,
                     e.sm, int(kind.size()), kind.data(),
                     (unsigned long long)e.issue,
                     (unsigned long long)e.complete, e.lanes, e.sectors,
                     e.wave);
  }
  return out;
}

/// Single-warp blocks doing a mix of every op the issue path
/// distinguishes: strided loads/stores, a gather batch, an atomic
/// reduction, compute and a block barrier.
std::string RunMixed() {
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
  return Render(*r, memory, trace);
}

/// Multi-warp blocks (two warps per 64-thread block): a shared-memory
/// reduction through block barriers, shared-bank conflicts, a global
/// strided phase and an atomic tail. Optionally runs under a fault plan
/// (a fresh one per run — consumption counters advance).
std::string RunMultiWarp(const char* fault_spec = nullptr) {
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
  return Render(*r, memory, trace);
}

// The mixed kernel's output was first pinned while it still awaited a
// zero-cost host fence after its strided loop; matching it shows the fence
// never changed an output.
TEST(LaunchGolden, MixedKernelMatchesPinnedDigest) {
  ExpectGolden(RunMixed(), "launch_mixed.txt");
}

TEST(LaunchGolden, MixedKernelMatchesPinnedDigestUnderScalarCoalescer) {
  // Both coalescer implementations must produce the same sectors, so the
  // golden holds on the scalar reference path too.
  const bool was = SetCoalesceFastPath(false);
  const std::string scalar = RunMixed();
  SetCoalesceFastPath(was);
  ExpectGolden(scalar, "launch_mixed.txt");
}

TEST(LaunchGolden, MultiWarpKernelMatchesPinnedDigest) {
  ExpectGolden(RunMultiWarp(), "launch_multiwarp.txt");
}

TEST(LaunchGolden, MultiWarpTrapMatchesPinnedDigest) {
  ExpectGolden(RunMultiWarp("trap@b1.w1.c400"),
               "launch_multiwarp_trap.txt");
}

}  // namespace
}  // namespace dgc::sim
