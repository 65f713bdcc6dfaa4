// Tests for the shadow-memory sanitizer (memcheck): out-of-bounds,
// use-after-free, double/invalid free, misaligned accesses, leaks, and the
// cross-instance (ensemble isolation) checker.
#include <gtest/gtest.h>

#include <vector>

#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"

namespace dgc::sim {
namespace {

struct Rig {
  Rig() { memcheck.Attach(device.memory()); }
  Device device{DeviceSpec::TestDevice()};
  Memcheck memcheck;
};

LaunchConfig OneWarp(Memcheck& memcheck) {
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}, .name = "memcheck"};
  cfg.memcheck = &memcheck;
  return cfg;
}

TEST(Memcheck, CleanRunHasNoFindings) {
  Rig rig;
  const int n = 256;
  auto a = *rig.device.Malloc(n * sizeof(double));
  auto b = *rig.device.Malloc(n * sizeof(double));
  auto pa = a.Typed<double>(), pb = b.Typed<double>();
  for (int i = 0; i < n; ++i) pa[i] = i;

  auto result = rig.device.Launch(
      OneWarp(rig.memcheck), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        for (std::uint32_t i = ctx.thread_id; i < n; i += ctx.block_threads) {
          const double v = co_await ctx.Load(pa + i);
          co_await ctx.Store(pb + i, 2.0 * v);
        }
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_TRUE(rig.memcheck.report().clean())
      << rig.memcheck.report().ToString();
  EXPECT_TRUE(result->memcheck.clean());
  EXPECT_EQ(result->stats.memcheck_findings, 0u);
}

TEST(Memcheck, OutOfBoundsInPaddingIsFlaggedAndAttributed) {
  Rig rig;
  // 24 requested bytes round up to a 256-byte arena slot: offset 24 is
  // backed storage but past the requested extent.
  auto buf = *rig.device.Malloc(24);
  auto p = buf.Typed<std::uint64_t>();

  auto result = rig.device.Launch(
      OneWarp(rig.memcheck), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        co_await ctx.Store(p + 3, std::uint64_t{7});  // bytes [24, 32)
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());

  const MemcheckReport& report = rig.memcheck.report();
  EXPECT_EQ(report.oob_count, 1u);
  EXPECT_EQ(report.total(), 1u);
  ASSERT_EQ(report.findings.size(), 1u);
  const MemcheckFinding& f = report.findings[0];
  EXPECT_EQ(f.kind, MemcheckErrorKind::kOutOfBounds);
  EXPECT_EQ(f.addr, buf.addr + 24);
  EXPECT_EQ(f.bytes, 8u);
  EXPECT_TRUE(f.attributed);
  EXPECT_EQ(f.block_id, 0u);
  EXPECT_EQ(f.lane_id, 0u);
  ASSERT_TRUE(f.has_region);
  EXPECT_EQ(f.region_base, buf.addr);
  EXPECT_EQ(f.region_bytes, 24u);
  EXPECT_EQ(result->stats.memcheck_findings, 1u);
  // Backed by real storage, so the store itself went through.
  EXPECT_EQ(p[3], 7u);
}

TEST(Memcheck, UseAfterFreeIsContained) {
  Rig rig;
  auto keep = *rig.device.Malloc(64);
  auto gone = *rig.device.Malloc(64);
  const DeviceAddr dead = gone.addr;
  ASSERT_TRUE(rig.device.Free(dead).ok());

  auto sink = keep.Typed<std::uint64_t>();
  auto result = rig.device.Launch(
      OneWarp(rig.memcheck), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        // The pointer survives the free; the access must not touch the
        // (destroyed) backing store, and the load reads as zero.
        DevicePtr<std::uint64_t> stale{dead, nullptr};
        const std::uint64_t v = co_await ctx.Load(stale);
        co_await ctx.Store(sink, v + 1);
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());

  const MemcheckReport& report = rig.memcheck.report();
  EXPECT_EQ(report.uaf_count, 1u);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings[0].kind, MemcheckErrorKind::kUseAfterFree);
  EXPECT_EQ(report.findings[0].region_base, dead);
  EXPECT_EQ(keep.Typed<std::uint64_t>()[0], 1u);  // load was suppressed to 0
}

TEST(Memcheck, WildAccessIsOutOfBounds) {
  Rig rig;
  auto sink = *rig.device.Malloc(8);
  auto p = sink.Typed<std::uint64_t>();
  auto result = rig.device.Launch(
      OneWarp(rig.memcheck), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        DevicePtr<std::uint64_t> wild{0x40000000, nullptr};
        co_await ctx.Store(p, co_await ctx.Load(wild));
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(rig.memcheck.report().oob_count, 1u);
  EXPECT_FALSE(rig.memcheck.report().findings[0].has_region);
}

TEST(Memcheck, DoubleFreeAndInvalidFree) {
  Rig rig;
  auto a = *rig.device.Malloc(64);
  auto b = *rig.device.Malloc(64);

  ASSERT_TRUE(rig.device.Free(a.addr).ok());
  EXPECT_FALSE(rig.device.Free(a.addr).ok());      // double free
  EXPECT_FALSE(rig.device.Free(b.addr + 8).ok());  // not an allocation base

  const MemcheckReport& report = rig.memcheck.report();
  EXPECT_EQ(report.double_free_count, 1u);
  EXPECT_EQ(report.invalid_free_count, 1u);
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[0].kind, MemcheckErrorKind::kDoubleFree);
  EXPECT_EQ(report.findings[0].region_base, a.addr);
  EXPECT_EQ(report.findings[1].kind, MemcheckErrorKind::kInvalidFree);
  EXPECT_EQ(report.findings[1].addr, b.addr + 8);
  // The interior free still names the region it points into.
  EXPECT_EQ(report.findings[1].region_base, b.addr);
}

TEST(Memcheck, MisalignedAccessIsFlagged) {
  Rig rig;
  auto buf = *rig.device.Malloc(64);
  auto result = rig.device.Launch(
      OneWarp(rig.memcheck), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        // A 4-byte load at base+2: never naturally aligned (bases are
        // 256-byte aligned).
        DevicePtr<std::uint32_t> p{buf.addr + 2,
                                   reinterpret_cast<std::uint32_t*>(
                                       buf.host + 2)};
        (void)co_await ctx.Load(p);
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(rig.memcheck.report().misaligned_count, 1u);
  EXPECT_EQ(rig.memcheck.report().findings[0].kind,
            MemcheckErrorKind::kMisaligned);
}

TEST(Memcheck, BatchElementsOutOfBoundsAreVetoed) {
  Rig rig;
  // The only allocation: 32 doubles fill their 256-byte slot exactly, so
  // element 32 onward has no live backing storage.
  auto buf = *rig.device.Malloc(32 * sizeof(double));
  // Host side of every element, past the end too: a vetoed load must read
  // 0 rather than these values, and a vetoed store must leave them alone.
  std::vector<double> host(48);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = double(i) + 0.5;
  const DevicePtr<double> p{buf.addr, host.data()};

  double run[4] = {}, gathered[3] = {};
  auto result = rig.device.Launch(
      OneWarp(rig.memcheck), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        auto r = ctx.LoadRun<4>(p + 30, 4);  // straddles the end
        co_await r;
        for (std::uint32_t i = 0; i < 4; ++i) run[i] = r.Result(i);
        auto g = ctx.Gather<double, 3>();
        g.Add(p + 31);
        g.Add(p + 40);
        g.Add(p + 0);
        co_await g;
        for (std::uint32_t i = 0; i < 3; ++i) gathered[i] = g.Result(i);
        auto s = ctx.Scatter<double, 2>();
        s.Add(p + 31, 100.0);
        s.Add(p + 33, 200.0);
        co_await s;
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());

  EXPECT_EQ(run[0], 30.5);
  EXPECT_EQ(run[1], 31.5);
  EXPECT_EQ(run[2], 0.0);
  EXPECT_EQ(run[3], 0.0);
  EXPECT_EQ(gathered[0], 31.5);
  EXPECT_EQ(gathered[1], 0.0);
  EXPECT_EQ(gathered[2], 0.5);
  EXPECT_EQ(host[31], 100.0);
  EXPECT_EQ(host[33], 33.5);

  // One attributed finding per out-of-bounds element, in issue order.
  const MemcheckReport& report = rig.memcheck.report();
  EXPECT_EQ(report.oob_count, 4u);
  EXPECT_EQ(report.total(), 4u);
  ASSERT_EQ(report.findings.size(), 4u);
  const struct {
    DeviceOp::Kind op;
    std::uint32_t element;
  } expected[4] = {{DeviceOp::Kind::kLoadBatch, 32},
                   {DeviceOp::Kind::kLoadBatch, 33},
                   {DeviceOp::Kind::kLoadBatch, 40},
                   {DeviceOp::Kind::kStoreBatch, 33}};
  for (int i = 0; i < 4; ++i) {
    const MemcheckFinding& f = report.findings[std::size_t(i)];
    EXPECT_EQ(f.kind, MemcheckErrorKind::kOutOfBounds) << i;
    EXPECT_EQ(f.op, expected[i].op) << i;
    EXPECT_EQ(f.addr, buf.addr + expected[i].element * sizeof(double)) << i;
    EXPECT_EQ(f.bytes, sizeof(double)) << i;
    EXPECT_TRUE(f.attributed) << i;
    EXPECT_EQ(f.thread_id, 0u) << i;
  }
  EXPECT_EQ(result->stats.memcheck_findings, 4u);
}

TEST(Memcheck, DeviceAllocationLeakReportedAtKernelExit) {
  Rig rig;
  auto result = rig.device.Launch(
      OneWarp(rig.memcheck), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        auto leaked = rig.device.Malloc(128);  // device-code alloc, no free
        EXPECT_TRUE(leaked.ok());
        co_return;
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const MemcheckReport& report = rig.memcheck.report();
  EXPECT_EQ(report.leak_count, 1u);
  ASSERT_FALSE(report.findings.empty());
  const MemcheckFinding& f = report.findings[0];
  EXPECT_EQ(f.kind, MemcheckErrorKind::kLeak);
  EXPECT_EQ(f.bytes, 128u);
  EXPECT_TRUE(f.attributed);
  EXPECT_EQ(f.thread_id, 0u);
  EXPECT_EQ(result->stats.memcheck_findings, 1u);
}

TEST(Memcheck, HostAllocationsAreNotLeaks) {
  Rig rig;
  auto buf = *rig.device.Malloc(512);  // host setup allocation, kept live
  (void)buf;
  auto result = rig.device.Launch(
      OneWarp(rig.memcheck),
      [&](ThreadCtx&) -> DeviceTask<void> { co_return; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(rig.memcheck.report().leak_count, 0u);
}

TEST(Memcheck, CrossInstanceWriteToOwnedRegionIsFlagged) {
  Rig rig;
  auto owned = *rig.device.Malloc(64);
  rig.memcheck.TagRegion(owned.addr, /*owner=*/0, "instance 0 heap");
  const std::int32_t row_instance[] = {1};  // team row 0 runs instance 1
  LaunchConfig cfg = OneWarp(rig.memcheck);
  cfg.row_instances = row_instance;

  auto p = owned.Typed<std::uint64_t>();
  auto result = rig.device.Launch(
      cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        (void)co_await ctx.Load(p);             // reads never race
        co_await ctx.Store(p, std::uint64_t{1});  // write crosses instances
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const MemcheckReport& report = rig.memcheck.report();
  EXPECT_EQ(report.cross_instance_count, 1u);
  ASSERT_EQ(report.findings.size(), 1u);
  const MemcheckFinding& f = report.findings[0];
  EXPECT_EQ(f.kind, MemcheckErrorKind::kCrossInstance);
  EXPECT_EQ(f.instance, 1);
  EXPECT_EQ(f.region_owner, 0);
  EXPECT_EQ(f.region_label, "instance 0 heap");
}

TEST(Memcheck, SameInstanceWriteIsClean) {
  Rig rig;
  auto owned = *rig.device.Malloc(64);
  rig.memcheck.TagRegion(owned.addr, /*owner=*/2, "instance 2 heap");
  const std::int32_t row_instance[] = {2};
  LaunchConfig cfg = OneWarp(rig.memcheck);
  cfg.row_instances = row_instance;
  auto p = owned.Typed<std::uint64_t>();
  auto result = rig.device.Launch(
      cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        co_await ctx.Store(p, std::uint64_t{1});
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(rig.memcheck.report().clean())
      << rig.memcheck.report().ToString();
}

TEST(Memcheck, SharedRegionRacesOnSecondWriter) {
  Rig rig;
  auto shared = *rig.device.Malloc(64);
  rig.memcheck.TagRegion(shared.addr, kSharedOwner, "shared global");
  auto p = shared.Typed<std::uint64_t>();

  auto write_once = [&](std::int32_t instance) {
    LaunchConfig cfg = OneWarp(rig.memcheck);
    cfg.row_instances = {&instance, 1};
    auto result = rig.device.Launch(
        cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
          if (ctx.thread_id != 0) co_return;
          co_await ctx.Store(p, std::uint64_t(instance));
        });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };

  write_once(3);  // first writer claims the region
  EXPECT_EQ(rig.memcheck.report().cross_instance_count, 0u);
  write_once(3);  // same instance again: still clean
  EXPECT_EQ(rig.memcheck.report().cross_instance_count, 0u);
  write_once(4);  // a second distinct instance: the race
  EXPECT_EQ(rig.memcheck.report().cross_instance_count, 1u);
  EXPECT_EQ(rig.memcheck.report().findings[0].kind,
            MemcheckErrorKind::kCrossInstance);
}

TEST(Memcheck, AttachAdoptsPreexistingAllocations) {
  Device device(DeviceSpec::TestDevice());
  auto early = *device.Malloc(64);  // allocated before the memcheck exists
  Memcheck memcheck;
  memcheck.Attach(device.memory());

  auto p = early.Typed<std::uint64_t>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  cfg.memcheck = &memcheck;
  auto result = device.Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    if (ctx.thread_id != 0) co_return;
    co_await ctx.Store(p, std::uint64_t{9});
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(memcheck.report().clean()) << memcheck.report().ToString();
  EXPECT_EQ(p[0], 9u);
}

TEST(Memcheck, FindingCapLimitsStorageNotCounting) {
  Device device(DeviceSpec::TestDevice());
  Memcheck memcheck;
  memcheck.Attach(device.memory());

  auto a = *device.Malloc(64);
  ASSERT_TRUE(device.Free(a.addr).ok());
  const std::uint64_t frees = Memcheck::kMaxFindings + 6;
  for (std::uint64_t i = 0; i < frees; ++i) {
    EXPECT_FALSE(device.Free(a.addr).ok());
  }
  EXPECT_EQ(memcheck.report().double_free_count, frees);
  EXPECT_EQ(memcheck.report().findings.size(), Memcheck::kMaxFindings);
  EXPECT_NE(memcheck.report().ToString().find("not recorded"),
            std::string::npos);
}

}  // namespace
}  // namespace dgc::sim
