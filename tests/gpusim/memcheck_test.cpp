// Tests for the shadow-memory sanitizer (memcheck): out-of-bounds,
// use-after-free, double/invalid free, misaligned accesses, leaks, and the
// cross-instance (ensemble isolation) checker.
#include <gtest/gtest.h>

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

TEST(Memcheck, ResetReportKeepsShadowMap) {
  Rig rig;
  auto a = *rig.device.Malloc(64);
  ASSERT_TRUE(rig.device.Free(a.addr).ok());
  EXPECT_FALSE(rig.device.Free(a.addr).ok());
  EXPECT_EQ(rig.memcheck.report().double_free_count, 1u);
  rig.memcheck.ResetReport();
  EXPECT_TRUE(rig.memcheck.report().clean());
  // The freed shadow survives the reset: a third free is still a double free.
  EXPECT_FALSE(rig.device.Free(a.addr).ok());
  EXPECT_EQ(rig.memcheck.report().double_free_count, 1u);
}

TEST(Memcheck, FindingCapLimitsStorageNotCounting) {
  MemcheckConfig config;
  config.max_findings = 2;
  Device device(DeviceSpec::TestDevice());
  Memcheck memcheck(config);
  memcheck.Attach(device.memory());

  auto a = *device.Malloc(64);
  ASSERT_TRUE(device.Free(a.addr).ok());
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(device.Free(a.addr).ok());
  EXPECT_EQ(memcheck.report().double_free_count, 5u);
  EXPECT_EQ(memcheck.report().findings.size(), 2u);
  EXPECT_NE(memcheck.report().ToString().find("not recorded"),
            std::string::npos);
}

}  // namespace
}  // namespace dgc::sim
