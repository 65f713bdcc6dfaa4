// Content-keyed instance-shared read-only segments (DeviceMemory): one
// physical copy per (key, size), refcounted teardown through the ordinary
// Free path, snapshot counters, and per-owner accounting.
#include <gtest/gtest.h>

#include <functional>

#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/memory.h"

namespace dgc::sim {
namespace {

TEST(SharedSegment, FirstAcquireMaterializesLaterAcquiresAttach) {
  DeviceMemory mem(1 << 20);
  auto a = mem.AcquireShared(0xfeed, 1024, "grid");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->first);
  const std::uint64_t one_copy = mem.bytes_in_use();

  auto b = mem.AcquireShared(0xfeed, 1024, "grid");
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->first);
  EXPECT_EQ(b->buffer.addr, a->buffer.addr);
  EXPECT_EQ(b->buffer.host, a->buffer.host);
  // An attach maps the same storage: no new physical bytes.
  EXPECT_EQ(mem.bytes_in_use(), one_copy);
  EXPECT_EQ(mem.allocation_count(), 1u);
  EXPECT_TRUE(mem.IsShared(a->buffer.addr));
}

TEST(SharedSegment, DistinctKeysGetDistinctStorage) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.AcquireShared(1, 512);
  auto b = *mem.AcquireShared(2, 512);
  EXPECT_NE(a.buffer.addr, b.buffer.addr);
  EXPECT_TRUE(a.first);
  EXPECT_TRUE(b.first);
}

// The map key is (content key, size): a key collision across different
// sizes must never alias storage.
TEST(SharedSegment, SameKeyDifferentSizeIsADifferentSegment) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.AcquireShared(7, 512);
  auto b = *mem.AcquireShared(7, 1024);
  EXPECT_NE(a.buffer.addr, b.buffer.addr);
  EXPECT_TRUE(b.first);
}

TEST(SharedSegment, ZeroByteSegmentRejected) {
  DeviceMemory mem(1 << 20);
  EXPECT_FALSE(mem.AcquireShared(1, 0).ok());
}

TEST(SharedSegment, RefcountedTeardownReclaimsOnLastFree) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.AcquireShared(9, 2048);
  auto b = *mem.AcquireShared(9, 2048);
  ASSERT_EQ(a.buffer.addr, b.buffer.addr);

  // First free drops a reference; the storage survives.
  ASSERT_TRUE(mem.Free(a.buffer.addr).ok());
  EXPECT_TRUE(mem.IsShared(a.buffer.addr));
  EXPECT_EQ(mem.bytes_in_use(), 2048u);
  EXPECT_NE(mem.HostPtr(a.buffer.addr), nullptr);

  // Last free reclaims, and the hole is reusable.
  ASSERT_TRUE(mem.Free(b.buffer.addr).ok());
  EXPECT_FALSE(mem.IsShared(a.buffer.addr));
  EXPECT_EQ(mem.bytes_in_use(), 0u);
  auto c = *mem.Allocate(2048);
  EXPECT_EQ(c.addr, a.buffer.addr);
}

TEST(SharedSegment, ReacquireAfterFullTeardownMaterializesAgain) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.AcquireShared(3, 256);
  ASSERT_TRUE(mem.Free(a.buffer.addr).ok());
  auto b = *mem.AcquireShared(3, 256);
  EXPECT_TRUE(b.first);  // the old contents are gone; caller must refill
}

TEST(SharedSegment, SnapshotCountsMaterializationsAttachesAndSavings) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.AcquireShared(1, 1000);  // rounds to 1024
  (void)a;
  (void)*mem.AcquireShared(1, 1000);
  (void)*mem.AcquireShared(1, 1000);
  (void)*mem.AcquireShared(2, 512);

  const DeviceMemSnapshot snap = mem.Snapshot();
  EXPECT_EQ(snap.shared_live, 2u);
  EXPECT_EQ(snap.shared_materialized, 2u);
  EXPECT_EQ(snap.shared_attaches, 2u);
  // Each attach saved one rounded copy of the 1000-byte segment.
  EXPECT_EQ(snap.shared_bytes_saved, 2 * 1024u);
  EXPECT_EQ(snap.bytes_in_use, 1024u + 512u);
  EXPECT_EQ(snap.allocation_count, 2u);
  EXPECT_EQ(snap.capacity, std::uint64_t(1) << 20);
}

TEST(SharedSegment, AcquirePropagatesOom) {
  DeviceMemory mem(4096);
  auto a = mem.AcquireShared(1, 4096);
  ASSERT_TRUE(a.ok());
  auto b = mem.AcquireShared(2, 4096);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), ErrorCode::kOutOfMemory);
  // The failed acquire left no half-registered segment behind.
  EXPECT_EQ(mem.Snapshot().shared_live, 1u);
}

// Listener contract: OnSharedRegion fires once per physical copy, after its
// OnAlloc, and never for attaches.
TEST(SharedSegment, ListenerSeesOneSharedRegionPerCopy) {
  struct Probe : AllocationListener {
    std::vector<DeviceAddr> allocs, shared, frees;
    std::vector<std::string> labels;
    void OnAlloc(DeviceAddr addr, std::uint64_t, std::uint64_t) override {
      allocs.push_back(addr);
    }
    void OnFree(DeviceAddr addr, std::uint64_t) override {
      frees.push_back(addr);
    }
    void OnFreeFailed(DeviceAddr) override {}
    void OnSharedRegion(DeviceAddr addr, const std::string& label) override {
      shared.push_back(addr);
      labels.push_back(label);
    }
  };
  Probe probe;
  DeviceMemory mem(1 << 20);
  mem.set_listener(&probe);

  auto a = *mem.AcquireShared(5, 128, "xs[0]");
  (void)*mem.AcquireShared(5, 128, "xs[0]");
  ASSERT_EQ(probe.allocs.size(), 1u);
  ASSERT_EQ(probe.shared.size(), 1u);
  EXPECT_EQ(probe.shared[0], a.buffer.addr);
  EXPECT_EQ(probe.labels[0], "xs[0]");

  // Refcounted teardown: OnFree only on the last release.
  ASSERT_TRUE(mem.Free(a.buffer.addr).ok());
  EXPECT_TRUE(probe.frees.empty());
  ASSERT_TRUE(mem.Free(a.buffer.addr).ok());
  ASSERT_EQ(probe.frees.size(), 1u);
  EXPECT_EQ(probe.frees[0], a.buffer.addr);
}

// Per-owner accounting: an allocation belongs to the instance the
// allocating lane is running (its launch's row table); shared physical
// bytes are attributed to the materializing owner only.
TEST(SharedSegment, OwnerAccountingAttributesMaterializerOnly) {
  Device device(DeviceSpec::TestDevice());
  DeviceMemory& mem = device.memory();
  // Runs `body` on lane 0 of a one-row launch whose row runs `instance`.
  auto as_instance = [&](std::int32_t instance,
                         const std::function<void()>& body) {
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
    cfg.row_instances = {&instance, 1};
    auto r = device.Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
      if (ctx.thread_id == 0) body();
      co_return;
    });
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };

  DeviceBuffer a, p0, p1;
  as_instance(0, [&] {
    a = mem.AcquireShared(11, 1024)->buffer;
    p0 = *mem.Allocate(512);
  });
  as_instance(1, [&] {
    (void)*mem.AcquireShared(11, 1024);  // attach: costs owner 1 nothing
    p1 = *mem.Allocate(256);
  });

  const auto& stats = mem.owner_stats();
  ASSERT_TRUE(stats.count(0));
  ASSERT_TRUE(stats.count(1));
  EXPECT_EQ(stats.at(0).bytes_in_use, 1024u + 512u);
  EXPECT_EQ(stats.at(0).total_allocations, 2u);
  EXPECT_EQ(stats.at(1).bytes_in_use, 256u);
  EXPECT_EQ(stats.at(1).total_allocations, 1u);
  EXPECT_EQ(stats.at(1).peak_bytes, 256u);

  // Frees rebalance the same books.
  ASSERT_TRUE(mem.Free(p0.addr).ok());
  ASSERT_TRUE(mem.Free(p1.addr).ok());
  ASSERT_TRUE(mem.Free(a.addr).ok());
  ASSERT_TRUE(mem.Free(a.addr).ok());
  EXPECT_EQ(stats.at(0).bytes_in_use, 0u);
  EXPECT_EQ(stats.at(0).live_allocations, 0u);
  EXPECT_EQ(stats.at(1).bytes_in_use, 0u);
  EXPECT_EQ(stats.at(0).peak_bytes, 1024u + 512u);
}

TEST(SharedSegment, UnresolvedAllocationsLandInOwnerMinusOne) {
  DeviceMemory mem(1 << 20);
  (void)*mem.Allocate(128);  // host-side: no lane, no instance
  const auto& stats = mem.owner_stats();
  ASSERT_TRUE(stats.count(-1));
  EXPECT_EQ(stats.at(-1).bytes_in_use, 256u);  // rounded to alignment
}

}  // namespace
}  // namespace dgc::sim
