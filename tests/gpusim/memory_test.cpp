#include "gpusim/memory.h"

#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/units.h"

namespace dgc::sim {
namespace {

TEST(DeviceMemory, AllocateAndAccess) {
  DeviceMemory mem(1 << 20);
  auto buf = mem.Allocate(1000);
  ASSERT_TRUE(buf.ok());
  EXPECT_GE(buf->bytes, 1000u);
  EXPECT_EQ(buf->addr % 256, std::uint64_t(kGlobalBase % 256));
  EXPECT_NE(buf->host, nullptr);
  buf->host[0] = std::byte{42};
  EXPECT_EQ(mem.bytes_in_use(), buf->bytes);
}

TEST(DeviceMemory, ZeroBytesRejected) {
  DeviceMemory mem(1 << 20);
  EXPECT_FALSE(mem.Allocate(0).ok());
}

TEST(DeviceMemory, CapacityEnforced) {
  DeviceMemory mem(4096);
  auto a = mem.Allocate(2048);
  ASSERT_TRUE(a.ok());
  auto b = mem.Allocate(4096);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), ErrorCode::kOutOfMemory);
  // Freeing makes space again.
  ASSERT_TRUE(mem.Free(a->addr).ok());
  EXPECT_TRUE(mem.Allocate(4096).ok());
}

// The OOM diagnostic must name the caller's size AND the aligned extent the
// allocator actually tried to reserve — debugging a capacity boundary with
// only one of the two is guesswork.
TEST(DeviceMemory, OomMessageReportsRequestedAndRoundedSize) {
  DeviceMemory mem(4096);
  auto b = mem.Allocate(5000);
  ASSERT_FALSE(b.ok());
  const std::string msg = b.status().ToString();
  EXPECT_NE(msg.find("requested " + FormatBytes(5000)), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rounded to " + FormatBytes(5120)), std::string::npos)
      << msg;
  EXPECT_NE(msg.find(FormatBytes(4096)), std::string::npos) << msg;
}

TEST(DeviceMemory, DistinctAllocationsDoNotOverlap) {
  DeviceMemory mem(1 << 22);
  std::vector<DeviceBuffer> bufs;
  for (int i = 0; i < 50; ++i) {
    auto b = mem.Allocate(100 + std::uint64_t(i) * 13);
    ASSERT_TRUE(b.ok());
    bufs.push_back(*b);
  }
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    for (std::size_t j = i + 1; j < bufs.size(); ++j) {
      const bool disjoint = bufs[i].addr + bufs[i].bytes <= bufs[j].addr ||
                            bufs[j].addr + bufs[j].bytes <= bufs[i].addr;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(DeviceMemory, DeterministicAddresses) {
  auto run = [] {
    DeviceMemory mem(1 << 22);
    std::vector<DeviceAddr> addrs;
    std::vector<DeviceAddr> bases;
    for (int i = 0; i < 20; ++i) {
      auto b = mem.Allocate(64 + std::uint64_t(i) * 300);
      bases.push_back(b->addr);
      addrs.push_back(b->addr);
    }
    // Free every other one, then reallocate.
    for (int i = 0; i < 20; i += 2) EXPECT_TRUE(mem.Free(bases[std::size_t(i)]).ok());
    for (int i = 0; i < 5; ++i) addrs.push_back(mem.Allocate(128)->addr);
    return addrs;
  };
  EXPECT_EQ(run(), run());
}

TEST(DeviceMemory, FreeUnknownAddressFails) {
  DeviceMemory mem(1 << 20);
  EXPECT_FALSE(mem.Free(kGlobalBase + 12345).ok());
}

TEST(DeviceMemory, FreeListReuseAndCoalescing) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.Allocate(1024);
  auto b = *mem.Allocate(1024);
  auto c = *mem.Allocate(1024);
  (void)c;
  ASSERT_TRUE(mem.Free(a.addr).ok());
  ASSERT_TRUE(mem.Free(b.addr).ok());
  // The coalesced hole should satisfy a 2048-byte request at a's address.
  auto d = *mem.Allocate(2048);
  EXPECT_EQ(d.addr, a.addr);
}

// First-fit: a freed hole is reused (and split) before the frontier grows.
TEST(DeviceMemory, FirstFitReusesAndSplitsHoles) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.Allocate(1024);
  auto b = *mem.Allocate(1024);
  auto c = *mem.Allocate(1024);
  (void)c;
  ASSERT_TRUE(mem.Free(a.addr).ok());
  // The 1024-byte hole at a's address satisfies two 512-byte requests.
  auto d = *mem.Allocate(512);
  EXPECT_EQ(d.addr, a.addr);
  auto e = *mem.Allocate(512);
  EXPECT_EQ(e.addr, a.addr + 512);
  // The hole is exhausted: the next allocation extends past c.
  auto f = *mem.Allocate(512);
  EXPECT_EQ(f.addr, c.addr + c.bytes);
  (void)b;
}

// Freeing the middle allocation merges with BOTH neighbours in one step.
TEST(DeviceMemory, CoalescesWithPredecessorAndSuccessor) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.Allocate(1024);
  auto b = *mem.Allocate(1024);
  auto c = *mem.Allocate(1024);
  auto d = *mem.Allocate(1024);  // keeps the merged hole off the frontier
  (void)d;
  ASSERT_TRUE(mem.Free(a.addr).ok());
  ASSERT_TRUE(mem.Free(c.addr).ok());
  ASSERT_TRUE(mem.Free(b.addr).ok());  // merges a|b|c into one 3072 hole
  auto e = *mem.Allocate(3072);
  EXPECT_EQ(e.addr, a.addr);
}

// Holes that touch the frontier are returned to it, so the address space
// does not creep upward across alloc/free cycles.
TEST(DeviceMemory, FrontierReclamation) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.Allocate(1024);
  auto b = *mem.Allocate(1024);
  ASSERT_TRUE(mem.Free(a.addr).ok());  // interior hole
  ASSERT_TRUE(mem.Free(b.addr).ok());  // coalesces, then rejoins the frontier
  // A request larger than either hole starts at the very base again.
  auto c = *mem.Allocate(8192);
  EXPECT_EQ(c.addr, a.addr);
  EXPECT_EQ(c.addr, DeviceAddr(kGlobalBase));
}

TEST(DeviceMemory, PeakTracksHighWater) {
  DeviceMemory mem(1 << 20);
  auto a = *mem.Allocate(4096);
  EXPECT_EQ(mem.peak_bytes(), 4096u);
  ASSERT_TRUE(mem.Free(a.addr).ok());
  EXPECT_EQ(mem.bytes_in_use(), 0u);
  EXPECT_EQ(mem.peak_bytes(), 4096u);
}

TEST(DeviceMemory, TypedPointers) {
  DeviceMemory mem(1 << 20);
  auto buf = *mem.Allocate(64 * sizeof(double));
  DevicePtr<double> p = buf.Typed<double>();
  p[3] = 2.5;
  EXPECT_DOUBLE_EQ(buf.Typed<double>(3).host[0], 2.5);
  EXPECT_EQ((p + 3).addr, buf.addr + 3 * sizeof(double));
}

// Property: a random alloc/free workload never corrupts accounting.
TEST(DeviceMemory, RandomWorkloadInvariants) {
  DeviceMemory mem(1 << 20);
  Rng rng(2024);
  std::vector<DeviceBuffer> live;
  std::uint64_t expected_in_use = 0;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      auto b = mem.Allocate(1 + rng.NextBounded(4096));
      if (b.ok()) {
        live.push_back(*b);
        expected_in_use += b->bytes;
      }
    } else {
      const std::size_t i = std::size_t(rng.NextBounded(live.size()));
      expected_in_use -= live[i].bytes;
      ASSERT_TRUE(mem.Free(live[i].addr).ok());
      live.erase(live.begin() + std::ptrdiff_t(i));
    }
    ASSERT_EQ(mem.bytes_in_use(), expected_in_use);
    ASSERT_EQ(mem.allocation_count(), live.size());
    ASSERT_LE(mem.bytes_in_use(), mem.capacity());
  }
}

}  // namespace
}  // namespace dgc::sim
