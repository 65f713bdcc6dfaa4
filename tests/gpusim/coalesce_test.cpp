#include "gpusim/coalesce.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gpusim/stats.h"
#include "support/rng.h"

namespace dgc::sim {
namespace {

constexpr std::uint32_t kSector = 32;

std::vector<std::uint64_t> Sectors(std::vector<LaneAccess> accesses) {
  std::vector<std::uint64_t> out;
  CoalesceSectors(accesses, kSector, out);
  return out;
}

/// The ideal sector count the warp issue loops charge: requested bytes
/// summed over the lanes, then IdealSectorCountForBytes.
std::uint64_t Ideal(const std::vector<LaneAccess>& accesses) {
  std::uint64_t total = 0;
  for (const LaneAccess& a : accesses) total += a.bytes;
  return IdealSectorCountForBytes(total, kSector);
}

TEST(Coalesce, ContiguousDoublesAreFullyCoalesced) {
  // 32 lanes × 8-byte loads, consecutive: 256 bytes → 8 sectors.
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({0x10000 + std::uint64_t(i) * 8, 8});
  }
  EXPECT_EQ(Sectors(accesses).size(), 8u);
  EXPECT_EQ(Ideal(accesses), 8u);
}

TEST(Coalesce, StridedAccessesExplode) {
  // 32 lanes, stride 128 bytes: each lane in its own sector.
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({0x10000 + std::uint64_t(i) * 128, 8});
  }
  EXPECT_EQ(Sectors(accesses).size(), 32u);
  EXPECT_EQ(Ideal(accesses), 8u);
}

TEST(Coalesce, SameAddressBroadcast) {
  std::vector<LaneAccess> accesses(32, LaneAccess{0x10008, 4});
  EXPECT_EQ(Sectors(accesses).size(), 1u);
}

TEST(Coalesce, BroadcastIdealExceedsGlobalSoEfficiencyIsAboveOne) {
  // ideal_sectors counts requested bytes, not touched bytes: 32 lanes
  // loading one double request 256 bytes (8 sectors) but touch 1 sector.
  std::vector<LaneAccess> accesses(32, LaneAccess{0x10000, 8});
  LaunchStats stats;
  stats.global_sectors = Sectors(accesses).size();
  stats.ideal_sectors = Ideal(accesses);
  EXPECT_EQ(stats.global_sectors, 1u);
  EXPECT_EQ(stats.ideal_sectors, 8u);
  EXPECT_GT(stats.ideal_sectors, stats.global_sectors);
  EXPECT_DOUBLE_EQ(stats.CoalescingEfficiency(), 8.0);
}

TEST(Coalesce, StraddlingAccessCoversTwoSectors) {
  // 8-byte access at sector_end-4 touches two sectors.
  std::vector<LaneAccess> accesses{{kSector - 4, 8}};
  EXPECT_EQ(Sectors(accesses).size(), 2u);
}

TEST(Coalesce, InactiveLanesIgnored) {
  std::vector<LaneAccess> accesses(32, LaneAccess{0, 0});
  accesses[5] = {0x20000, 8};
  EXPECT_EQ(Sectors(accesses).size(), 1u);
  EXPECT_EQ(Ideal(accesses), 1u);
}

TEST(Coalesce, EmptyInput) {
  EXPECT_TRUE(Sectors({}).empty());
  EXPECT_EQ(Ideal({}), 0u);
}

TEST(Coalesce, OutputSortedUnique) {
  std::vector<LaneAccess> accesses{
      {0x30000, 8}, {0x10000, 8}, {0x30000, 8}, {0x20000, 8}};
  auto sectors = Sectors(accesses);
  EXPECT_TRUE(std::is_sorted(sectors.begin(), sectors.end()));
  EXPECT_EQ(std::adjacent_find(sectors.begin(), sectors.end()), sectors.end());
  EXPECT_EQ(sectors.size(), 3u);
}

// Property: permutation invariance — the sector set does not depend on the
// lane order of the accesses.
TEST(CoalesceProperty, PermutationInvariance) {
  Rng rng(314);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<LaneAccess> accesses;
    for (int i = 0; i < 32; ++i) {
      accesses.push_back(
          {0x10000 + rng.NextBounded(4096), 1u << rng.NextBounded(4)});
    }
    auto base = Sectors(accesses);
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = accesses.size(); i > 1; --i) {
      std::swap(accesses[i - 1], accesses[rng.NextBounded(i)]);
    }
    EXPECT_EQ(Sectors(accesses), base);
  }
}

// Property: bounds — sector count is between the ideal count and the total
// number of (access × covered-sector) pairs.
TEST(CoalesceProperty, SectorCountBounds) {
  Rng rng(2718);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<LaneAccess> accesses;
    std::uint64_t upper = 0;
    for (int i = 0; i < 32; ++i) {
      const std::uint32_t bytes = 1u << rng.NextBounded(4);
      const std::uint64_t addr = 0x10000 + rng.NextBounded(1 << 16);
      accesses.push_back({addr, bytes});
      upper += (addr + bytes - 1) / kSector - addr / kSector + 1;
    }
    const auto sectors = Sectors(accesses);
    EXPECT_GE(sectors.size(), Ideal(accesses) > 32
                                  ? 0u  // ideal can exceed actual only via overlap
                                  : 0u);
    EXPECT_LE(sectors.size(), upper);
    EXPECT_GE(sectors.size(), 1u);
  }
}

// --- Fast path == scalar reference ------------------------------------------
//
// CoalesceSectors carries shape-dependent shortcuts (direct sector-run for
// unit-stride warps, sort elision for pre-sorted patterns); its contract
// is bit-identical output to CoalesceSectorsScalar for EVERY input.

std::vector<std::uint64_t> ScalarSectors(
    const std::vector<LaneAccess>& accesses) {
  std::vector<std::uint64_t> out;
  CoalesceSectorsScalar(accesses, kSector, out);
  return out;
}

TEST(CoalesceFastPath, MatchesScalarOnCanonicalShapes) {
  const std::vector<std::vector<LaneAccess>> shapes = {
      {},                                   // empty
      {{0x1000, 8}},                        // single lane
      std::vector<LaneAccess>(32, LaneAccess{0x2000, 4}),  // broadcast
      std::vector<LaneAccess>(32, LaneAccess{0, 0}),       // all inactive
  };
  for (const auto& accesses : shapes) {
    EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses));
  }
  // Full-warp unit stride at several widths and (mis)alignments — the
  // direct-run fast path.
  for (const std::uint32_t bytes : {1u, 4u, 8u, 16u, 32u, 48u}) {
    for (const std::uint64_t base : {0x10000ull, 0x10003ull, 0x1001cull}) {
      std::vector<LaneAccess> accesses;
      for (int i = 0; i < 32; ++i) {
        accesses.push_back({base + std::uint64_t(i) * bytes, bytes});
      }
      EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses))
          << "bytes=" << bytes << " base=" << base;
    }
  }
}

TEST(CoalesceFastPathProperty, MatchesScalarOnRandomizedPatterns) {
  Rng rng(424242);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<LaneAccess> accesses;
    const std::uint32_t lanes = 1 + rng.NextBounded(32);
    const std::uint32_t mode = rng.NextBounded(4);
    for (std::uint32_t i = 0; i < lanes; ++i) {
      std::uint32_t bytes = 1u << rng.NextBounded(6);
      std::uint64_t addr = 0;
      switch (mode) {
        case 0:  // strided (ascending, possibly gappy)
          addr = 0x40000 + std::uint64_t(i) * (8 + rng.NextBounded(256));
          break;
        case 1:  // overlapping / duplicated
          addr = 0x40000 + rng.NextBounded(64);
          break;
        case 2:  // misaligned scattered
          addr = 0x40000 + rng.NextBounded(1 << 18) + rng.NextBounded(31);
          break;
        default:  // mixed with inactive (zero-byte) lanes
          addr = 0x40000 + rng.NextBounded(4096);
          if (rng.NextBounded(3) == 0) bytes = 0;
          break;
      }
      accesses.push_back({addr, bytes});
    }
    EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses))
        << "trial=" << trial << " mode=" << mode;
  }
}

/// One warp batch group: 32 lanes, each contributing `slots` accesses, as
/// Warp::IssueBatchGroup flattens them (lane by lane, slot by slot).
std::vector<LaneAccess> BatchGroup(Rng& rng, std::uint32_t slots,
                                   std::uint64_t base,
                                   std::uint64_t window_bytes) {
  std::vector<LaneAccess> accesses;
  const std::uint32_t mode = rng.NextBounded(4);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    const std::uint64_t run = base + rng.NextBounded(window_bytes);
    for (std::uint32_t i = 0; i < slots; ++i) {
      std::uint32_t bytes = 8;
      std::uint64_t addr = 0;
      switch (mode) {
        case 0:  // LoadRun: a contiguous run per lane at a random window
          addr = run + std::uint64_t(i) * 8;
          break;
        case 1:  // gather: random elements of one array
          addr = base + rng.NextBounded(window_bytes) / 8 * 8;
          break;
        case 2:  // misaligned, straddling, mixed widths
          bytes = 1u << rng.NextBounded(7);
          addr = base + rng.NextBounded(window_bytes);
          break;
        default:  // duplicates and inactive (zero-byte) slots
          addr = base + rng.NextBounded(8) * 32 + rng.NextBounded(24);
          if (rng.NextBounded(4) == 0) bytes = 0;
          break;
      }
      accesses.push_back({addr, bytes});
    }
  }
  return accesses;
}

TEST(CoalesceFastPathProperty, MatchesScalarOnBatchShapedGroups) {
  // Batch groups reach 32 lanes x 96 slots. Windows from a few sectors up
  // to past the bitmap's 65,536-sector span, at bases whose sector ids
  // exceed 2^32.
  Rng rng(1903);
  for (const std::uint64_t base : {0x40000ull, (1ull << 40) + 4, 1ull << 58}) {
    for (const std::uint64_t window :
         {256ull, 1ull << 16, 200000ull * 8, 1ull << 21, 1ull << 24}) {
      for (int trial = 0; trial < 12; ++trial) {
        const std::uint32_t slots = 1 + rng.NextBounded(96);
        const auto accesses = BatchGroup(rng, slots, base, window);
        ASSERT_EQ(Sectors(accesses), ScalarSectors(accesses))
            << "base=" << base << " window=" << window << " slots=" << slots;
      }
    }
  }
}

TEST(CoalesceFastPathProperty, MatchesScalarAtTheBitmapLimits) {
  // Unsorted groups whose sector span sits just inside and just outside
  // both bitmap bounds: 1,024 words, and 64 + 4 words per expanded sector.
  constexpr std::uint64_t kWordSectors = 64;
  for (const std::uint64_t lo_sector : {5ull, (1ull << 33) + 17}) {
    const std::uint64_t lo = lo_sector * kSector;
    for (const std::uint64_t span_words : {1023ull, 1024ull, 1025ull}) {
      // Enough expanded sectors that only the 1,024-word bound applies.
      std::vector<LaneAccess> accesses;
      const std::uint64_t hi = lo + (span_words * kWordSectors - 1) * kSector;
      accesses.push_back({hi, 8});
      for (std::uint32_t i = 0; i < 300; ++i) {
        accesses.push_back({lo + std::uint64_t(i) * 7 * kSector % (hi - lo),
                            i % 5 == 0 ? 48u : 8u});
      }
      accesses.push_back({lo, 8});
      EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses))
          << "span_words=" << span_words;
    }
    for (const std::uint64_t span_words : {71ull, 72ull, 73ull}) {
      // Two expanded sectors: words <= 64 + 4 * 2 decides.
      const std::uint64_t hi = lo + (span_words * kWordSectors - 1) * kSector;
      const std::vector<LaneAccess> accesses{{hi, 8}, {lo, 8}};
      EXPECT_EQ(Sectors(accesses), (std::vector<std::uint64_t>{
                                       lo / kSector, hi / kSector}));
      EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses));
    }
  }
}

TEST(CoalesceFastPath, ToggleRoutesThroughScalar) {
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({0x10000 + std::uint64_t(i) * 8, 8});
  }
  ASSERT_TRUE(CoalesceFastPathEnabled());
  const bool was = SetCoalesceFastPath(false);
  EXPECT_TRUE(was);
  EXPECT_FALSE(CoalesceFastPathEnabled());
  EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses));
  SetCoalesceFastPath(true);
}

// Property: merging two warps' accesses never yields fewer sectors than the
// union of their separate coalescing results would suggest (sub-additivity).
TEST(CoalesceProperty, SubAdditivity) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<LaneAccess> a, b, both;
    for (int i = 0; i < 16; ++i) {
      a.push_back({0x10000 + rng.NextBounded(2048), 8});
      b.push_back({0x10000 + rng.NextBounded(2048), 8});
    }
    both = a;
    both.insert(both.end(), b.begin(), b.end());
    EXPECT_LE(Sectors(both).size(), Sectors(a).size() + Sectors(b).size());
    EXPECT_GE(Sectors(both).size(),
              std::max(Sectors(a).size(), Sectors(b).size()));
  }
}

}  // namespace
}  // namespace dgc::sim
