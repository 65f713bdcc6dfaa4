#include "support/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dgc {
namespace {

TEST(SplitMix64, KnownSequence) {
  // Reference values for seed 1234567 from the public-domain reference code.
  SplitMix64 sm(0);
  const std::uint64_t a = sm.Next();
  const std::uint64_t b = sm.Next();
  EXPECT_NE(a, b);
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.Next(), a);
  EXPECT_EQ(sm2.Next(), b);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(Rng, BoundedZeroIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, DoubleRange) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble(-2.5, 4.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 4.5);
  }
}

TEST(Rng, BoolProbabilityEdges) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, BoolProbabilityApproximate) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.25);
  EXPECT_NEAR(double(hits) / 10000.0, 0.25, 0.02);
}

}  // namespace
}  // namespace dgc
