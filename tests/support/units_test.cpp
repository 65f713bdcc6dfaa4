#include "support/units.h"

#include <gtest/gtest.h>

namespace dgc {
namespace {

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1024), "1.00 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB + kMiB / 2), "3.50 MiB");
  EXPECT_EQ(FormatBytes(40 * kGiB), "40.00 GiB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(5e-9), "5.0 ns");
  EXPECT_EQ(FormatSeconds(12.3e-6), "12.30 us");
  EXPECT_EQ(FormatSeconds(4.56e-3), "4.56 ms");
  EXPECT_EQ(FormatSeconds(1.234), "1.234 s");
}

TEST(Units, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
}

}  // namespace
}  // namespace dgc
