// Units and human-readable formatting for the simulator's reporting paths.
#pragma once

#include <cstdint>
#include <string>

namespace dgc {

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

/// "512 B", "3.25 KiB", "40.00 GiB", ...
std::string FormatBytes(std::uint64_t bytes);

/// "12.3 us" / "4.56 ms" / "1.23 s" from seconds.
std::string FormatSeconds(double seconds);

/// Thousands separators: 1234567 -> "1,234,567".
std::string FormatCount(std::uint64_t value);

}  // namespace dgc
