#include "support/units.h"

#include "support/str.h"

namespace dgc {

std::string FormatBytes(std::uint64_t bytes) {
  if (bytes < kKiB) return StrFormat("%llu B", (unsigned long long)bytes);
  if (bytes < kMiB) return StrFormat("%.2f KiB", double(bytes) / double(kKiB));
  if (bytes < kGiB) return StrFormat("%.2f MiB", double(bytes) / double(kMiB));
  return StrFormat("%.2f GiB", double(bytes) / double(kGiB));
}

std::string FormatSeconds(double seconds) {
  if (seconds < 1e-6) return StrFormat("%.1f ns", seconds * 1e9);
  if (seconds < 1e-3) return StrFormat("%.2f us", seconds * 1e6);
  if (seconds < 1.0) return StrFormat("%.2f ms", seconds * 1e3);
  return StrFormat("%.3f s", seconds);
}

std::string FormatCount(std::uint64_t value) {
  std::string digits = StrFormat("%llu", (unsigned long long)value);
  std::string out;
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace dgc
