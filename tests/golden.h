// Golden documents: a pinned test output is a text file under
// tests/testdata/, compared byte for byte. A mismatch names the first line
// that differs and prints both versions, writes the actual output under the
// build tree's tests/golden-out/, and prints the cp command that re-pins the
// golden. dgc_add_test defines DGC_GOLDEN_DIR and DGC_GOLDEN_OUT_DIR.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <source_location>
#include <sstream>
#include <string>
#include <string_view>

namespace dgc {

inline void ExpectGolden(
    std::string_view actual, const std::string& name,
    std::source_location caller = std::source_location::current()) {
  const std::string golden_path = std::string(DGC_GOLDEN_DIR) + "/" + name;
  std::ifstream in(golden_path, std::ios::binary);
  std::ostringstream read;
  read << in.rdbuf();
  const std::string golden = read.str();
  if (in && actual == golden) return;

  std::ostringstream msg;
  msg << golden_path << ": ";
  const auto [a, g] = std::mismatch(actual.begin(), actual.end(),
                                    golden.begin(), golden.end());
  const std::size_t at = std::size_t(a - actual.begin());
  const std::size_t newline = actual.substr(0, at).rfind('\n');
  const std::size_t from = newline == std::string_view::npos ? 0 : newline + 1;
  const auto line_of = [from](std::string_view text) {
    return text.substr(from, text.find('\n', from) - from);
  };
  const long line = 1 + std::count(actual.begin(), a, '\n');
  if (!in) {
    msg << "cannot read the golden";
  } else if (a == actual.end()) {
    msg << "the actual output (" << actual.size()
        << " bytes) is a prefix of the golden (" << golden.size()
        << " bytes), which goes on at line " << line;
  } else if (g == golden.end()) {
    msg << "the golden (" << golden.size()
        << " bytes) is a prefix of the actual output (" << actual.size()
        << " bytes), which goes on at line " << line;
  } else {
    msg << "line " << line << " differs\n  golden: " << line_of(golden)
        << "\n  actual: " << line_of(actual);
  }

  std::filesystem::create_directories(DGC_GOLDEN_OUT_DIR);
  const std::string out_path = std::string(DGC_GOLDEN_OUT_DIR) + "/" + name;
  std::ofstream(out_path, std::ios::binary) << actual;
  ADD_FAILURE_AT(caller.file_name(), int(caller.line()))
      << msg.str() << "\nre-pin with: cp " << out_path << " " << golden_path;
}

}  // namespace dgc
