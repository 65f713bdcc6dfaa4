// String helpers used by the argument-file parser, the arg-script language,
// and the command-line parsers of the loader and the mini-apps.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace dgc {

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string_view> SplitChar(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; no empty fields.
std::vector<std::string_view> SplitWhitespace(std::string_view s);

/// Splits a command line into tokens honoring single/double quotes and
/// backslash escapes (the argument-file grammar; see ensemble/argfile.h).
StatusOr<std::vector<std::string>> TokenizeCommandLine(std::string_view line);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Strict integer / floating point parsing (whole string must match).
StatusOr<std::int64_t> ParseInt(std::string_view s);
StatusOr<double> ParseDouble(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dgc
