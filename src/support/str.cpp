#include "support/str.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dgc {
namespace {
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}
}  // namespace

std::string_view TrimWhitespace(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> SplitChar(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsSpace(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !IsSpace(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

StatusOr<std::vector<std::string>> TokenizeCommandLine(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  bool in_token = false;
  char quote = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quote != 0) {
      if (c == quote) {
        quote = 0;
      } else if (c == '\\' && quote == '"' && i + 1 < line.size() &&
                 (line[i + 1] == '"' || line[i + 1] == '\\')) {
        current += line[++i];
      } else {
        current += c;
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      in_token = true;
    } else if (c == '\\') {
      if (i + 1 >= line.size()) {
        return Status(ErrorCode::kInvalidArgument,
                      "trailing backslash in command line");
      }
      current += line[++i];
      in_token = true;
    } else if (IsSpace(c)) {
      if (in_token) {
        tokens.push_back(std::move(current));
        current.clear();
        in_token = false;
      }
    } else {
      current += c;
      in_token = true;
    }
  }
  if (quote != 0) {
    return Status(ErrorCode::kInvalidArgument, "unterminated quote in command line");
  }
  if (in_token) tokens.push_back(std::move(current));
  return tokens;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += sep;
    out += pieces[i];
  }
  return out;
}

StatusOr<std::int64_t> ParseInt(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status(ErrorCode::kInvalidArgument, "empty integer");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status(ErrorCode::kInvalidArgument, "integer out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status(ErrorCode::kInvalidArgument, "not an integer: " + buf);
  }
  return std::int64_t(v);
}

StatusOr<double> ParseDouble(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status(ErrorCode::kInvalidArgument, "empty number");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status(ErrorCode::kInvalidArgument, "number out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status(ErrorCode::kInvalidArgument, "not a number: " + buf);
  }
  return v;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(std::size_t(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

}  // namespace dgc
