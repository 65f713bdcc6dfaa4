#include "support/argparse.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>
#include <set>

#include "support/str.h"

namespace dgc {

namespace {

/// Usage() layout: option names in the first column, help text wrapped
/// after it.
constexpr std::size_t kHelpColumn = 33;
constexpr std::size_t kLineWidth = 79;

/// Parses `text` as an integer in `min`..`max`; an error names `flag`.
StatusOr<std::uint64_t> ParseBoundedInt(std::string_view flag,
                                        std::string_view text,
                                        std::uint64_t min, std::uint64_t max) {
  text = TrimWhitespace(text);
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ptr != end || ec == std::errc::invalid_argument) {
    // Not plain digits: a signed integer ("-1", "+5") or not a number.
    DGC_ASSIGN_OR_RETURN(const std::int64_t signed_value, ParseInt(text));
    ec = signed_value < 0 ? std::errc::result_out_of_range : std::errc();
    value = std::uint64_t(signed_value);
  }
  if (ec != std::errc() || value < min || value > max) {
    return Status(ErrorCode::kInvalidArgument,
                  StrFormat("%.*s must be in %llu..%llu, got %.*s",
                            int(flag.size()), flag.data(),
                            (unsigned long long)min, (unsigned long long)max,
                            int(text.size()), text.data()));
  }
  return value;
}

}  // namespace

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

ArgParser& ArgParser::Add(Option option) {
  options_.push_back(std::move(option));
  return *this;
}

ArgParser& ArgParser::AddString(std::string long_name, char short_name,
                                std::string help, std::string* out,
                                bool required) {
  DGC_CHECK(out != nullptr);
  return Add({std::move(long_name), short_name, std::move(help), "<str>",
              out->empty() ? "none" : *out, required,
              [out](std::string_view, std::string_view value) {
                *out = std::string(value);
                return Status::Ok();
              }});
}

ArgParser& ArgParser::AddInt(std::string long_name, char short_name,
                             std::string help, std::int64_t* out,
                             bool required) {
  DGC_CHECK(out != nullptr);
  return Add({std::move(long_name), short_name, std::move(help), "<n>",
              std::to_string(*out), required,
              [out](std::string_view, std::string_view value) -> Status {
                DGC_ASSIGN_OR_RETURN(*out, ParseInt(value));
                return Status::Ok();
              }});
}

template <typename T>
ArgParser& ArgParser::AddUnsigned(std::string long_name, char short_name,
                                  std::string help, T* out, T min) {
  DGC_CHECK(out != nullptr);
  return Add({std::move(long_name), short_name, std::move(help), "<n>",
              std::to_string(*out), false,
              [out, min](std::string_view spelled,
                         std::string_view value) -> Status {
                DGC_ASSIGN_OR_RETURN(
                    const std::uint64_t v,
                    ParseBoundedInt(spelled, value, min,
                                    std::numeric_limits<T>::max()));
                *out = T(v);
                return Status::Ok();
              }});
}

ArgParser& ArgParser::AddInt(std::string long_name, char short_name,
                             std::string help, std::uint32_t* out,
                             std::uint32_t min) {
  return AddUnsigned(std::move(long_name), short_name, std::move(help), out,
                     min);
}

ArgParser& ArgParser::AddInt(std::string long_name, char short_name,
                             std::string help, std::uint64_t* out,
                             std::uint64_t min) {
  return AddUnsigned(std::move(long_name), short_name, std::move(help), out,
                     min);
}

ArgParser& ArgParser::AddIntList(std::string long_name, std::string help,
                                 std::vector<std::uint32_t>* out,
                                 std::uint32_t min) {
  DGC_CHECK(out != nullptr);
  std::string default_text;
  for (std::uint32_t v : *out) {
    if (!default_text.empty()) default_text += ',';
    default_text += std::to_string(v);
  }
  return Add({std::move(long_name), 0, std::move(help), "<n,n,...>",
              default_text.empty() ? "none" : default_text, false,
              [out, min](std::string_view spelled,
                         std::string_view value) -> Status {
                out->clear();
                for (std::string_view part : SplitChar(value, ',')) {
                  DGC_ASSIGN_OR_RETURN(
                      const std::uint64_t v,
                      ParseBoundedInt(spelled, part, min, UINT32_MAX));
                  out->push_back(std::uint32_t(v));
                }
                return Status::Ok();
              }});
}

ArgParser& ArgParser::AddDouble(std::string long_name, char short_name,
                                std::string help, double* out, double lo,
                                double hi, bool hi_closed) {
  DGC_CHECK(out != nullptr);
  return Add({std::move(long_name), short_name, std::move(help), "<x>",
              StrFormat("%g", *out), false,
              [out, lo, hi, hi_closed](std::string_view spelled,
                                       std::string_view value) -> Status {
                DGC_ASSIGN_OR_RETURN(const double v, ParseDouble(value));
                // Written so that NaN, which compares false, fails.
                if (!(v > lo && (v < hi || (hi_closed && v == hi)))) {
                  value = TrimWhitespace(value);
                  return Status(
                      ErrorCode::kInvalidArgument,
                      StrFormat("%.*s must be in (%g, %g%c, got %.*s",
                                int(spelled.size()), spelled.data(), lo, hi,
                                hi_closed ? ']' : ')', int(value.size()),
                                value.data()));
                }
                *out = v;
                return Status::Ok();
              }});
}

ArgParser& ArgParser::AddFlag(std::string long_name, char short_name,
                              std::string help, bool* out) {
  DGC_CHECK(out != nullptr);
  return Add({std::move(long_name), short_name, std::move(help), "",
              *out ? "on" : "off", false,
              [out](std::string_view, std::string_view) {
                *out = true;
                return Status::Ok();
              }});
}

ArgParser& ArgParser::AddSwitch(std::string long_name, std::string help,
                                bool* out) {
  DGC_CHECK(out != nullptr);
  return Add({std::move(long_name), 0, std::move(help), "<on|off>",
              *out ? "on" : "off", false,
              [out](std::string_view spelled, std::string_view value) {
                if (value != "on" && value != "off") {
                  return Status(ErrorCode::kInvalidArgument,
                                std::string(spelled) +
                                    " must be 'on' or 'off'");
                }
                *out = value == "on";
                return Status::Ok();
              }});
}

const ArgParser::Option* ArgParser::Find(std::string_view long_name,
                                         char short_name) const {
  for (const Option& opt : options_) {
    if (!long_name.empty() && opt.long_name == long_name) return &opt;
    if (short_name != 0 && opt.short_name == short_name) return &opt;
  }
  return nullptr;
}

Status ArgParser::Parse(int argc, const char* const* argv) const {
  std::vector<std::string> args;
  args.reserve(std::size_t(argc));
  for (int i = 0; i < argc; ++i) args.emplace_back(argv[i]);
  return Parse(args);
}

Status ArgParser::Parse(const std::vector<std::string>& args) const {
  std::set<const Option*> seen;
  const std::string* positional = nullptr;  // the first one, reported last
  bool options_done = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (options_done || arg.empty() || arg[0] != '-' || arg == "-") {
      if (positional == nullptr) positional = &arg;
      continue;
    }
    if (arg == "--") {
      options_done = true;
      continue;
    }

    const Option* opt = nullptr;
    std::string_view spelled;  // the flag as written, without its value
    std::optional<std::string> inline_value;
    if (StartsWith(arg, "--")) {
      spelled = arg;
      const std::size_t eq = spelled.find('=');
      if (eq != std::string_view::npos) {
        inline_value = arg.substr(eq + 1);
        spelled = spelled.substr(0, eq);
      }
      opt = Find(spelled.substr(2), 0);
    } else {
      spelled = std::string_view(arg).substr(0, 2);
      opt = Find({}, arg[1]);
      if (arg.size() > 2) inline_value = arg.substr(2);  // -n4 style
    }
    if (opt == nullptr) {
      return Status(ErrorCode::kInvalidArgument, "unknown option: " + arg);
    }

    if (opt->value_name.empty()) {
      if (inline_value.has_value()) {
        return Status(ErrorCode::kInvalidArgument,
                      "flag does not take a value: " + arg);
      }
      inline_value.emplace();
    } else if (!inline_value.has_value()) {
      if (i + 1 >= args.size()) {
        return Status(ErrorCode::kInvalidArgument,
                      "option requires a value: " + arg);
      }
      inline_value = args[++i];
    }
    DGC_RETURN_IF_ERROR(opt->set(spelled, *inline_value));
    seen.insert(opt);
  }

  for (const Option& opt : options_) {
    if (opt.required && seen.count(&opt) == 0) {
      std::string name = opt.long_name.empty()
                             ? std::string("-") + opt.short_name
                             : "--" + opt.long_name;
      return Status(ErrorCode::kInvalidArgument,
                    "missing required option: " + name);
    }
  }

  if (positional != nullptr) {
    return Status(ErrorCode::kInvalidArgument,
                  "unexpected positional argument: " + *positional);
  }
  return Status::Ok();
}

std::string ArgParser::Usage(std::string_view program_name) const {
  std::string out = "usage: " + std::string(program_name) + " [options]\n";
  if (!description_.empty()) out += description_ + "\n";
  for (const Option& opt : options_) {
    std::string line = "  ";
    if (opt.short_name != 0) line += StrFormat("-%c", opt.short_name);
    if (opt.short_name != 0 && !opt.long_name.empty()) line += ", ";
    if (!opt.long_name.empty()) line += "--" + opt.long_name;
    if (!opt.value_name.empty()) line += " " + opt.value_name;
    if (line.size() >= kHelpColumn) {
      out += line + "\n";
      line.clear();
    }
    const std::string help =
        opt.help + (opt.required ? " (required)"
                                 : " (default " + opt.default_text + ")");
    for (std::string_view word : SplitChar(help, ' ')) {
      if (line.size() >= kHelpColumn &&
          line.size() + 1 + word.size() > kLineWidth) {
        out += line + "\n";
        line.clear();
      }
      line.resize(std::max(line.size(), kHelpColumn - 1), ' ');
      (line += ' ') += word;
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace dgc
