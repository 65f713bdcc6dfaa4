#include "support/argparse.h"

#include <set>

#include "support/str.h"

namespace dgc {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

ArgParser& ArgParser::AddString(std::string long_name, char short_name,
                                std::string help, std::string* out,
                                bool required) {
  DGC_CHECK(out != nullptr);
  options_.push_back({std::move(long_name), short_name, std::move(help),
                      Kind::kString, required, out, nullptr, nullptr, nullptr});
  return *this;
}

ArgParser& ArgParser::AddInt(std::string long_name, char short_name,
                             std::string help, std::int64_t* out,
                             bool required) {
  DGC_CHECK(out != nullptr);
  options_.push_back({std::move(long_name), short_name, std::move(help),
                      Kind::kInt, required, nullptr, out, nullptr, nullptr});
  return *this;
}

ArgParser& ArgParser::AddDouble(std::string long_name, char short_name,
                                std::string help, double* out, bool required) {
  DGC_CHECK(out != nullptr);
  options_.push_back({std::move(long_name), short_name, std::move(help),
                      Kind::kDouble, required, nullptr, nullptr, out, nullptr});
  return *this;
}

ArgParser& ArgParser::AddFlag(std::string long_name, char short_name,
                              std::string help, bool* out) {
  DGC_CHECK(out != nullptr);
  options_.push_back({std::move(long_name), short_name, std::move(help),
                      Kind::kFlag, false, nullptr, nullptr, nullptr, out});
  return *this;
}

const ArgParser::Option* ArgParser::Find(std::string_view long_name,
                                         char short_name) const {
  for (const Option& opt : options_) {
    if (!long_name.empty() && opt.long_name == long_name) return &opt;
    if (short_name != 0 && opt.short_name == short_name) return &opt;
  }
  return nullptr;
}

Status ArgParser::Apply(const Option& opt, std::string_view value) {
  switch (opt.kind) {
    case Kind::kString:
      *opt.str_out = std::string(value);
      return Status::Ok();
    case Kind::kInt: {
      DGC_ASSIGN_OR_RETURN(*opt.int_out, ParseInt(value));
      return Status::Ok();
    }
    case Kind::kDouble: {
      DGC_ASSIGN_OR_RETURN(*opt.dbl_out, ParseDouble(value));
      return Status::Ok();
    }
    case Kind::kFlag:
      *opt.flag_out = true;
      return Status::Ok();
  }
  return Status(ErrorCode::kInternal, "unknown option kind");
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
    std::optional<std::string> inline_value;
    if (StartsWith(arg, "--")) {
      std::string_view body = std::string_view(arg).substr(2);
      const std::size_t eq = body.find('=');
      if (eq != std::string_view::npos) {
        inline_value = std::string(body.substr(eq + 1));
        body = body.substr(0, eq);
      }
      opt = Find(body, 0);
      if (opt == nullptr) {
        return Status(ErrorCode::kInvalidArgument, "unknown option: " + arg);
      }
    } else {
      if (arg.size() < 2) {
        return Status(ErrorCode::kInvalidArgument, "malformed option: " + arg);
      }
      opt = Find({}, arg[1]);
      if (opt == nullptr) {
        return Status(ErrorCode::kInvalidArgument, "unknown option: " + arg);
      }
      if (arg.size() > 2) inline_value = arg.substr(2);  // -n4 style
    }

    if (opt->kind == Kind::kFlag) {
      if (inline_value.has_value()) {
        return Status(ErrorCode::kInvalidArgument,
                      "flag does not take a value: " + arg);
      }
      *opt->flag_out = true;
      seen.insert(opt);
      continue;
    }

    std::string value;
    if (inline_value.has_value()) {
      value = *inline_value;
    } else {
      if (i + 1 >= args.size()) {
        return Status(ErrorCode::kInvalidArgument,
                      "option requires a value: " + arg);
      }
      value = args[++i];
    }
    DGC_RETURN_IF_ERROR(Apply(*opt, value));
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
  std::string out = StrFormat("usage: %.*s [options]\n",
                              int(program_name.size()), program_name.data());
  if (!description_.empty()) out += description_ + "\n";
  for (const Option& opt : options_) {
    std::string names;
    if (opt.short_name != 0) names += StrFormat("-%c", opt.short_name);
    if (!opt.long_name.empty()) {
      if (!names.empty()) names += ", ";
      names += "--" + opt.long_name;
    }
    if (opt.kind != Kind::kFlag) names += " <value>";
    out += StrFormat("  %-28s %s%s\n", names.c_str(), opt.help.c_str(),
                     opt.required ? " (required)" : "");
  }
  return out;
}

}  // namespace dgc
