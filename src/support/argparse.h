// A small declarative command-line parser.
//
// Used twice: by the ensemble loader for its own flags (-f/-n/-t, §3.2 of the
// paper) and by the mini-apps for their per-instance command lines. It
// supports short (-n 4) and long (--instances 4, --instances=4) options,
// boolean flags and repeated options; a positional argument is an error.
// Parsing never touches global state, so many instances can parse "their"
// argv in the same process — exactly what ensemble execution needs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace dgc {

class ArgParser {
 public:
  explicit ArgParser(std::string program_description = {});

  /// Registers `-<short_name>/--<long_name> <value>`; either name may be
  /// empty. `required` options must appear. Returns *this for chaining.
  ArgParser& AddString(std::string long_name, char short_name,
                       std::string help, std::string* out,
                       bool required = false);
  ArgParser& AddInt(std::string long_name, char short_name, std::string help,
                    std::int64_t* out, bool required = false);
  ArgParser& AddDouble(std::string long_name, char short_name,
                       std::string help, double* out, bool required = false);
  /// Boolean flag: present → true.
  ArgParser& AddFlag(std::string long_name, char short_name, std::string help,
                     bool* out);
  /// Parses argv (excluding argv[0]). "--" terminates option parsing, so
  /// anything after it is an (unexpected) positional argument.
  Status Parse(int argc, const char* const* argv) const;
  Status Parse(const std::vector<std::string>& args) const;

  /// Usage text (program description + per-option help lines).
  std::string Usage(std::string_view program_name) const;

 private:
  enum class Kind { kString, kInt, kDouble, kFlag };
  struct Option {
    std::string long_name;
    char short_name = 0;
    std::string help;
    Kind kind = Kind::kString;
    bool required = false;
    std::string* str_out = nullptr;
    std::int64_t* int_out = nullptr;
    double* dbl_out = nullptr;
    bool* flag_out = nullptr;
  };

  const Option* Find(std::string_view long_name, char short_name) const;
  static Status Apply(const Option& opt, std::string_view value);

  std::string description_;
  std::vector<Option> options_;
};

}  // namespace dgc
