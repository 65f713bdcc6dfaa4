// A small declarative command-line parser: the one place a flag is
// declared, bounded and documented.
//
// Every command line in the system goes through it: the dgc-run and
// dgc-serve front ends (dgc-run registers the ensemble loader's -f/-n/-t
// flags, §3.2 of the paper, on the same parser as its own), the bench
// binaries, and each mini-app instance's command line. It supports short
// (-n 4) and long (--instances 4, --instances=4) options, boolean flags,
// on|off switches and repeated options (the last one wins); a positional
// argument is an error. Unsigned integer options bind straight to their
// uint32/uint64 fields with a minimum, and the field type's maximum bounds
// them from above; real options are bounded by an interval. Usage() prints
// each option's default, read from its field when the option is
// registered. Parsing never touches global state, so many instances can
// parse "their" argv in the same process — exactly what ensemble execution
// needs.
#pragma once

#include <cstdint>
#include <functional>
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
  /// Any int64 value (seeds keep their full bit pattern).
  ArgParser& AddInt(std::string long_name, char short_name, std::string help,
                    std::int64_t* out, bool required = false);
  /// A value in `min`..the field type's maximum; anything else is an error
  /// naming the flag as the user spelled it ("-t must be in 1..4294967295,
  /// got 4294967328").
  ArgParser& AddInt(std::string long_name, char short_name, std::string help,
                    std::uint32_t* out, std::uint32_t min);
  ArgParser& AddInt(std::string long_name, char short_name, std::string help,
                    std::uint64_t* out, std::uint64_t min);
  /// `--<long_name> <n,n,...>`: a comma-separated list, each value bounded
  /// like a uint32 AddInt option.
  ArgParser& AddIntList(std::string long_name, std::string help,
                        std::vector<std::uint32_t>* out, std::uint32_t min);
  /// A real value above `lo` and below `hi` (or up to `hi` itself when
  /// `hi_closed`); anything else, NaN included, is an error naming the flag
  /// as the user spelled it ("-a must be in (0, 1), got nan").
  ArgParser& AddDouble(std::string long_name, char short_name,
                       std::string help, double* out, double lo, double hi,
                       bool hi_closed = false);
  /// Boolean flag: present → true.
  ArgParser& AddFlag(std::string long_name, char short_name, std::string help,
                     bool* out);
  /// `--<long_name> on|off`.
  ArgParser& AddSwitch(std::string long_name, std::string help, bool* out);
  /// Parses argv (excluding argv[0]). "--" terminates option parsing, so
  /// anything after it is an (unexpected) positional argument.
  Status Parse(int argc, const char* const* argv) const;
  Status Parse(const std::vector<std::string>& args) const;

  /// Usage text: program description, then one line per option with its
  /// help and its default (or "required").
  std::string Usage(std::string_view program_name) const;

 private:
  struct Option {
    std::string long_name;
    char short_name = 0;
    std::string help;
    std::string value_name;    ///< "" for a flag, which takes no value
    std::string default_text;  ///< the bound field's value at registration
    bool required = false;
    /// Stores `value` in the bound field; `spelled` is the flag as written.
    std::function<Status(std::string_view spelled, std::string_view value)>
        set;
  };

  ArgParser& Add(Option option);
  template <typename T>
  ArgParser& AddUnsigned(std::string long_name, char short_name,
                         std::string help, T* out, T min);
  const Option* Find(std::string_view long_name, char short_name) const;

  std::string description_;
  std::vector<Option> options_;
};

}  // namespace dgc
