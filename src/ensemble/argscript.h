// The argument-script language (the paper's §3.2/§6 future work: "a script
// language ... to generate command line arguments for each instance
// dynamically").
//
// A script is an argument file whose lines may contain directives and
// generator expressions; expansion produces a plain argument file (one line
// per instance), which then flows through the normal ensemble loader.
//
//   # directives
//   @seed 42                      # seed for {rand ...} (default 0)
//   @repeat 4 : -a {i+1} -c data-{i+1}.bin   # expand 4x, i = 0..3
//
//   # generators inside { }
//   -g {seq 100 400 100} -p 0.5   # one instance per sequence element
//   -s {rand 1 6}                 # uniform integer in [1, 6]
//   -m {choice small|large}       # element i % 2
//   -k {i*1000+4096}              # integer arithmetic over + - * / % ( )
//
// Rules: every {seq ...} on a line must have the same length, which sets
// the line's instance count (or must equal the @repeat count when both are
// present); `i` is the 0-based instance index of the line, `n` the line's
// instance count. Expansion is deterministic for a given seed. Arithmetic is
// checked: int64 overflow, division or modulo by zero, and nesting deeper
// than 64 levels are errors, never undefined behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace dgc::ensemble {

/// Most instances one script may expand to, summed over its lines. Each
/// line's count is checked against what is left before the line expands,
/// so `@repeat 99999999999 : ...` or a huge `{seq ...}` is rejected at once
/// instead of expanding for minutes. A constant, not an option.
inline constexpr std::uint64_t kMaxScriptInstances = std::uint64_t(1) << 16;

/// Expands a script into plain argument-file text (one line per instance).
StatusOr<std::string> ExpandScript(std::string_view script,
                                   std::uint64_t default_seed = 0);

/// Expands and parses in one step; result[i] is instance i's argv[1..].
StatusOr<std::vector<std::vector<std::string>>> ExpandScriptToArgs(
    std::string_view script, std::uint64_t default_seed = 0);

}  // namespace dgc::ensemble
