#include "serve/chaos.h"

#include "support/str.h"

namespace dgc::serve {

namespace {

Status BadClause(std::string_view clause, const char* why) {
  return Status(ErrorCode::kInvalidArgument,
                StrFormat("bad chaos clause '%.*s': %s", int(clause.size()),
                          clause.data(), why));
}

}  // namespace

ChaosPlan::Decision ChaosPlan::Decide(std::uint64_t ordinal) const {
  Decision d;
  d.malformed = malformed.Fires(seed, kMalformedStream, ordinal);
  // A malformed job never reaches a launch, so further decisions are moot
  // but still computed — keeping every decision independent of the others
  // is what makes the schedule replayable clause by clause.
  d.trap = trap.Fires(seed, kTrapStream, ordinal);
  const bool slowed = slow.Fires(seed, kSlowStream, ordinal);
  d.slow_factor = slowed && slow_factor > 1 ? slow_factor : 1;
  return d;
}

StatusOr<ChaosPlan> ChaosPlan::Parse(std::string_view spec) {
  ChaosPlan plan;
  for (std::string_view raw : SplitChar(spec, ';')) {
    const std::string_view clause = TrimWhitespace(raw);
    if (clause.empty()) continue;
    const std::size_t at = clause.find('@');
    if (at == std::string_view::npos) {
      return BadClause(clause, "expected <kind>@<value>");
    }
    const std::string_view kind = clause.substr(0, at);
    std::string_view value = clause.substr(at + 1);
    if (kind == "seed") {
      auto v = ParseInt(value);
      if (!v.ok() || *v < 0) return BadClause(clause, "bad seed");
      plan.seed = std::uint64_t(*v);
    } else if (kind == "malformed" || kind == "trap" || kind == "slow") {
      sim::OrdinalRule& rule = kind == "malformed" ? plan.malformed
                               : kind == "trap"    ? plan.trap
                                                   : plan.slow;
      if (kind == "slow") {
        // slow@<list|p..>.x<F> — the factor rides after the last '.'.
        const std::size_t dot = value.rfind(".x");
        if (dot == std::string_view::npos) {
          return BadClause(clause, "expected slow@<jobs>.x<factor>");
        }
        auto factor = ParseInt(value.substr(dot + 2));
        if (!factor.ok() || *factor < 1) {
          return BadClause(clause, "factor must be >= 1");
        }
        plan.slow_factor = std::uint64_t(*factor);
        value = value.substr(0, dot);
      }
      if (Status s = rule.Parse(value); !s.ok()) {
        return BadClause(clause, s.message().c_str());
      }
    } else {
      return BadClause(clause, "unknown kind (seed, malformed, trap, slow)");
    }
  }
  return plan;
}

}  // namespace dgc::serve
