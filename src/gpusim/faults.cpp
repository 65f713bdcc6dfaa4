#include "gpusim/faults.h"

#include "support/rng.h"
#include "support/str.h"

namespace dgc::sim {

std::string_view ToString(TrapKind kind) {
  switch (kind) {
    case TrapKind::kNone: return "none";
    case TrapKind::kOOM: return "oom";
    case TrapKind::kAbort: return "abort";
    case TrapKind::kWatchdog: return "watchdog";
    case TrapKind::kInjected: return "injected";
  }
  return "unknown";
}

Status OrdinalRule::Parse(std::string_view value) {
  if (!value.empty() && value[0] == 'p') {
    auto pct = ParseDouble(value.substr(1));
    if (!pct.ok() || *pct < 0.0 || *pct > 100.0) {
      return Status(ErrorCode::kInvalidArgument,
                    "probability must be p<0..100>");
    }
    p = *pct / 100.0;
    return Status::Ok();
  }
  for (std::string_view part : SplitChar(value, ',')) {
    auto n = ParseInt(part);
    if (!n.ok() || *n < 1) {
      return Status(ErrorCode::kInvalidArgument,
                    "ordinals are 1-based positive integers");
    }
    ordinals.push_back(std::uint64_t(*n));
  }
  return Status::Ok();
}

bool OrdinalRule::Fires(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t ordinal) const {
  for (std::uint64_t listed : ordinals) {
    if (listed == ordinal) return true;
  }
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  SplitMix64 mix(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^ ordinal);
  return double(mix.Next() >> 11) * 0x1.0p-53 < p;
}

bool FaultPlan::NextMallocFails() {
  return malloc_fail.Fires(seed, 1, ++malloc_calls);
}

bool FaultPlan::NextRpcFails() { return rpc_fail.Fires(seed, 2, ++rpc_calls); }

FaultPlan::TrapSite* FaultPlan::MatchTrap(std::uint32_t block,
                                          std::uint32_t warp,
                                          std::uint64_t now) {
  for (TrapSite& site : traps) {
    if (site.fired || site.block != block || site.warp != warp) continue;
    if (now < site.cycle) continue;
    site.fired = true;
    return &site;
  }
  return nullptr;
}

std::uint64_t FaultPlan::WorkScale(std::uint32_t block) const {
  for (const Slowdown& s : slowdowns) {
    if (s.block == block) return s.factor == 0 ? 1 : s.factor;
  }
  return 1;
}

namespace {

Status BadClause(std::string_view clause, const char* why) {
  return Status(ErrorCode::kInvalidArgument,
                StrFormat("bad fault clause '%.*s': %s", int(clause.size()),
                          clause.data(), why));
}

/// Parses "<letter><int>" (e.g. "b3"); whole field must match.
StatusOr<std::uint64_t> ParsePrefixed(std::string_view field, char prefix,
                                      std::string_view clause) {
  if (field.size() < 2 || field[0] != prefix) {
    return BadClause(clause, "expected <letter><number> fields");
  }
  auto v = ParseInt(field.substr(1));
  if (!v.ok() || *v < 0) {
    return BadClause(clause, "expected a non-negative number");
  }
  return std::uint64_t(*v);
}

/// ParsePrefixed for a block or warp id, which must fit its uint32 field.
StatusOr<std::uint32_t> ParseId(std::string_view field, char prefix,
                                std::string_view clause) {
  DGC_ASSIGN_OR_RETURN(const std::uint64_t id,
                       ParsePrefixed(field, prefix, clause));
  if (id > UINT32_MAX) {
    return BadClause(clause, "block and warp ids must be at most 4294967295");
  }
  return std::uint32_t(id);
}

}  // namespace

StatusOr<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  for (std::string_view raw : SplitChar(spec, ';')) {
    const std::string_view clause = TrimWhitespace(raw);
    if (clause.empty()) continue;
    const std::size_t at = clause.find('@');
    if (at == std::string_view::npos) {
      return BadClause(clause, "expected <kind>@<value>");
    }
    const std::string_view kind = clause.substr(0, at);
    const std::string_view value = clause.substr(at + 1);
    if (kind == "seed") {
      auto v = ParseInt(value);
      if (!v.ok() || *v < 0) return BadClause(clause, "bad seed");
      plan.seed = std::uint64_t(*v);
    } else if (kind == "malloc-fail" || kind == "rpc-fail") {
      OrdinalRule& rule =
          kind == "malloc-fail" ? plan.malloc_fail : plan.rpc_fail;
      if (Status s = rule.Parse(value); !s.ok()) {
        return BadClause(clause, s.message().c_str());
      }
    } else if (kind == "trap") {
      const auto fields = SplitChar(value, '.');
      if (fields.size() != 3) {
        return BadClause(clause, "expected trap@b<B>.w<W>.c<C>");
      }
      TrapSite site;
      DGC_ASSIGN_OR_RETURN(site.block, ParseId(fields[0], 'b', clause));
      DGC_ASSIGN_OR_RETURN(site.warp, ParseId(fields[1], 'w', clause));
      DGC_ASSIGN_OR_RETURN(site.cycle, ParsePrefixed(fields[2], 'c', clause));
      plan.traps.push_back(site);
    } else if (kind == "slow") {
      const auto fields = SplitChar(value, '.');
      if (fields.size() != 2) {
        return BadClause(clause, "expected slow@b<B>.x<F>");
      }
      Slowdown slow;
      DGC_ASSIGN_OR_RETURN(slow.block, ParseId(fields[0], 'b', clause));
      DGC_ASSIGN_OR_RETURN(slow.factor, ParsePrefixed(fields[1], 'x', clause));
      if (slow.factor == 0) return BadClause(clause, "factor must be >= 1");
      plan.slowdowns.push_back(slow);
    } else {
      return BadClause(clause,
                       "unknown kind (seed, malloc-fail, rpc-fail, trap, slow)");
    }
  }
  return plan;
}

}  // namespace dgc::sim
