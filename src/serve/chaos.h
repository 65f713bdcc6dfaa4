// Service-level chaos: a seeded, deterministic fault schedule over the
// *job stream* — the testing story for every service failure path.
//
// Launch-level injection (gpusim/faults.h) answers "what if this lane
// traps"; chaos answers "what if the service is fed garbage": malformed
// submissions, jobs that trap mid-launch, jobs that run pathologically
// slow. Decisions are keyed on the job's 1-based submission ordinal and a
// seed through sim::OrdinalRule, the rule behind FaultPlan's malloc-fail
// and rpc-fail clauses — evaluation order never matters, so a chaos run
// replays byte-identically.
//
// Spec grammar (semicolon-separated clauses):
//   seed@<n>                 decision seed (default 1)
//   malformed@<n>[,...]      reject the n-th submitted job as malformed
//   malformed@p<pct>         ... or each job with pct% probability
//   trap@<n>[,...]           inject a trap into the n-th job's launch slot
//   trap@p<pct>              ... or each job with pct% probability
//   slow@<n>[,...].x<F>      scale the n-th job's compute by F
//   slow@p<pct>.x<F>         ... or each job with pct% probability
//
// Trap/slow decisions are *compiled down* to the launch-level vocabulary
// by the scheduler: job slot S becomes FaultPlan::AddTrap/AddSlowdown on
// the block running S.
#pragma once

#include <cstdint>
#include <string_view>

#include "gpusim/faults.h"
#include "support/status.h"

namespace dgc::serve {

struct ChaosPlan {
  /// OrdinalRule::Fires streams for chaos decisions. FaultPlan's own
  /// clauses use streams 1-2; chaos starts at 16 so a shared seed never
  /// correlates service-level and launch-level injection.
  static constexpr std::uint64_t kMalformedStream = 16;
  static constexpr std::uint64_t kTrapStream = 17;
  static constexpr std::uint64_t kSlowStream = 18;

  std::uint64_t seed = 1;
  sim::OrdinalRule malformed;  ///< job submission ordinals
  sim::OrdinalRule trap;
  sim::OrdinalRule slow;
  std::uint64_t slow_factor = 1;

  /// What chaos does to the job with this submission ordinal.
  struct Decision {
    bool malformed = false;
    bool trap = false;
    std::uint64_t slow_factor = 1;  ///< 1 = unaffected
  };

  /// Stateless, order-independent decision for one submission ordinal.
  Decision Decide(std::uint64_t ordinal) const;

  /// Parses the grammar above; an empty spec yields an empty plan.
  static StatusOr<ChaosPlan> Parse(std::string_view spec);
};

}  // namespace dgc::serve
