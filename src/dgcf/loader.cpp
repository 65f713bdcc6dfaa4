#include "dgcf/loader.h"

namespace dgc::dgcf {

std::string_view ToString(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kReturned: return "returned";
    case TerminationReason::kNotStarted: return "not-started";
    case TerminationReason::kException: return "exception";
    case TerminationReason::kTrapOOM: return "oom";
    case TerminationReason::kTrapAbort: return "abort";
    case TerminationReason::kTrapInjected: return "injected";
    case TerminationReason::kDeadlock: return "deadlock";
    case TerminationReason::kWatchdog: return "watchdog";
  }
  return "unknown";
}

TerminationReason ReasonForTrap(sim::TrapKind kind) {
  switch (kind) {
    case sim::TrapKind::kOOM: return TerminationReason::kTrapOOM;
    case sim::TrapKind::kAbort: return TerminationReason::kTrapAbort;
    case sim::TrapKind::kWatchdog: return TerminationReason::kWatchdog;
    case sim::TrapKind::kInjected: return TerminationReason::kTrapInjected;
    case sim::TrapKind::kNone: break;
  }
  return TerminationReason::kException;
}

}  // namespace dgc::dgcf
