#include "gpusim/ctx.h"

#include "gpusim/block.h"
#include "gpusim/launch_context.h"
#include "support/str.h"

namespace dgc::sim {

namespace detail {

void RaisePendingTrap() {
  Lane* lane = CurrentLane();
  if (lane == nullptr || lane->pending_trap == TrapKind::kNone) return;
  const TrapKind kind = lane->pending_trap;
  lane->pending_trap = TrapKind::kNone;
  switch (kind) {
    case TrapKind::kWatchdog:
      throw DeviceTrap(
          kind, StrFormat("watchdog: cycle budget exhausted at cycle %llu",
                          (unsigned long long)lane->trap_cycle));
    default:
      throw DeviceTrap(kind,
                       StrFormat("%.*s trap fired at cycle %llu",
                                 int(ToString(kind).size()),
                                 ToString(kind).data(),
                                 (unsigned long long)lane->trap_cycle));
  }
}

}  // namespace detail

detail::SyncAwaiter ThreadCtx::SyncThreads() const {
  return detail::SyncAwaiter(block->barrier());
}

std::uint64_t ThreadCtx::Now() const {
  return block->launch_context()->engine.now();
}

void ThreadCtx::ArmRowWatchdog(std::uint64_t cycles) const {
  block->SetRowWatchdog(tid3.y, cycles == 0 ? 0 : Now() + cycles);
}

}  // namespace dgc::sim
