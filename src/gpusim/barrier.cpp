#include "gpusim/barrier.h"

#include "gpusim/block.h"
#include "gpusim/engine.h"
#include "gpusim/lane.h"
#include "gpusim/launch_context.h"
#include "gpusim/warp.h"
#include "support/status.h"

namespace dgc::sim {

void Barrier::Arrive(Lane* lane, std::uint64_t now, Engine& engine) {
  DGC_CHECK_MSG(waiters_.size() < expected_,
                "barrier '" + name_ + "': more arrivals than participants");
  lane->state = Lane::State::kBlocked;
  waiters_.push_back({lane, now});
  max_arrival_ = std::max(max_arrival_, now);
  MaybeRelease(engine);
}

void Barrier::ParticipantGone(std::uint64_t now, Engine& engine) {
  DGC_CHECK_MSG(expected_ > 0, "barrier '" + name_ + "': underflow");
  --expected_;
  max_arrival_ = std::max(max_arrival_, now);
  MaybeRelease(engine);
}

void Barrier::MaybeRelease(Engine& engine) {
  if (expected_ == 0 || waiters_.size() < expected_) return;
  const std::uint64_t t = max_arrival_;
  max_arrival_ = 0;
  // WakeAt only schedules (no re-entry), and clear() below keeps capacity.
  for (const Waiter& w : waiters_) {
    Lane* lane = w.lane;
    // Each lane stalled from its own arrival to the (shared) release.
    if (lane->block != nullptr && t > w.arrived) {
      lane->block->launch_context()
          ->IssueStats(lane->block->id(), lane->thread_id)
          .barrier_stall_cycles += t - w.arrived;
    }
    lane->state = Lane::State::kReady;
    lane->ready_at = t;
    lane->warp->WakeAt(t, engine);
  }
  waiters_.clear();
}

}  // namespace dgc::sim
