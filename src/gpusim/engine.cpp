#include "gpusim/engine.h"

#include <algorithm>

#include "gpusim/warp.h"

namespace dgc::sim {

void Engine::Schedule(std::uint64_t t, Warp* warp) {
  if (t < now_) t = now_;
  // Earliest-wake suppression: if the warp already has an undispatched wake
  // queued at or before `t`, this call is a no-op. Turn is time-driven and
  // always re-derives the warp's next wake from lane state before
  // returning (including on turns that had nothing to resume or issue), so
  // the earlier dispatch regenerates any later wake that is still needed.
  // This is what makes multi-source wakes single-shot: a warp woken by,
  // say, a memsys completion and a barrier release before its next turn
  // turns exactly once — the old exact-match rule let a later wake slip past an
  // earlier queued one and dispatch a redundant turn.
  // queued_wake_ is therefore the minimum undispatched queued time (marks
  // only decrease between dispatches) and is cleared when that earliest
  // wake dispatches.
  if (warp->queued_wake() <= t) return;
  warp->set_queued_wake(t);
  heap_.push_back(Event{t, seq_++, warp});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

bool Engine::RunOne() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  const Event ev = heap_.back();
  heap_.pop_back();
  now_ = ev.t;
  if (ev.warp->queued_wake() == ev.t) ev.warp->clear_queued_wake();
  ev.warp->Turn(ev.t);
  return true;
}

}  // namespace dgc::sim
