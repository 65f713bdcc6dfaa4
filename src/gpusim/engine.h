// Discrete-event engine: a time-ordered queue of warp wake-ups.
//
// The only actor type is the warp (everything else — barriers, block
// completion, SM occupancy — happens synchronously inside warp turns), so
// the engine stays a minimal priority queue. Ties break by insertion order,
// which makes every simulation fully deterministic.
#pragma once

#include <cstdint>
#include <vector>

namespace dgc::sim {

class Warp;

class Engine {
 public:
  /// Schedules a warp turn no earlier than the current time.
  void Schedule(std::uint64_t t, Warp* warp);

  /// Pops and dispatches one event; false when the queue is empty.
  bool RunOne();

  /// Sentinel returned by next_event_time() on an empty queue.
  static constexpr std::uint64_t kNoEvent = ~std::uint64_t(0);

  /// Timestamp of the next event without dispatching it. Lets the run loop
  /// act between events (timeline sampling) without perturbing them.
  std::uint64_t next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_.front().t;
  }

  std::uint64_t now() const { return now_; }

 private:
  struct Event {
    std::uint64_t t;
    std::uint64_t seq;
    Warp* warp;
  };

  /// Heap comparator: a "later-than" predicate, so the front of the
  /// std::push_heap/pop_heap max-heap is the *earliest* event.
  static bool Later(const Event& a, const Event& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }

  std::vector<Event> heap_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace dgc::sim
