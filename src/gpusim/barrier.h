// Lane-granular barrier.
//
// Barriers synchronize *sets of lanes*: a thread block's __syncthreads is a
// barrier over all live lanes of the block, and the ensemble runtime's
// sub-team mapping (paper §3.1, M instances per block) creates barriers
// over a row of the block. Membership is dynamic: when a lane exits, it is
// removed from its barriers, and a release is re-evaluated — this is what
// lets the main thread of a team terminate while workers idle at a barrier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dgc::sim {

class Engine;
class Lane;

class Barrier {
 public:
  explicit Barrier(std::string name = "barrier") : name_(std::move(name)) {}

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Registers `n` more participating lanes.
  void AddParticipants(std::uint32_t n) { expected_ += n; }

  /// A lane reached the barrier at time `now`. Blocks the lane; when every
  /// current participant has arrived, all waiters are released at the
  /// latest arrival time and their warps are re-scheduled.
  void Arrive(Lane* lane, std::uint64_t now, Engine& engine);

  /// A participating lane terminated; it no longer counts toward release.
  void ParticipantGone(std::uint64_t now, Engine& engine);

  std::uint32_t expected() const { return expected_; }
  std::uint32_t arrived() const { return std::uint32_t(waiters_.size()); }
  const std::string& name() const { return name_; }

 private:
  /// A parked lane plus its arrival time, so the release can charge each
  /// lane's wait (release − arrival) to barrier_stall_cycles.
  struct Waiter {
    Lane* lane;
    std::uint64_t arrived;
  };

  void MaybeRelease(Engine& engine);

  std::string name_;
  std::uint32_t expected_ = 0;
  std::uint64_t max_arrival_ = 0;
  std::vector<Waiter> waiters_;
};

}  // namespace dgc::sim
