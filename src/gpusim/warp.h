// Warp: 32 lanes executed in lockstep by the discrete-event scheduler.
//
// A warp "turn" (one engine event) resumes every runnable lane to its next
// suspension point, then issues the collected operations: memory accesses
// are coalesced into sectors and charged to the memory hierarchy, compute
// occupies an SM issue pipe, barrier arrivals block lanes, and host calls
// run their callbacks. Lanes suspended on *different* operation kinds
// serialize into separate issue groups — the divergence penalty.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/coalesce.h"
#include "gpusim/lane.h"

namespace dgc::sim {

class Block;
class Engine;
struct LaunchContext;
struct LaunchStats;

class Warp {
 public:
  Warp(Block* block, std::uint32_t warp_id, std::span<Lane> lanes,
       LaunchContext* lc);

  Warp(const Warp&) = delete;
  Warp& operator=(const Warp&) = delete;

  /// Schedules a turn at time `t` (idempotent-safe: spurious turns are
  /// harmless, so duplicate wake-ups are allowed).
  void WakeAt(std::uint64_t t, Engine& engine);

  /// One scheduler turn at time `now`; called by the engine.
  void Turn(std::uint64_t now);

  std::uint32_t id() const { return warp_id_; }
  Block* block() const { return block_; }

  /// Engine bookkeeping for duplicate wake-up suppression (engine.cpp):
  /// the time of one not-yet-dispatched queued wake, or kNoQueuedWake.
  static constexpr std::uint64_t kNoQueuedWake = ~std::uint64_t(0);
  std::uint64_t queued_wake() const { return queued_wake_; }
  void set_queued_wake(std::uint64_t t) { queued_wake_ = t; }
  void clear_queued_wake() { queued_wake_ = kNoQueuedWake; }

 private:
  /// Resumes runnable lanes to their next suspension; records terminations.
  void ResumePhase(std::uint64_t now);
  /// Selects the next issue group from pending_lanes_[0..remaining) into
  /// group_, compacting the rest in place.
  DeviceOp::Kind SelectIssueGroup(std::size_t& remaining);
  /// Issues all pending op groups in program order; returns the final time.
  std::uint64_t ProcessPhase(std::uint64_t now);

  // Issue helpers charge their counters to `stats`, the bucket of the
  // instance the group's leading lane is running (see
  // LaunchContext::IssueStats).
  std::uint64_t IssueMemoryGroup(std::span<Lane*> group, bool is_store,
                                 std::uint64_t t, LaunchStats& stats);
  std::uint64_t IssueBatchGroup(std::span<Lane*> group, std::uint64_t t,
                                bool is_store, LaunchStats& stats);
  std::uint64_t IssueAtomicGroup(std::span<Lane*> group, std::uint64_t t,
                                 LaunchStats& stats);
  std::uint64_t IssueWorkGroup(std::span<Lane*> group, std::uint64_t t,
                               LaunchStats& stats);
  std::uint64_t IssueExternalGroup(std::span<Lane*> group, std::uint64_t t,
                                   LaunchStats& stats);
  void IssueSyncGroup(std::span<Lane*> group, std::uint64_t t);

  Block* block_;
  std::uint32_t warp_id_;
  std::span<Lane> lanes_;
  LaunchContext* lc_;

  // Scratch buffers reused across turns (no per-turn allocation). The
  // issue helpers run to completion inside one turn, so one buffer of each
  // shape serves every group.
  std::vector<Lane*> group_;
  std::vector<Lane*> pending_lanes_;  ///< not-yet-issued candidates, lane order
  std::vector<Lane*> processed_;
  std::vector<std::uint64_t> sectors_;
  std::vector<LaneAccess> accesses_;
  std::vector<std::uint64_t> shared_addrs_;

  std::uint64_t queued_wake_ = kNoQueuedWake;
};

}  // namespace dgc::sim
