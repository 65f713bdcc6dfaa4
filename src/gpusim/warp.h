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

/// Scratch buffers of the warp issue path, one set per launch
/// (LaunchContext::issue_scratch). A launch turns one warp at a time and
/// every issue helper finishes inside its turn, so one set serves every
/// warp; each buffer keeps the capacity of the widest group issued so far,
/// so turns allocate nothing once it is reached. A set per warp would grow
/// to that width in each of the launch's warps and be held until teardown.
struct IssueScratch {
  std::vector<Lane*> group;
  std::vector<Lane*> pending_lanes;  ///< not-yet-issued candidates, lane order
  std::vector<Lane*> processed;
  std::vector<std::uint64_t> sectors;
  std::vector<LaneAccess> accesses;
  std::vector<std::uint64_t> shared_addrs;
};

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
  /// Selects the next issue group from scratch.pending_lanes[0..remaining)
  /// into scratch.group, compacting the rest in place.
  DeviceOp::Kind SelectIssueGroup(IssueScratch& scratch,
                                  std::size_t& remaining);
  /// Issues all pending op groups in program order; returns the final time.
  std::uint64_t ProcessPhase(std::uint64_t now);

  // Issue helpers charge their counters to `stats`, the bucket of the
  // instance the group's leading lane is running (see
  // LaunchContext::IssueStats).
  std::uint64_t IssueMemoryGroup(std::span<Lane*> group, bool is_store,
                                 std::uint64_t t, LaunchStats& stats);
  std::uint64_t IssueBatchGroup(std::span<Lane*> group, std::uint64_t t,
                                bool is_store, LaunchStats& stats);
  /// Functional read of `lane`'s pending run into its packed results.
  void ReadRun(Lane& lane);
  /// Coalesces issue_scratch.accesses and charges the sectors to the
  /// memory hierarchy; `total_bytes` is what the accesses request.
  std::uint64_t IssueGlobal(std::uint64_t total_bytes, bool is_store,
                            std::uint64_t t, LaunchStats& stats);
  std::uint64_t IssueAtomicGroup(std::span<Lane*> group, std::uint64_t t,
                                 LaunchStats& stats);
  std::uint64_t IssueWorkGroup(std::span<Lane*> group, std::uint64_t t,
                               LaunchStats& stats);
  std::uint64_t IssueExternalGroup(std::span<Lane*> group, std::uint64_t t,
                                   LaunchStats& stats);
  void IssueSyncGroup(std::span<Lane*> group, std::uint64_t t);

  Block* block_;
  std::uint32_t warp_id_;
  /// Unique sectors of the warp's latest global memory group: the sector
  /// count its memory trace events report. A shared-memory group touches
  /// no sectors but repeats this count, as the trace goldens pin.
  std::uint32_t last_sectors_ = 0;
  std::span<Lane> lanes_;
  LaunchContext* lc_;  ///< also owns the issue scratch (IssueScratch)
  std::uint64_t queued_wake_ = kNoQueuedWake;
};

}  // namespace dgc::sim
