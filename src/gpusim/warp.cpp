#include "gpusim/warp.h"

#include <algorithm>
#include <cstring>

#include "gpusim/block.h"
#include "gpusim/coalesce.h"
#include "gpusim/engine.h"
#include "gpusim/launch_context.h"
#include "gpusim/memcheck.h"
#include "gpusim/trace.h"
#include "support/str.h"

namespace dgc::sim {
namespace {

// Fixed-size memcpy compiles to a single (unaligned-tolerant) load/store;
// the variable-length fallback is an out-of-line libc call, noticeable at
// one call per lane-slot on the hot path. 8 and 4 cover f64/i64 and
// f32/i32 — essentially all traffic.
std::uint64_t ReadBits(const void* host, std::uint8_t bytes) {
  if (bytes == 8) {
    std::uint64_t b;
    std::memcpy(&b, host, 8);
    return b;
  }
  if (bytes == 4) {
    std::uint32_t b;
    std::memcpy(&b, host, 4);
    return b;
  }
  std::uint64_t b = 0;
  std::memcpy(&b, host, bytes);
  return b;
}

void WriteBits(void* host, std::uint8_t bytes, std::uint64_t bits) {
  if (bytes == 8) {
    std::memcpy(host, &bits, 8);
  } else if (bytes == 4) {
    std::memcpy(host, &bits, 4);
  } else {
    std::memcpy(host, &bits, bytes);
  }
}

}  // namespace

Warp::Warp(Block* block, std::uint32_t warp_id, std::span<Lane> lanes,
           LaunchContext* lc)
    : block_(block), warp_id_(warp_id), lanes_(lanes), lc_(lc) {
  for (Lane& lane : lanes_) lane.warp = this;
}

void Warp::WakeAt(std::uint64_t t, Engine& engine) { engine.Schedule(t, this); }

void Warp::Turn(std::uint64_t now) {
  // Injected trap sites fire at the warp's first turn at or after their
  // cycle: every live lane of the warp is armed, and each raises the trap
  // inside its coroutine at its next resume (a trap is a lane-level event,
  // like a real illegal-instruction fault).
  if (FaultPlan* faults = lc_->config.faults) {
    while (FaultPlan::TrapSite* site =
               faults->MatchTrap(block_->id(), warp_id_, now)) {
      (void)site;
      for (Lane& lane : lanes_) {
        if (lane.root_finished() || lane.state == Lane::State::kDone ||
            lane.state == Lane::State::kFailed) {
          continue;
        }
        if (lane.pending_trap == TrapKind::kNone) {
          lane.pending_trap = TrapKind::kInjected;
          lane.trap_cycle = now;
        }
      }
    }
  }
  ResumePhase(now);
  ProcessPhase(now);

  // Schedule the next turn at the earliest time a lane becomes runnable.
  // Lanes blocked on barriers are woken by the barrier release instead.
  // This scan runs on every turn, including spurious wake-ups: with the
  // engine's earliest-wake suppression (engine.cpp), a suppressed later
  // wake is re-derived here, so skipping the scan could strand a lane.
  std::uint64_t t_next = ~std::uint64_t(0);
  for (Lane& lane : lanes_) {
    if (lane.state != Lane::State::kReady || lane.root_finished()) continue;
    if (lane.pending.kind != DeviceOp::Kind::kNone) continue;
    t_next = std::min(t_next, std::max(lane.ready_at, now + 1));
  }
  if (t_next != ~std::uint64_t(0)) WakeAt(t_next, lc_->engine);
}

void Warp::ResumePhase(std::uint64_t now) {
  const std::uint64_t budget = lc_->config.watchdog_cycles;
  for (Lane& lane : lanes_) {
    if (lane.state != Lane::State::kReady || lane.root_finished()) continue;
    if (lane.pending.kind != DeviceOp::Kind::kNone) continue;
    if (lane.ready_at > now) continue;
    // Watchdog enforcement happens at the resume point: a lane past the
    // launch budget (or its own per-instance deadline) is armed to trap,
    // and the resume below raises it inside the coroutine.
    if (lane.pending_trap == TrapKind::kNone &&
        ((budget != 0 && now >= budget) ||
         (lane.watchdog_deadline != 0 && now >= lane.watchdog_deadline))) {
      lane.pending_trap = TrapKind::kWatchdog;
      lane.trap_cycle = now;
    }
    lane.Resume();
    if (!lane.root_finished()) continue;

    if (std::exception_ptr err = lane.root_error()) {
      lane.state = Lane::State::kFailed;
      std::string what = "unknown device exception";
      TrapKind kind = TrapKind::kNone;
      try {
        std::rethrow_exception(err);
      } catch (const DeviceTrap& trap) {
        what = trap.what();
        kind = trap.kind();
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
      }
      lc_->RecordFailure(block_->id(), lane.thread_id, kind, what);
    } else {
      lane.state = Lane::State::kDone;
    }
    block_->OnLaneDone(&lane, now);
  }
}

DeviceOp::Kind Warp::SelectIssueGroup(IssueScratch& scratch,
                                      std::size_t& remaining) {
  // The first un-issued lane (in lane order) defines the group: all
  // remaining lanes whose pending op matches its kind (and barrier /
  // address space) issue together. A DeviceOp holds stale fields of other
  // kinds, so `barrier` is read only for kSync and `addr` only for the
  // scalar memory kinds (batches are global-only, one space).
  const DeviceOp& lead = scratch.pending_lanes.front()->pending;
  const DeviceOp::Kind kind = lead.kind;
  Barrier* const barrier =
      kind == DeviceOp::Kind::kSync ? lead.barrier : nullptr;
  const bool scalar_mem = kind == DeviceOp::Kind::kLoad ||
                          kind == DeviceOp::Kind::kStore ||
                          kind == DeviceOp::Kind::kAtomic;
  const bool shared_space = scalar_mem && IsSharedAddr(lead.addr);
  scratch.group.clear();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < remaining; ++i) {
    Lane* lane = scratch.pending_lanes[i];
    const bool match =
        lane->pending.kind == kind &&
        (kind != DeviceOp::Kind::kSync || lane->pending.barrier == barrier) &&
        (!scalar_mem || IsSharedAddr(lane->pending.addr) == shared_space);
    if (match) {
      scratch.group.push_back(lane);
    } else {
      scratch.pending_lanes[keep++] = lane;
    }
  }
  remaining = keep;
  return kind;
}

std::uint64_t Warp::ProcessPhase(std::uint64_t now) {
  // Divergent subsets of a warp serialize at ISSUE (one group per issue
  // slot, kIssueCycles apart) but their latencies overlap — both sides of
  // a branch can have memory in flight. The turn completes, and all lanes
  // re-converge, at the slowest group's completion.
  const std::uint64_t kIssueCycles = lc_->spec.issue_cycles;
  std::uint64_t t = now;       // final (max) completion
  std::uint64_t issue = now;   // next group's issue time
  int groups = 0;
  // Candidate lanes are fixed for the whole phase: a lane with a pending op
  // is Ready (blocked lanes surrendered their op at the barrier), issuing a
  // group never hands a new op to another lane, and group order is lane
  // order. One pass collects the candidates; each divergent replay then
  // scans only the not-yet-issued remainder, compacting in place — the
  // repeated full-warp rescans this replaces were the scheduler's main
  // per-turn cost.
  IssueScratch& scratch = lc_->issue_scratch;
  std::vector<Lane*>& group = scratch.group;
  scratch.pending_lanes.clear();
  for (Lane& lane : lanes_) {
    if (lane.state != Lane::State::kReady) continue;
    if (lane.pending.kind == DeviceOp::Kind::kNone) continue;
    scratch.pending_lanes.push_back(&lane);
  }
  std::size_t remaining = scratch.pending_lanes.size();
  while (remaining != 0) {
    const DeviceOp::Kind kind = SelectIssueGroup(scratch, remaining);
    ++groups;
    // One stats sink per issue group, the leading lane's instance. Lanes of
    // a group share an op, and usually a team row, hence an instance. Not
    // always: with thread_limit < 32 and teams_per_block > 1 one warp spans
    // several team rows, and a group mixing them is charged entirely to
    // the leading lane's instance (docs/MODEL.md, "Per-instance
    // attribution").
    LaunchStats& gstats =
        lc_->IssueStats(block_->id(), group.front()->thread_id);
    ++gstats.warp_instructions;

    std::uint64_t t_end = issue;
    switch (kind) {
      case DeviceOp::Kind::kWork:
        ++gstats.compute_instructions;
        t_end = IssueWorkGroup(group, issue, gstats);
        break;
      case DeviceOp::Kind::kLoad:
        ++gstats.load_instructions;
        t_end = IssueMemoryGroup(group, /*is_store=*/false, issue, gstats);
        break;
      case DeviceOp::Kind::kLoadBatch:
        ++gstats.load_instructions;
        t_end = IssueBatchGroup(group, issue, /*is_store=*/false, gstats);
        break;
      case DeviceOp::Kind::kStoreBatch:
        ++gstats.store_instructions;
        t_end = IssueBatchGroup(group, issue, /*is_store=*/true, gstats);
        break;
      case DeviceOp::Kind::kStore:
        ++gstats.store_instructions;
        t_end = IssueMemoryGroup(group, /*is_store=*/true, issue, gstats);
        break;
      case DeviceOp::Kind::kAtomic:
        ++gstats.atomic_instructions;
        t_end = IssueAtomicGroup(group, issue, gstats);
        break;
      case DeviceOp::Kind::kExternal:
        t_end = IssueExternalGroup(group, issue, gstats);
        break;
      case DeviceOp::Kind::kSync:
        IssueSyncGroup(group, issue);
        issue += kIssueCycles;
        continue;  // lanes are blocked; no completion time to propagate
      case DeviceOp::Kind::kNone:
        DGC_CHECK(false);
    }

    t_end = std::max(t_end, issue + 1);  // an instruction costs ≥ 1 cycle
    if (lc_->config.trace != nullptr) {
      const bool is_mem = kind == DeviceOp::Kind::kLoad ||
                          kind == DeviceOp::Kind::kStore ||
                          kind == DeviceOp::Kind::kAtomic ||
                          kind == DeviceOp::Kind::kLoadBatch ||
                          kind == DeviceOp::Kind::kStoreBatch;
      lc_->config.trace->Record({block_->id(), warp_id_, block_->sm()->id(),
                                 kind, issue, t_end,
                                 std::uint32_t(group.size()),
                                 is_mem ? last_sectors_ : 0});
    }
    for (Lane* lane : group) {
      lane->pending.kind = DeviceOp::Kind::kNone;
      scratch.processed.push_back(lane);
    }
    t = std::max(t, t_end);
    issue += kIssueCycles;
  }
  if (groups > 1) {
    lc_->IssueStats(block_->id(), lanes_.front().thread_id).divergent_replays +=
        std::uint64_t(groups - 1);
  }

  // Warp-synchronous re-convergence: every lane processed this turn
  // resumes together at the slowest group's completion. Without this,
  // latency variance between groups staggers the lanes permanently,
  // fragmenting every later turn into ever smaller issue groups — real
  // warps are lockstep and do not do that.
  for (Lane* lane : scratch.processed) {
    if (lane->state == Lane::State::kReady) lane->ready_at = t;
  }
  scratch.processed.clear();
  return t;
}

std::uint64_t Warp::IssueMemoryGroup(std::span<Lane*> group, bool is_store,
                                     std::uint64_t t, LaunchStats& stats) {
  const bool shared_space = IsSharedAddr(group.front()->pending.addr);
  Memcheck* const memcheck = lc_->config.memcheck;
  IssueScratch& scratch = lc_->issue_scratch;

  // Single pass: functional effect at issue time (in lane order — the
  // sanitizer vetoes accesses without live backing storage; the timing
  // charge still applies) fused with the timing-input gather.
  scratch.accesses.clear();
  scratch.shared_addrs.clear();
  std::uint64_t total_bytes = 0;
  for (Lane* lane : group) {
    DeviceOp& op = lane->pending;
    const bool allowed =
        memcheck == nullptr || shared_space ||
        memcheck->CheckAccess(*lane, op.kind, op.addr, op.bytes, is_store);
    if (is_store) {
      if (allowed) WriteBits(op.host, op.bytes, op.bits);
    } else {
      lane->pending_result = allowed ? ReadBits(op.host, op.bytes) : 0;
    }
    if (shared_space) {
      scratch.shared_addrs.push_back(op.addr - kSharedBase);
    } else {
      scratch.accesses.push_back({op.addr, op.bytes});
      total_bytes += op.bytes;
    }
  }

  if (shared_space) {
    return lc_->memsys.AccessShared(scratch.shared_addrs, t, stats);
  }
  return IssueGlobal(total_bytes, is_store, t, stats);
}

std::uint64_t Warp::IssueGlobal(std::uint64_t total_bytes, bool is_store,
                                std::uint64_t t, LaunchStats& stats) {
  IssueScratch& scratch = lc_->issue_scratch;
  CoalesceSectors(scratch.accesses, lc_->spec.sector_bytes, scratch.sectors);
  last_sectors_ = std::uint32_t(scratch.sectors.size());
  stats.global_sectors += scratch.sectors.size();
  stats.ideal_sectors +=
      IdealSectorCountForBytes(total_bytes, lc_->spec.sector_bytes);
  return lc_->memsys.Access(block_->sm()->id(), scratch.sectors, is_store, t,
                            stats);
}

void Warp::ReadRun(Lane& lane) {
  const DeviceOp& op = lane.pending;
  const std::size_t bytes = op.bytes;
  DGC_CHECK_MSG(!IsSharedAddr(op.addr + (op.batch_count - 1) * bytes),
                "LoadRun targets global memory only");
  auto* out = static_cast<unsigned char*>(op.run_results);
  const auto* in = static_cast<const unsigned char*>(op.host);
  Memcheck* const memcheck = lc_->config.memcheck;
  if (memcheck == nullptr) {
    std::memcpy(out, in, bytes * op.batch_count);
    return;
  }
  // Element by element, in element order: the same checks, findings and
  // vetoed zeros as the gather of the run's elements.
  for (std::uint32_t i = 0; i < op.batch_count; ++i) {
    const std::size_t at = i * bytes;
    if (memcheck->CheckAccess(lane, op.kind, op.addr + at, op.bytes,
                              /*is_write=*/false)) {
      std::memcpy(out + at, in + at, bytes);
    } else {
      std::memset(out + at, 0, bytes);
    }
  }
}

std::uint64_t Warp::IssueBatchGroup(std::span<Lane*> group, std::uint64_t t,
                                    bool is_store, LaunchStats& stats) {
  // Pipelined independent loads/stores: every element of every lane
  // coalesces into one stream of sectors that pays bandwidth-serialized
  // service but only one latency trip — the scoreboarded-MLP behaviour of
  // streaming code. A run enters the coalescer as one access spanning its
  // elements: sectors are the union of the bytes touched (coalesce.h), so
  // that is the charge of one access per element.
  Memcheck* const memcheck = lc_->config.memcheck;
  std::vector<LaneAccess>& accesses = lc_->issue_scratch.accesses;
  accesses.clear();
  std::uint64_t total_bytes = 0;
  for (Lane* lane : group) {
    const DeviceOp& op = lane->pending;
    const std::uint8_t bytes = op.bytes;  // uniform over the batch
    total_bytes += std::uint64_t(bytes) * op.batch_count;
    if (!is_store && op.run) {
      ReadRun(*lane);
      accesses.push_back({op.addr, std::uint32_t(bytes) * op.batch_count});
      continue;
    }
    for (std::uint32_t i = 0; i < op.batch_count; ++i) {
      const DeviceAddr addr =
          is_store ? op.store_batch[i].addr : op.batch[i].addr;
      DGC_CHECK_MSG(!IsSharedAddr(addr),
                    "Gather/Scatter target global memory only");
      const bool allowed =
          memcheck == nullptr ||
          memcheck->CheckAccess(*lane, op.kind, addr, bytes, is_store);
      if (is_store) {
        const StoreSlot& slot = op.store_batch[i];
        if (allowed) WriteBits(slot.host, bytes, slot.value);
      } else {
        BatchSlot& slot = op.batch[i];  // its host pointer becomes its value
        slot.result = allowed ? ReadBits(slot.host, bytes) : 0;
      }
      accesses.push_back({addr, bytes});
    }
  }
  return IssueGlobal(total_bytes, is_store, t, stats);
}

std::uint64_t Warp::IssueAtomicGroup(std::span<Lane*> group, std::uint64_t t,
                                     LaunchStats& stats) {
  Memcheck* const memcheck = lc_->config.memcheck;
  IssueScratch& scratch = lc_->issue_scratch;
  const bool shared_space = IsSharedAddr(group.front()->pending.addr);
  // Functional read-modify-write in lane order (deterministic), fused with
  // the timing-input gather.
  scratch.accesses.clear();
  scratch.shared_addrs.clear();
  std::uint64_t total_bytes = 0;
  for (Lane* lane : group) {
    DeviceOp& op = lane->pending;
    const bool allowed =
        memcheck == nullptr || IsSharedAddr(op.addr) ||
        memcheck->CheckAccess(*lane, op.kind, op.addr, op.bytes,
                              /*is_write=*/true);
    lane->pending_result = allowed ? op.apply(op.host, op.bits) : 0;
    if (shared_space) {
      scratch.shared_addrs.push_back(op.addr - kSharedBase);
    } else {
      scratch.accesses.push_back({op.addr, op.bytes});
      total_bytes += op.bytes;
    }
  }
  const std::uint64_t t_end =
      shared_space ? lc_->memsys.AccessShared(scratch.shared_addrs, t, stats)
                   : IssueGlobal(total_bytes, /*is_store=*/true, t, stats);
  // Lanes updating memory atomically serialize on the atomic unit.
  return t_end + std::uint64_t(lc_->spec.atomic_serialization_cycles) *
                     (group.size() - 1);
}

std::uint64_t Warp::IssueWorkGroup(std::span<Lane*> group, std::uint64_t t,
                                   LaunchStats& stats) {
  std::uint64_t cycles = 1;
  for (Lane* lane : group) cycles = std::max(cycles, lane->pending.cycles);
  if (const FaultPlan* faults = lc_->config.faults) {
    // Injected slowdown (e.g. modeling a thermally-throttled block).
    cycles *= faults->WorkScale(block_->id());
  }
  return block_->sm()->IssueCompute(t, cycles, stats);
}

std::uint64_t Warp::IssueExternalGroup(std::span<Lane*> group, std::uint64_t t,
                                       LaunchStats& stats) {
  // Host calls are serviced sequentially by the host RPC thread.
  std::uint64_t t_end = t;
  for (Lane* lane : group) {
    DeviceOp& op = lane->pending;
    lane->pending_result = (*op.external)();
    t_end += std::max<std::uint64_t>(op.cycles, 1);
    ++stats.external_calls;
  }
  return t_end;
}

void Warp::IssueSyncGroup(std::span<Lane*> group, std::uint64_t t) {
  for (Lane* lane : group) {
    Barrier* barrier = lane->pending.barrier;
    lane->pending.kind = DeviceOp::Kind::kNone;
    // Arrivals attribute per lane: with teams packed into one block, lanes
    // of a sync group can belong to different instances.
    ++lc_->IssueStats(block_->id(), lane->thread_id).barrier_arrivals;
    barrier->Arrive(lane, t, lc_->engine);
  }
}

}  // namespace dgc::sim
