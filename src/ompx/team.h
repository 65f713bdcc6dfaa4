// OpenMP team abstraction over simulator thread blocks.
//
// In LLVM OpenMP a team maps to one thread block; the paper's ensemble
// loader maps one application *instance* per team. The §3.1 extension maps
// M instances into one block as rows of a (N/M, M, 1) block shape — so a
// "team" here is either a whole block (M = 1) or one row of it (M > 1),
// with its own barrier domain and control state.
//
// The control state implements the deviceRTL-style worker state machine:
// the team's initial thread (rank 0) runs the sequential user code while
// workers park at the team barrier; a `parallel` region publishes a job,
// releases the workers, joins them, and returns to sequential execution.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpusim/barrier.h"
#include "gpusim/block.h"
#include "gpusim/ctx.h"
#include "gpusim/task.h"

namespace dgc::ompx {

/// A parallel-region body: executed by every thread of the team with its
/// rank and the team size (OpenMP `parallel`; `for` loops layer on top).
using ParallelBody = std::function<sim::DeviceTask<void>(
    sim::ThreadCtx&, std::uint32_t rank, std::uint32_t team_size)>;

/// Per-team control block for the worker state machine.
struct TeamState {
  enum class Phase : std::uint8_t { kIdle, kParallel, kTerminate };
  Phase phase = Phase::kIdle;
  const ParallelBody* job = nullptr;  ///< valid while phase == kParallel
  /// Workers currently inside `job` (entered it and have not yet left,
  /// by finishing or by dying).
  std::uint32_t workers_in_job = 0;
};

/// Per-block control: one barrier + state per local team. Created by the
/// first lane of the block to run (deterministically thread 0) and attached
/// to Block::user_state.
struct BlockControl {
  std::vector<std::unique_ptr<sim::Barrier>> team_barriers;
  std::vector<TeamState> team_states;
};

/// View of "my team" for one lane.
struct TeamCtx {
  sim::ThreadCtx* hw = nullptr;   ///< this lane's hardware context
  std::uint32_t team_id = 0;      ///< global team number in the league
  std::uint32_t num_teams = 1;
  std::uint32_t team_rank = 0;    ///< this lane's rank within the team
  std::uint32_t team_size = 1;
  sim::Barrier* barrier = nullptr;
  TeamState* state = nullptr;

  /// Team-wide barrier (all live threads of this team).
  sim::detail::SyncAwaiter Sync() const { return hw->SyncOn(barrier); }
};

/// Lazily creates the block's control state. Must be called before the
/// lane's first suspension point (it is: LaunchTeams calls it first thing).
/// `teams_per_block` is M, `team_size` the threads per team.
BlockControl& EnsureBlockControl(sim::ThreadCtx& ctx,
                                 std::uint32_t teams_per_block,
                                 std::uint32_t team_size);

/// The worker loop run by every non-initial thread of a team: wait for a
/// published job, execute it, join, repeat — until termination.
sim::DeviceTask<void> WorkerLoop(TeamCtx team);

/// Runs `body` on every thread of the team (OpenMP `parallel`). Must be
/// called by the team's initial thread (rank 0); returns when all threads
/// joined. With team_size == 1 the body simply runs inline.
///
/// If rank 0 leaves `body` by an exception (a trap), it still joins, and
/// keeps joining until no live worker is inside `body`, before the
/// exception propagates: the body's captures live in frames that unwinding
/// destroys. The team stays marked in a parallel region, so the ensemble
/// loader does not hand it another instance.
sim::DeviceTask<void> Parallel(TeamCtx& team, const ParallelBody& body);

/// Loop scheduling for ParallelFor.
enum class Schedule {
  /// schedule(static,1): consecutive threads take consecutive iterations —
  /// LLVM's GPU default, because it keeps per-warp accesses coalesced.
  kStaticInterleaved,
  /// schedule(static): each thread takes one contiguous chunk — the CPU
  /// default; on a GPU it scatters each warp's accesses (see the
  /// scheduling test for the measured coalescing difference).
  kStaticChunked,
};

/// `parallel for` over [0, trip_count).
sim::DeviceTask<void> ParallelFor(
    TeamCtx& team, std::uint64_t trip_count,
    const std::function<sim::DeviceTask<void>(sim::ThreadCtx&, std::uint64_t)>&
        body,
    Schedule schedule = Schedule::kStaticInterleaved);

/// Team-wide sum reduction: every thread contributes `value`; every thread
/// receives the total. Uses the team's shared-memory reduction slot.
/// Call from inside a Parallel region (all threads must participate).
sim::DeviceTask<double> TeamReduceSum(TeamCtx& team, double value);

/// Byte offset within the block's shared window of a team's reduction slot;
/// LaunchTeams reserves `teams_per_block * kTeamSharedReserve` bytes.
inline constexpr std::uint32_t kTeamSharedReserve = 64;

}  // namespace dgc::ompx
