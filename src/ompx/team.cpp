#include "ompx/team.h"

#include "support/str.h"

namespace dgc::ompx {

BlockControl& EnsureBlockControl(sim::ThreadCtx& ctx,
                                 std::uint32_t teams_per_block,
                                 std::uint32_t team_size) {
  sim::Block& block = *ctx.block;
  if (block.user_state == nullptr) {
    auto control = std::make_shared<BlockControl>();
    control->team_states.resize(teams_per_block);
    control->team_barriers.reserve(teams_per_block);
    for (std::uint32_t t = 0; t < teams_per_block; ++t) {
      auto barrier = std::make_unique<sim::Barrier>(
          StrFormat("block-%u-team-%u", block.id(), t));
      barrier->AddParticipants(team_size);
      control->team_barriers.push_back(std::move(barrier));
    }
    block.user_state = std::move(control);
  }
  return *static_cast<BlockControl*>(block.user_state.get());
}

sim::DeviceTask<void> WorkerLoop(TeamCtx team) {
  while (true) {
    co_await team.Sync();  // wait for the initial thread to publish work
    if (team.state->phase == TeamState::Phase::kTerminate) co_return;
    if (team.state->phase == TeamState::Phase::kParallel) {
      ++team.state->workers_in_job;
      std::exception_ptr error;
      try {
        co_await (*team.state->job)(*team.hw, team.team_rank, team.team_size);
      } catch (...) {
        error = std::current_exception();
      }
      --team.state->workers_in_job;
      if (error) std::rethrow_exception(error);
    }
    co_await team.Sync();  // join
  }
}

sim::DeviceTask<void> Parallel(TeamCtx& team, const ParallelBody& body) {
  // Nested parallel regions serialize (OpenMP's default of one level of
  // parallelism on the device): the inner region runs inline on the
  // encountering thread as a team of one.
  if (team.team_size == 1 ||
      team.state->phase == TeamState::Phase::kParallel) {
    co_await body(*team.hw, 0, 1);
    co_return;
  }
  team.state->phase = TeamState::Phase::kParallel;
  team.state->job = &body;
  std::exception_ptr error;
  try {
    co_await team.Sync();  // release workers
    co_await body(*team.hw, team.team_rank, team.team_size);
  } catch (...) {
    error = std::current_exception();
  }
  if (error) {
    // Workers may be parked at a barrier inside the body, which this
    // thread's join releases: join until none is left inside it. Traps
    // re-raised at these resumes (an expired watchdog fires at every
    // resume) add nothing to the first.
    do {
      try {
        co_await team.Sync();
      } catch (...) {
      }
    } while (team.state->workers_in_job != 0);
    std::rethrow_exception(error);
  }
  co_await team.Sync();  // join
  team.state->phase = TeamState::Phase::kIdle;
  team.state->job = nullptr;
}

sim::DeviceTask<void> ParallelFor(
    TeamCtx& team, std::uint64_t trip_count,
    const std::function<sim::DeviceTask<void>(sim::ThreadCtx&, std::uint64_t)>&
        body,
    Schedule schedule) {
  ParallelBody wrapper =
      [&body, trip_count, schedule](sim::ThreadCtx& ctx, std::uint32_t rank,
                                    std::uint32_t size) -> sim::DeviceTask<void> {
    if (schedule == Schedule::kStaticInterleaved) {
      for (std::uint64_t i = rank; i < trip_count; i += size) {
        co_await body(ctx, i);
      }
    } else {
      const std::uint64_t chunk = (trip_count + size - 1) / size;
      const std::uint64_t begin = std::uint64_t(rank) * chunk;
      const std::uint64_t end = std::min(trip_count, begin + chunk);
      for (std::uint64_t i = begin; i < end; ++i) {
        co_await body(ctx, i);
      }
    }
  };
  co_await Parallel(team, wrapper);
}

sim::DeviceTask<double> TeamReduceSum(TeamCtx& team, double value) {
  // Rank 0 zeroes the team's slot, everyone adds atomically, and after the
  // second sync every thread reads the total.
  const std::uint32_t local_team = team.hw->tid3.y;
  auto slot =
      team.hw->block->SharedAt<double>(local_team * kTeamSharedReserve);
  if (team.team_rank == 0) co_await team.hw->Store(slot, 0.0);
  co_await team.Sync();
  co_await team.hw->AtomicAdd(slot, value);
  co_await team.Sync();
  co_return co_await team.hw->Load(slot);
}

}  // namespace dgc::ompx
