#include "ompx/league.h"

#include "support/str.h"

namespace dgc::ompx {

StatusOr<sim::LaunchResult> LaunchTeams(sim::Device& device,
                                        const TeamsConfig& cfg,
                                        const TeamMain& team_main) {
  if (cfg.num_teams == 0) {
    return Status(ErrorCode::kInvalidArgument, "num_teams must be positive");
  }
  if (cfg.thread_limit == 0) {
    return Status(ErrorCode::kInvalidArgument, "thread_limit must be positive");
  }
  if (cfg.teams_per_block == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "teams_per_block must be positive");
  }
  const std::uint64_t block_threads =
      std::uint64_t(cfg.thread_limit) * cfg.teams_per_block;
  if (block_threads > std::uint64_t(device.spec().max_threads_per_block)) {
    return Status(
        ErrorCode::kInvalidArgument,
        StrFormat("thread_limit %u x %u teams/block exceeds the device "
                  "block limit of %d threads",
                  cfg.thread_limit, cfg.teams_per_block,
                  device.spec().max_threads_per_block));
  }

  const std::uint32_t m = cfg.teams_per_block;
  const std::uint32_t blocks = (cfg.num_teams + m - 1) / m;
  sim::LaunchConfig launch;
  launch.grid = {blocks, 1, 1};
  launch.block = {cfg.thread_limit, m, 1};
  launch.shared_bytes = m * kTeamSharedReserve + cfg.user_shared_bytes;
  launch.name = cfg.name;
  launch.trace = cfg.trace;
  launch.memcheck = cfg.memcheck;
  launch.faults = cfg.faults;
  launch.watchdog_cycles = cfg.watchdog_cycles;
  launch.instance_of = cfg.instance_of;
  launch.profiler = cfg.profiler;

  const std::uint32_t num_teams = cfg.num_teams;
  const std::uint32_t team_size = cfg.thread_limit;

  sim::KernelFn kernel = [&team_main, num_teams, team_size,
                          m](sim::ThreadCtx& ctx) -> sim::DeviceTask<void> {
    // Pre-suspension setup: deterministic (thread 0 of the block runs
    // first), so the control block exists before any lane needs it.
    BlockControl& control = EnsureBlockControl(ctx, m, team_size);
    const std::uint32_t local_team = ctx.tid3.y;
    const std::uint32_t team_id = ctx.block_id * m + local_team;
    if (team_id >= num_teams) co_return;  // padding row in the last block

    TeamCtx team;
    team.hw = &ctx;
    team.team_id = team_id;
    team.num_teams = num_teams;
    team.team_rank = ctx.tid3.x;
    team.team_size = team_size;
    team.barrier = control.team_barriers[local_team].get();
    team.state = &control.team_states[local_team];
    ctx.lane->memberships.push_back(team.barrier);

    if (team.team_rank == 0) {
      std::exception_ptr error;
      try {
        co_await team_main(team);
      } catch (...) {
        // The initial thread is dying; workers must still be released, or
        // they would cycle on the team barrier forever.
        error = std::current_exception();
      }
      if (team.team_size > 1) {
        team.state->phase = TeamState::Phase::kTerminate;
        co_await team.Sync();  // wake workers so they can exit
      }
      if (error) std::rethrow_exception(error);
    } else {
      co_await WorkerLoop(team);
    }
  };

  return device.Launch(launch, kernel);
}

}  // namespace dgc::ompx
