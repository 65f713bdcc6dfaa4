// `target teams` launching: runs a league of teams, each starting in its
// initial thread with workers parked — the execution model of
// `#pragma omp target teams` under LLVM OpenMP, including the paper §3.1
// multi-dimensional variant that packs M teams into one thread block.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "gpusim/device.h"
#include "ompx/team.h"

namespace dgc::ompx {

struct TeamsConfig {
  std::uint32_t num_teams = 1;
  /// Maximum threads usable by one team (the paper's -t flag).
  std::uint32_t thread_limit = 32;
  /// M teams per thread block: block shape becomes (thread_limit, M, 1)
  /// with each row an independent team (paper §3.1; 1 = the paper's
  /// implemented mapping).
  std::uint32_t teams_per_block = 1;
  /// Extra shared memory per block for user kernels, beyond the runtime's
  /// per-team reduction slots.
  std::uint32_t user_shared_bytes = 0;
  const char* name = "target-teams";
  /// Optional instruction trace sink (gpusim/trace.h).
  sim::Trace* trace = nullptr;
  /// Optional shadow-memory sanitizer (gpusim/memcheck.h), forwarded to the
  /// kernel launch; must already be attached to the device's memory.
  sim::Memcheck* memcheck = nullptr;
  /// Optional deterministic fault-injection plan (gpusim/faults.h),
  /// forwarded to the kernel launch; null = off.
  sim::FaultPlan* faults = nullptr;
  /// Launch watchdog cycle budget (0 = disabled); see LaunchConfig.
  std::uint64_t watchdog_cycles = 0;
  /// The instance each team is running, indexed by team id (team id ==
  /// row of sim::LaunchConfig::row_instances); forwarded to the launch.
  /// Empty = every team unattributed.
  std::span<const std::int32_t> team_instances = {};
  /// Optional launch profiler (gpusim/profiler.h), forwarded to the kernel
  /// launch; samples a utilization timeline.
  sim::Profiler* profiler = nullptr;
};

/// The per-team entry point, run by the team's initial thread only (the
/// "sequential part" of the team). Use Parallel/ParallelFor from team.h to
/// fan out to the team's workers.
using TeamMain = std::function<sim::DeviceTask<void>(TeamCtx&)>;

/// Launches `cfg.num_teams` teams and runs `team_main` in each.
/// Returns the kernel's LaunchResult (cycles include launch overhead).
StatusOr<sim::LaunchResult> LaunchTeams(sim::Device& device,
                                        const TeamsConfig& cfg,
                                        const TeamMain& team_main);

}  // namespace dgc::ompx
