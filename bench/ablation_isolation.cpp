// Ablation for §3.3: running multiple instances in one kernel breaks the
// process-level isolation of mutable globals. A counter global shared by
// all instances races (every instance sees everyone's increments); the
// proposed per-team relocation (IsolatedGlobals) restores correctness.
#include <cstdio>
#include <numeric>
#include <vector>

#include "ensemble/isolation.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"
#include "ompx/league.h"

using namespace dgc;
using namespace dgc::sim;

namespace {

struct CounterRun {
  std::vector<std::uint64_t> finals;
  std::uint64_t races = 0;  ///< memcheck cross-instance findings
};

/// Runs 16 "instances"; each increments the global counter 100 times and
/// reports its final value. Correct (isolated) behaviour: every instance
/// reads exactly 100 — and the race detector stays silent.
CounterRun RunCounterEnsemble(ensemble::GlobalsMode mode) {
  Device device(DeviceSpec::A100_40GB(512));
  const std::uint32_t kTeams = 16, kIncrements = 100;

  Memcheck memcheck;
  memcheck.Attach(device.memory());
  ensemble::IsolatedGlobals globals;
  DGC_CHECK(globals.Declare("g_counter", sizeof(std::uint64_t)).ok());
  DGC_CHECK(globals.Materialize(device, kTeams, mode, &memcheck).ok());
  std::vector<std::int32_t> instance_of_team(kTeams);
  std::iota(instance_of_team.begin(), instance_of_team.end(), 0);

  CounterRun run;
  run.finals.assign(kTeams, 0);
  ompx::TeamsConfig cfg{.num_teams = kTeams, .thread_limit = 32};
  cfg.memcheck = &memcheck;
  cfg.team_instances = instance_of_team;
  auto result = ompx::LaunchTeams(
      device, cfg, [&](ompx::TeamCtx& team) -> DeviceTask<void> {
        auto slot = *globals.Slot<std::uint64_t>(team.team_id, "g_counter");
        for (std::uint32_t i = 0; i < kIncrements; ++i) {
          co_await team.hw->AtomicAdd(slot, std::uint64_t{1});
        }
        run.finals[team.team_id] = co_await team.hw->Load(slot);
      });
  DGC_CHECK(result.ok());
  globals.Release(device);
  run.races = memcheck.report().cross_instance_count;
  return run;
}

}  // namespace

int main() {
  std::printf("§3.3 global-variable isolation: 16 instances x 100 "
              "increments of a global counter\n\n");

  auto shared = RunCounterEnsemble(ensemble::GlobalsMode::kShared);
  auto isolated = RunCounterEnsemble(ensemble::GlobalsMode::kIsolated);

  int shared_correct = 0, isolated_correct = 0;
  for (std::size_t i = 0; i < shared.finals.size(); ++i) {
    shared_correct += (shared.finals[i] == 100);
    isolated_correct += (isolated.finals[i] == 100);
  }
  std::printf("%-28s correct instances: %2d / 16   races flagged: %5llu   "
              "(sample finals: %llu, %llu, %llu)\n",
              "shared global (legacy)", shared_correct,
              (unsigned long long)shared.races,
              (unsigned long long)shared.finals[0],
              (unsigned long long)shared.finals[7],
              (unsigned long long)shared.finals[15]);
  std::printf("%-28s correct instances: %2d / 16   races flagged: %5llu   "
              "(sample finals: %llu, %llu, %llu)\n",
              "per-team replicas (§3.3)", isolated_correct,
              (unsigned long long)isolated.races,
              (unsigned long long)isolated.finals[0],
              (unsigned long long)isolated.finals[7],
              (unsigned long long)isolated.finals[15]);

  if (isolated_correct != 16) {
    std::fprintf(stderr, "CHECK FAILED: isolation must restore correctness\n");
    return 1;
  }
  if (shared_correct == 16) {
    std::fprintf(stderr, "CHECK FAILED: the shared layout should interfere\n");
    return 1;
  }
  if (shared.races == 0) {
    std::fprintf(stderr,
                 "CHECK FAILED: memcheck must flag the shared-global races\n");
    return 1;
  }
  if (isolated.races != 0) {
    std::fprintf(stderr,
                 "CHECK FAILED: isolated replicas must not race (%llu)\n",
                 (unsigned long long)isolated.races);
    return 1;
  }
  std::printf("\nrelocating globals to team-local replicas restores "
              "instance isolation (paper §3.3)\n");
  return 0;
}
