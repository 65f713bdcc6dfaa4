// Ensemble-level memcheck integration: the §3.3 cross-instance race
// detector over shared vs isolated globals, and clean reports on real
// ensemble application runs.
#include <gtest/gtest.h>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/isolation.h"
#include "ensemble/loader.h"
#include "gpusim/memcheck.h"
#include "ompx/league.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;

// Four teams, one instance each, every team writing "its" replica of a
// single declared global — the ablation_isolation bench in miniature.
sim::MemcheckReport RunGlobalsWrites(GlobalsMode mode) {
  Device device(DeviceSpec::TestDevice());
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());

  const std::uint32_t teams = 4;
  IsolatedGlobals globals;
  EXPECT_TRUE(globals.Declare("g_state", sizeof(std::uint64_t)).ok());
  EXPECT_TRUE(globals.Materialize(device, teams, mode, &memcheck).ok());
  const std::vector<std::int32_t> instance_of_team = {0, 1, 2, 3};

  ompx::TeamsConfig cfg{.num_teams = teams, .thread_limit = 32};
  cfg.name = "globals-probe";
  cfg.memcheck = &memcheck;
  cfg.team_instances = instance_of_team;
  auto result = ompx::LaunchTeams(
      device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        auto slot = globals.Slot<std::uint64_t>(team.team_id, "g_state");
        EXPECT_TRUE(slot.ok());
        co_await team.hw->Store(*slot, std::uint64_t(team.team_id) + 1);
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  globals.Release(device);
  return memcheck.report();
}

TEST(EnsembleMemcheck, SharedGlobalsReportCrossInstanceRaces) {
  const sim::MemcheckReport report = RunGlobalsWrites(GlobalsMode::kShared);
  // Four instances write the single shared copy: the first claims it, the
  // other three race.
  EXPECT_EQ(report.cross_instance_count, 3u) << report.ToString();
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings[0].kind, sim::MemcheckErrorKind::kCrossInstance);
  EXPECT_EQ(report.findings[0].region_label, "globals (shared)");
}

TEST(EnsembleMemcheck, IsolatedGlobalsAreClean) {
  const sim::MemcheckReport report = RunGlobalsWrites(GlobalsMode::kIsolated);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(EnsembleMemcheck, WriteToForeignReplicaIsFlagged) {
  Device device(DeviceSpec::TestDevice());
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());

  IsolatedGlobals globals;
  ASSERT_TRUE(globals.Declare("g", sizeof(std::uint64_t)).ok());
  ASSERT_TRUE(
      globals.Materialize(device, 2, GlobalsMode::kIsolated, &memcheck).ok());
  const std::vector<std::int32_t> instance_of_team = {0};

  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 32};
  cfg.memcheck = &memcheck;
  cfg.team_instances = instance_of_team;
  auto result = ompx::LaunchTeams(
      device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        // Instance 0 writes instance 1's replica — exactly the bug class
        // §3.3's isolation is meant to rule out.
        auto foreign = globals.Slot<std::uint64_t>(1, "g");
        EXPECT_TRUE(foreign.ok());
        co_await team.hw->Store(*foreign, std::uint64_t{7});
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  globals.Release(device);

  EXPECT_EQ(memcheck.report().cross_instance_count, 1u)
      << memcheck.report().ToString();
  EXPECT_EQ(memcheck.report().findings[0].region_owner, 1);
  EXPECT_EQ(memcheck.report().findings[0].instance, 0);
}

// A real application ensemble under the sanitizer: a correct app must
// produce a completely clean report (no leaks: instances free their heap).
TEST(EnsembleMemcheck, RealAppEnsembleRunsClean) {
  apps::RegisterAllApps();
  Device device(DeviceSpec::TestDevice());
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());

  EnsembleOptions opt;
  opt.app = "rsbench";
  for (std::uint32_t i = 0; i < 4; ++i) {
    opt.instance_args.push_back(
        {"-u", "6", "-w", "4", "-l", "64", "-s", StrFormat("%u", i + 1)});
  }
  opt.thread_limit = 32;
  opt.memcheck = &memcheck;

  auto run = RunEnsemble(env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
  EXPECT_TRUE(run->memcheck.clean()) << run->memcheck.ToString();
  EXPECT_EQ(run->stats.memcheck_findings, 0u);
  EXPECT_EQ(libc.failed_frees(), 0u);
}

// Identical runs with and without the sanitizer must cost identical cycles:
// checking is observation, not simulation work.
TEST(EnsembleMemcheck, SanitizerDoesNotPerturbTiming) {
  apps::RegisterAllApps();
  auto run_once = [](bool check) -> std::uint64_t {
    Device device(DeviceSpec::TestDevice());
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    sim::Memcheck memcheck;
    if (check) memcheck.Attach(device.memory());

    EnsembleOptions opt;
    opt.app = "rsbench";
    for (std::uint32_t i = 0; i < 3; ++i) {
      opt.instance_args.push_back(
          {"-u", "4", "-w", "3", "-l", "32", "-s", StrFormat("%u", i + 1)});
    }
    opt.thread_limit = 32;
    if (check) opt.memcheck = &memcheck;
    auto run = RunEnsemble(env, opt);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run->kernel_cycles;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

}  // namespace
}  // namespace dgc::ensemble
