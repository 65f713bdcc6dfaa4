// The four apps' one buffer-setup path (apps::AllocateAppBuffers) seen
// from outside: every setup malloc that fails rolls the instance back to
// the heap it found, and the answers an ensemble computes do not depend on
// how its instances are packed or whether their inputs are shared.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"
#include "gpusim/memcheck.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

using sim::DeviceSpec;

/// Per-app arguments small enough to run in milliseconds on the test
/// device.
std::vector<std::string> SmallArgs(const std::string& app) {
  if (app == "xsbench") return {"-i", "6", "-g", "64", "-l", "128"};
  if (app == "rsbench") return {"-u", "6", "-w", "4", "-l", "64"};
  if (app == "amgmk") return {"-x", "6", "-y", "6", "-z", "6"};
  return {"-g", "2000", "-d", "8"};  // pagerank
}

std::vector<std::string> WithFlags(std::vector<std::string> args,
                                   std::initializer_list<std::string> more) {
  args.insert(args.end(), more);
  return args;
}

struct SetupCase {
  std::string app;
  std::vector<std::string> args;
  /// Fault-plan malloc ordinals one instance's setup consumes: one per
  /// non-zero-size buffer, in share-off and share-on mode alike.
  std::uint64_t setup_mallocs;
};

std::vector<SetupCase> SetupCases() {
  return {
      // Unionized grid: 7 inputs (the hash index is empty) + the result.
      {"xsbench", SmallArgs("xsbench"), 8},
      // Hash grid: 5 inputs + the hash index (the union arrays are empty)
      // + the result.
      {"xsbench", WithFlags(SmallArgs("xsbench"), {"-G", "hash"}), 7},
      {"rsbench", SmallArgs("rsbench"), 6},
      {"amgmk", SmallArgs("amgmk"), 7},
      {"pagerank", SmallArgs("pagerank"), 5},
  };
}

std::string CaseName(const SetupCase& c, bool share) {
  std::string name = c.app;
  for (const std::string& arg : c.args) name += " " + arg;
  return name + (share ? " share=on" : " share=off");
}

// Failing the k-th malloc of one instance's setup, for every k: the app
// exits kExitNoMem having released everything it held, so the device heap,
// the libc's live count and the sanitizer are as if it never ran. One past
// the last setup malloc the instance verifies, so the count is exact.
TEST(AppSetup, EverySetupMallocFailureRollsBackCleanly) {
  apps::RegisterAllApps();
  for (const SetupCase& c : SetupCases()) {
    for (const bool share : {false, true}) {
      for (std::uint64_t k = 1; k <= c.setup_mallocs + 1; ++k) {
        SCOPED_TRACE(CaseName(c, share) + StrFormat(" malloc-fail@%llu",
                                                   (unsigned long long)k));
        sim::Device device(DeviceSpec::TestDevice());
        dgcf::RpcHost rpc(device);
        dgcf::DeviceLibc libc(device);
        dgcf::AppEnv env{&device, &rpc, &libc};
        auto plan = sim::FaultPlan::Parse(
            StrFormat("malloc-fail@%llu", (unsigned long long)k));
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        sim::Memcheck memcheck;

        EnsembleOptions opt;
        opt.app = c.app;
        opt.instance_args = {c.args};
        opt.thread_limit = 32;
        opt.share_data = share;
        opt.faults = &*plan;
        opt.memcheck = &memcheck;
        const std::uint64_t live_before = libc.live_allocations();
        const std::uint64_t bytes_before = device.memory().bytes_in_use();
        auto run = RunEnsemble(env, opt);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ASSERT_EQ(run->instances.size(), 1u);
        EXPECT_TRUE(run->instances[0].completed);
        EXPECT_EQ(run->instances[0].exit_code,
                  k <= c.setup_mallocs ? dgcf::kExitNoMem : dgcf::kExitOk);
        EXPECT_EQ(libc.live_allocations(), live_before);
        EXPECT_EQ(device.memory().bytes_in_use(), bytes_before);
        EXPECT_EQ(libc.failed_frees(), 0u);
        EXPECT_EQ(run->memcheck.leak_count, 0u) << run->memcheck.ToString();
        EXPECT_EQ(run->memcheck.invalid_free_count, 0u)
            << run->memcheck.ToString();
        EXPECT_EQ(run->memcheck.double_free_count, 0u)
            << run->memcheck.ToString();
      }
    }
  }
}

/// Five instances, two pairs of them identical: with sharing on each pair
/// materializes once and attaches once.
std::vector<std::vector<std::string>> PackingArgs(const std::string& app) {
  std::vector<std::vector<std::string>> lines;
  for (const char* seed : {"1", "1", "2", "2", "3"}) {
    lines.push_back(WithFlags(SmallArgs(app), {"-s", seed, "-v"}));
  }
  return lines;
}

/// The sorted `verification` lines the instances printed.
std::vector<std::string> Verifications(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.find("verification") != std::string::npos) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// An instance's answer is its own: sharing its inputs, packing two teams
// into a block, running on fewer teams than instances, or retrying a
// trapped instance in a second wave must not change what any instance
// computes.
TEST(AppSetup, AnswersDoNotDependOnPackingOrSharing) {
  apps::RegisterAllApps();
  struct Packing {
    const char* name;
    std::uint32_t teams_per_block;
    std::uint32_t num_teams;
    const char* faults = nullptr;  ///< a trap that a second wave retries
  };
  const Packing packings[] = {
      {"one team per block", 1, 0},
      {"teams_per_block=2", 2, 0},
      {"num_teams=2", 1, 2},
      {"trap retried", 1, 0, "trap@b0.w0.c300"},
  };
  for (const std::string app : {"xsbench", "rsbench", "amgmk", "pagerank"}) {
    std::vector<std::string> reference;
    for (const Packing& packing : packings) {
      for (const bool share : {false, true}) {
        SCOPED_TRACE(app + " " + packing.name +
                     (share ? " share=on" : " share=off"));
        sim::Device device(DeviceSpec::TestDevice());
        dgcf::RpcHost rpc(device);
        dgcf::DeviceLibc libc(device);
        dgcf::AppEnv env{&device, &rpc, &libc};
        EnsembleOptions opt;
        opt.app = app;
        opt.instance_args = PackingArgs(app);
        opt.thread_limit = 32;
        opt.teams_per_block = packing.teams_per_block;
        opt.num_teams = packing.num_teams;
        opt.share_data = share;
        sim::FaultPlan plan;
        if (packing.faults != nullptr) {
          plan = *sim::FaultPlan::Parse(packing.faults);
          opt.faults = &plan;
          opt.max_attempts = 2;
        }
        auto run = RunEnsemble(env, opt);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_TRUE(run->all_ok());
        EXPECT_EQ(run->waves, packing.faults != nullptr ? 2u : 1u);
        const std::vector<std::string> answers =
            Verifications(rpc.stdout_text());
        EXPECT_EQ(answers.size(), opt.instance_args.size());
        if (reference.empty()) {
          reference = answers;
        } else {
          EXPECT_EQ(answers, reference);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dgc::ensemble
