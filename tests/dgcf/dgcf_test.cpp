// Tests for the direct-GPU-compilation framework: app registry, host RPC,
// device libc and argv marshalling. The registry cases look up "testapp"
// (testapp.cpp); the single-instance loader is tested with the ensemble
// loader it wraps (tests/ensemble/single_loader_test.cpp).
#include <gtest/gtest.h>

#include "dgcf/app.h"
#include "dgcf/argv.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ompx/league.h"
#include "support/str.h"

namespace dgc::dgcf {
namespace {

using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;

struct Env {
  Device device{DeviceSpec::TestDevice()};
  RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv app_env{&device, &rpc, &libc};
};

TEST(AppRegistry, FindRegisteredApp) {
  auto app = AppRegistry::Instance().Find("testapp");
  ASSERT_TRUE(app.ok());
  EXPECT_EQ((*app)->name, "testapp");
  EXPECT_FALSE((*app)->description.empty());
}

TEST(AppRegistry, UnknownAppIsNotFound) {
  auto app = AppRegistry::Instance().Find("no-such-app");
  ASSERT_FALSE(app.ok());
  EXPECT_EQ(app.status().code(), ErrorCode::kNotFound);
}

TEST(AppRegistry, NamesListed) {
  auto names = AppRegistry::Instance().Names();
  EXPECT_NE(std::find(names.begin(), names.end(), "testapp"), names.end());
}

TEST(ArgvBlock, PaperFigure4Layout) {
  Env env;
  // The four command lines of Fig. 5b, with argv[0] prepended (Fig. 4).
  std::vector<std::vector<std::string>> args{
      {"user_app", "-a", "1", "-b", "-c", "data-1.bin"},
      {"user_app", "-a", "2", "-b", "-c", "data-2.bin"},
      {"user_app", "-a", "1", "-b", "-c", "data-3.bin"},
      {"user_app", "-a", "3", "-b", "-c", "data-4.bin"},
  };
  auto block = ArgvBlock::Build(env.device, args);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->instances(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(block->argc(i), 6);
    EXPECT_EQ(DeviceLibc::ToString(block->argv(i)[0]), "user_app");
    EXPECT_EQ(DeviceLibc::ToString(block->argv(i)[5]),
              StrFormat("data-%u.bin", i + 1));
    // Strings live in device memory: inside one live allocation.
    const sim::DeviceAddr addr = block->argv(i)[5].addr;
    bool inside = false;
    for (const auto& [base, bytes] : env.device.memory().LiveAllocations()) {
      inside |= addr >= base && addr + 11 <= base + bytes;
    }
    EXPECT_TRUE(inside);
  }
  EXPECT_GT(block->transfer_cycles(), 0u);
}

TEST(ArgvBlock, RejectsEmptyInstances) {
  Env env;
  EXPECT_FALSE(ArgvBlock::Build(env.device, {}).ok());
  EXPECT_FALSE(ArgvBlock::Build(env.device, {{}}).ok());
}

TEST(ArgvBlock, FreesCacheOnDestruction) {
  Env env;
  const auto before = env.device.memory().allocation_count();
  {
    auto block = ArgvBlock::Build(env.device, {{"a", "b"}});
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(env.device.memory().allocation_count(), before + 1);
  }
  EXPECT_EQ(env.device.memory().allocation_count(), before);
}

TEST(RpcHost, PrintCollectsInServiceOrder) {
  Env env;
  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        co_await env.rpc.Print(*team.hw, "hello ");
        co_await env.rpc.Print(*team.hw, "world\n");
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(env.rpc.stdout_text(), "hello world\n");
  // Two round trips dominate this kernel's runtime.
  EXPECT_GE(result->stats.elapsed_cycles,
            2ull * env.device.spec().rpc_roundtrip_cycles);
}

TEST(DeviceLibc, MallocFreeAccounting) {
  Env env;
  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        auto a = co_await env.libc.Malloc(*team.hw, 1024);
        auto b = co_await env.libc.Malloc(*team.hw, 2048);
        if (a.host == nullptr || b.host == nullptr) {
          throw std::runtime_error("unexpected OOM");
        }
        co_await env.libc.Free(*team.hw, a.addr);
        co_await env.libc.Free(*team.hw, b.addr);
        co_await env.libc.Free(*team.hw, 0);  // free(NULL) is a no-op
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(env.libc.live_allocations(), 0u);
  EXPECT_EQ(env.libc.failed_allocations(), 0u);
}

TEST(DeviceLibc, MallocReturnsNullOnOom) {
  Env env;
  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  bool got_null = false;
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        auto huge = co_await env.libc.Malloc(
            *team.hw, env.device.spec().global_memory_bytes * 2);
        got_null = huge.host == nullptr;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(got_null);
  EXPECT_EQ(env.libc.failed_allocations(), 1u);
}

TEST(DeviceLibc, StringHelpers) {
  Env env;
  auto buf = *env.device.Malloc(32);
  char* s = reinterpret_cast<char*>(buf.host);
  std::strcpy(s, "-n");
  auto p = buf.Typed<char>();
  EXPECT_EQ(DeviceLibc::StrCmp(p, "-n"), 0);
  EXPECT_LT(DeviceLibc::StrCmp(p, "-x"), 0);
  EXPECT_GT(DeviceLibc::StrCmp(p, "-a"), 0);
  EXPECT_EQ(DeviceLibc::ToString(p), "-n");
}

}  // namespace
}  // namespace dgc::dgcf
