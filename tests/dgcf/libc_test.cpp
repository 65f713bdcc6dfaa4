// Regression tests for the device libc heap: free(NULL) cost and
// failed-free accounting.
#include <gtest/gtest.h>

#include "dgcf/libc.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"

namespace dgc::dgcf {
namespace {

using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::ThreadCtx;

sim::LaunchConfig OneWarp() {
  return sim::LaunchConfig{.grid = {1, 1, 1}, .block = {32, 1, 1},
                           .name = "libc"};
}

std::uint64_t CyclesOf(Device& device, DeviceLibc& libc,
                       std::uint32_t null_frees) {
  auto result = device.Launch(
      OneWarp(), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        for (std::uint32_t i = 0; i < null_frees; ++i) {
          co_await libc.Free(ctx, 0);
        }
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->cycles;
}

TEST(DeviceLibcHeap, FreeNullIsAFreeNoOp) {
  Device device(DeviceSpec::TestDevice());
  DeviceLibc libc(device);
  const std::uint64_t baseline = CyclesOf(device, libc, 0);
  const std::uint64_t with_frees = CyclesOf(device, libc, 10);
  // free(NULL) must not charge the heap-lock cost: ten of them stay well
  // under a single real heap operation.
  EXPECT_LT(with_frees, baseline + DeviceLibc::kHeapOpCycles);
  EXPECT_EQ(libc.failed_frees(), 0u);
}

TEST(DeviceLibcHeap, FailedFreesAreCounted) {
  Device device(DeviceSpec::TestDevice());
  DeviceLibc libc(device);
  auto result = device.Launch(
      OneWarp(), [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        auto buf = co_await libc.Malloc(ctx, 64);
        EXPECT_NE(buf.host, nullptr);
        co_await libc.Free(ctx, buf.addr);
        co_await libc.Free(ctx, buf.addr);      // double free
        co_await libc.Free(ctx, 0xdead0000);    // wild free
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(libc.live_allocations(), 0u);
  EXPECT_EQ(libc.failed_frees(), 2u);
}

TEST(DeviceLibcHeap, FailedFreesAreMemcheckFindings) {
  Device device(DeviceSpec::TestDevice());
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());
  DeviceLibc libc(device);
  auto cfg = OneWarp();
  cfg.memcheck = &memcheck;
  auto result = device.Launch(
      cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
        if (ctx.thread_id != 0) co_return;
        auto buf = co_await libc.Malloc(ctx, 64);
        co_await libc.Free(ctx, buf.addr);
        co_await libc.Free(ctx, buf.addr);
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(memcheck.report().double_free_count, 1u);
  // The finding is attributed to the freeing lane.
  ASSERT_FALSE(memcheck.report().findings.empty());
  EXPECT_TRUE(memcheck.report().findings[0].attributed);
}

}  // namespace
}  // namespace dgc::dgcf
