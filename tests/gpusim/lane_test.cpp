// Tests for the lane-to-warp op hand-off (DeviceOp, lane.h): an awaiter
// writes `kind` and every field its kind's issue helper in warp.cpp reads,
// and the warp clears only `kind`, so nothing else may be relied on.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "gpusim/barrier.h"
#include "gpusim/ctx.h"

namespace dgc::sim {
namespace {

// Awaiters carry only their arguments.
static_assert(sizeof(detail::LoadAwaiter<double>) ==
              sizeof(DevicePtr<double>));
static_assert(sizeof(detail::WorkAwaiter) == sizeof(std::uint64_t));
static_assert(sizeof(detail::SyncAwaiter) == sizeof(Barrier*));
// A batch keeps 16 B per gather slot and 24 B per scatter slot (runs:
// gather_test.cpp).
static_assert(sizeof(detail::GatherAwaiter<double>) ==
              detail::kMaxGather * sizeof(BatchSlot) + 8);
static_assert(sizeof(detail::ScatterAwaiter<double>) ==
              detail::kMaxGather * sizeof(StoreSlot) + 8);

/// A current lane whose pending op is 0xA5 garbage apart from
/// `kind = kNone` — the state a warp leaves behind after issuing an op of
/// some other kind.
class StaleLane {
 public:
  StaleLane() : prev_(CurrentLane()) {
    std::memset(static_cast<void*>(&lane.pending), 0xA5, sizeof(DeviceOp));
    lane.pending.kind = DeviceOp::Kind::kNone;
    CurrentLane() = &lane;
  }
  ~StaleLane() { CurrentLane() = prev_; }

  /// Suspends `awaiter` on the lane; returns the op it handed off.
  template <typename Awaiter>
  const DeviceOp& Park(Awaiter&& awaiter) {
    const std::coroutine_handle<> h = std::noop_coroutine();
    awaiter.await_suspend(h);
    EXPECT_EQ(lane.top, h);
    return lane.pending;
  }

  Lane lane;

 private:
  Lane* prev_;
};

TEST(Lane, AwaitersWriteEveryFieldTheirKindReads) {
  using Kind = DeviceOp::Kind;
  const ThreadCtx ctx;
  double d_host[4] = {};
  float f_host = 0;
  std::uint32_t u_host = 0;
  const DevicePtr<double> d{0x1000, d_host};
  const DevicePtr<float> f{0x2004, &f_host};
  const DevicePtr<std::uint32_t> u{kSharedBase + 8, &u_host};

  {
    StaleLane s;
    const DeviceOp& op = s.Park(ctx.Load(d + 1));
    EXPECT_EQ(op.kind, Kind::kLoad);
    EXPECT_EQ(op.bytes, sizeof(double));
    EXPECT_EQ(op.addr, 0x1008u);
    EXPECT_EQ(op.host, d_host + 1);
  }
  {
    StaleLane s;
    const DeviceOp& op = s.Park(ctx.Store(f, 2.5f));
    EXPECT_EQ(op.kind, Kind::kStore);
    EXPECT_EQ(op.bytes, sizeof(float));
    EXPECT_EQ(op.addr, 0x2004u);
    EXPECT_EQ(op.host, &f_host);
    EXPECT_EQ(op.bits, ToBits(2.5f));
  }
  {
    StaleLane s;
    const DeviceOp& op = s.Park(ctx.AtomicAdd(u, 7u));
    EXPECT_EQ(op.kind, Kind::kAtomic);
    EXPECT_EQ(op.bytes, sizeof(std::uint32_t));
    EXPECT_EQ(op.addr, kSharedBase + 8);
    EXPECT_EQ(op.host, &u_host);
    EXPECT_EQ(op.bits, ToBits(7u));
    EXPECT_EQ(op.apply, &detail::ApplyAdd<std::uint32_t>);
  }
  {
    StaleLane s;
    const DeviceOp& op = s.Park(ctx.Work(123));
    EXPECT_EQ(op.kind, Kind::kWork);
    EXPECT_EQ(op.cycles, 123u);
  }
  {
    StaleLane s;
    Barrier barrier;
    const DeviceOp& op = s.Park(ctx.SyncOn(&barrier));
    EXPECT_EQ(op.kind, Kind::kSync);
    EXPECT_EQ(op.barrier, &barrier);
  }
  {
    StaleLane s;
    std::function<std::uint64_t()> handler = [] { return 9; };
    const DeviceOp& op = s.Park(ctx.HostCall(&handler, 77));
    EXPECT_EQ(op.kind, Kind::kExternal);
    EXPECT_EQ(op.cycles, 77u);
    EXPECT_EQ(op.external, &handler);
  }
  {
    StaleLane s;
    auto g = ctx.Gather<double, 4>();
    g.Add(d);
    g.Add(d + 3);
    const DeviceOp& op = s.Park(g);
    EXPECT_EQ(op.kind, Kind::kLoadBatch);
    EXPECT_EQ(op.bytes, sizeof(double));
    EXPECT_FALSE(op.run);
    EXPECT_EQ(op.batch, g.slots);
    EXPECT_EQ(op.batch_count, 2u);
  }
  {
    StaleLane s;
    auto r = ctx.LoadRun<4>(d, 3);
    const DeviceOp& op = s.Park(r);
    EXPECT_EQ(op.kind, Kind::kLoadBatch);
    EXPECT_EQ(op.bytes, sizeof(double));
    EXPECT_TRUE(op.run);
    EXPECT_EQ(op.addr, 0x1000u);
    EXPECT_EQ(op.host, d_host);
    EXPECT_EQ(op.run_results, r.results);
    EXPECT_EQ(op.batch_count, 3u);
  }
  {
    StaleLane s;
    auto sc = ctx.Scatter<float, 2>();
    sc.Add(f, 1.5f);
    const DeviceOp& op = s.Park(sc);
    EXPECT_EQ(op.kind, Kind::kStoreBatch);
    EXPECT_EQ(op.bytes, sizeof(float));
    EXPECT_EQ(op.store_batch, sc.slots);
    EXPECT_EQ(op.batch_count, 1u);
  }
}

}  // namespace
}  // namespace dgc::sim
