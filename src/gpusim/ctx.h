// ThreadCtx: the per-lane device-code API.
//
// Every simulated device function receives a ThreadCtx& and awaits its
// operations:
//
//   DeviceTask<double> Sum(ThreadCtx& ctx, DevicePtr<double> a, int n) {
//     double s = 0;
//     for (int i = ctx.thread_id; i < n; i += ctx.block_threads)
//       s += co_await ctx.Load(a + i);
//     co_return s;
//   }
//
// Loads/stores are *timed*: they suspend the lane, the warp coalesces the
// 32 lanes' addresses, and the memory hierarchy charges cycles. Untimed
// host-side access (DevicePtr::operator*) is reserved for setup paths.
#pragma once

#include <functional>

#include "gpusim/address.h"
#include "gpusim/lane.h"
#include "gpusim/task.h"
#include "support/status.h"

namespace dgc::sim {

class Barrier;
class Block;

namespace detail {

/// Raises the current lane's pending trap (if armed) as a DeviceTrap.
/// Called by every awaiter at its resume point, i.e. *inside* the resumed
/// coroutine, so the trap unwinds through the normal exception-transparent
/// task machinery and can be contained per instance by a loader's
/// try/catch. Clears the trap: it fires exactly once.
void RaisePendingTrap();

/// The lane-to-warp hand-off (see DeviceOp): parks the suspended coroutine
/// on the current lane and stamps `kind`; the caller then writes exactly
/// the fields its kind's issue helper reads. Awaiters hold only their
/// arguments — their storage lives in the caller's coroutine frame, once
/// per co_await site — and find the lane again through CurrentLane().
inline DeviceOp& ParkOp(std::coroutine_handle<> h, DeviceOp::Kind kind) {
  Lane* lane = CurrentLane();
  lane->top = h;
  lane->pending.kind = kind;
  return lane->pending;
}

/// Resume side of the hand-off: raises an armed trap, else returns the
/// issued op's result.
inline std::uint64_t ResumeResult() {
  RaisePendingTrap();
  return CurrentLane()->pending_result;
}

/// Parks a scalar memory op (load, store, atomic) on `p`.
template <typename T>
DeviceOp& ParkAccess(std::coroutine_handle<> h, DeviceOp::Kind kind,
                     DevicePtr<T> p) {
  DeviceOp& op = ParkOp(h, kind);
  op.bytes = sizeof(T);
  op.addr = p.addr;
  op.host = p.host;
  return op;
}

template <typename T>
struct LoadAwaiter {
  DevicePtr<T> p;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    ParkAccess(h, DeviceOp::Kind::kLoad, p);
  }
  T await_resume() const { return FromBits<T>(ResumeResult()); }
};

template <typename T>
struct StoreAwaiter {
  DevicePtr<T> p;
  T value;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    ParkAccess(h, DeviceOp::Kind::kStore, p).bits = ToBits(value);
  }
  void await_resume() const { RaisePendingTrap(); }
};

template <typename T>
struct AtomicAwaiter {
  DevicePtr<T> p;
  T operand;
  std::uint64_t (*apply)(void*, std::uint64_t);
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    DeviceOp& op = ParkAccess(h, DeviceOp::Kind::kAtomic, p);
    op.bits = ToBits(operand);
    op.apply = apply;
  }
  /// Returns the value observed *before* the update, like CUDA atomics.
  T await_resume() const { return FromBits<T>(ResumeResult()); }
};

struct WorkAwaiter {
  std::uint64_t cycles;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    ParkOp(h, DeviceOp::Kind::kWork).cycles = cycles;
  }
  void await_resume() const { RaisePendingTrap(); }
};

struct SyncAwaiter {
  Barrier* barrier;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    ParkOp(h, DeviceOp::Kind::kSync).barrier = barrier;
  }
  void await_resume() const { RaisePendingTrap(); }
};

/// Pipelined batch load: up to N ≤ kMaxGather *independent* loads issued as
/// one memory instruction. Models the memory-level parallelism a streaming
/// kernel gets from hardware scoreboarding: the batch pays ONE latency trip
/// plus bandwidth-serialized sector service, instead of one latency per
/// element. Use for loads whose addresses do not depend on each other
/// (CSR rows, gathers); keep dependent chains (binary search, pointer
/// chasing) on scalar Load — that latency is real.
///
/// N is storage only: a batch awaiter lives in the frame of the coroutine
/// that declares it, and every simulated lane keeps that frame alive. A
/// gather (GatherAwaiter) keeps a 16-byte slot per element and a scatter a
/// 24-byte one; a run (RunAwaiter, from LoadRun) keeps only its start and
/// its results, packed at sizeof(T) each. A batch with a fixed bound should
/// say so (`Gather<double, 3>()`, `LoadRun<4>(p, 4)`); the warp sees only
/// the filled count, so N never changes timing or stats. Constructing a
/// batch writes only its header, never its N slots or results (the gather's
/// and scatter's empty user-provided constructors keep them uninitialized
/// even under `return {}`); issue fills [0, count), the only part anything
/// reads.
inline constexpr std::uint32_t kMaxGather = 96;

template <typename T, std::uint32_t N = kMaxGather>
struct GatherAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  static_assert(1 <= N && N <= kMaxGather);

  BatchSlot slots[N];
  std::uint32_t count = 0;
  bool issued = false;  ///< set on resume; Add/co_await/Result check it

  GatherAwaiter() {}

  /// Appends one element; silently ignored beyond N (callers chunk;
  /// Full() lets them check).
  void Add(DevicePtr<T> p) {
    DGC_CHECK(!issued);
    if (count >= N) return;
    slots[count++] = BatchSlot{p.addr, {p.host}};
  }
  bool Full() const { return count >= N; }

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    DGC_CHECK(!issued);
    DeviceOp& op = ParkOp(h, DeviceOp::Kind::kLoadBatch);
    op.bytes = sizeof(T);
    op.run = false;
    op.batch_count = count;
    op.batch = slots;
  }
  void await_resume() {
    issued = true;
    RaisePendingTrap();
  }

  /// The i-th loaded value (i < count), valid after the co_await completes.
  T Result(std::uint32_t i) const {
    DGC_CHECK(issued);
    DGC_CHECK(i < count);
    return FromBits<T>(slots[i].result);
  }
};

/// A run of `count` consecutive elements from `base` (ThreadCtx::LoadRun):
/// a gather whose addresses follow from its start, so it stores only its
/// results, packed. It parks as kLoadBatch with DeviceOp::run set, so its
/// lanes issue in one group with gathering lanes, and the warp charges it
/// as the gather of its elements (warp.cpp, IssueBatchGroup).
template <typename T, std::uint32_t N = kMaxGather>
struct RunAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  static_assert(1 <= N && N <= kMaxGather);

  DevicePtr<T> base;
  std::uint32_t count;
  bool issued = false;  ///< set on resume; co_await/Result check it
  T results[N];

  RunAwaiter(DevicePtr<T> p, std::uint32_t n) : base(p), count(n) {}

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    DGC_CHECK(!issued);
    DeviceOp& op = ParkOp(h, DeviceOp::Kind::kLoadBatch);
    op.bytes = sizeof(T);
    op.run = true;
    op.batch_count = count;
    op.addr = base.addr;
    op.host = base.host;
    op.run_results = results;
  }
  void await_resume() {
    issued = true;
    RaisePendingTrap();
  }

  /// The i-th loaded value (i < count), valid after the co_await completes.
  T Result(std::uint32_t i) const {
    DGC_CHECK(issued);
    DGC_CHECK(i < count);
    return results[i];
  }
};

/// Pipelined batch store — the write-side counterpart of GatherAwaiter,
/// with the same storage bound N. Values are staged in the slots at Add
/// time and written at issue.
template <typename T, std::uint32_t N = kMaxGather>
struct ScatterAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  static_assert(1 <= N && N <= kMaxGather);

  StoreSlot slots[N];
  std::uint32_t count = 0;

  ScatterAwaiter() {}

  void Add(DevicePtr<T> p, T value) {
    if (count >= N) return;
    slots[count++] = StoreSlot{p.addr, p.host, ToBits(value)};
  }
  bool Full() const { return count >= N; }

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    DeviceOp& op = ParkOp(h, DeviceOp::Kind::kStoreBatch);
    op.bytes = sizeof(T);
    op.batch_count = count;
    op.store_batch = slots;
  }
  void await_resume() const { RaisePendingTrap(); }
};

struct ExternalAwaiter {
  std::function<std::uint64_t()>* fn;  ///< caller-owned; see HostCall docs
  std::uint64_t latency;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    DeviceOp& op = ParkOp(h, DeviceOp::Kind::kExternal);
    op.cycles = latency;
    op.external = fn;
  }
  std::uint64_t await_resume() const { return ResumeResult(); }
};

// Every awaiter must be trivially destructible: temporaries inside a
// `co_await` full-expression that need destruction after the suspension
// point are miscompiled by some compilers (observed with GCC 12), so the
// device API never hands out one. Non-trivial state (e.g. an RPC handler)
// lives in a named coroutine local owned by the caller.
static_assert(std::is_trivially_destructible_v<WorkAwaiter>);
static_assert(std::is_trivially_destructible_v<SyncAwaiter>);
static_assert(std::is_trivially_destructible_v<ExternalAwaiter>);
static_assert(std::is_trivially_destructible_v<LoadAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<GatherAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<ScatterAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<GatherAwaiter<double, 1>>);
static_assert(std::is_trivially_destructible_v<ScatterAwaiter<double, 1>>);
static_assert(std::is_trivially_destructible_v<RunAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<RunAwaiter<double, 1>>);
static_assert(std::is_trivially_destructible_v<StoreAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<AtomicAwaiter<double>>);

// Atomic add, applied functionally by the warp at issue time.
template <typename T>
std::uint64_t ApplyAdd(void* host, std::uint64_t operand) {
  T* p = static_cast<T*>(host);
  const T old = *p;
  *p = T(old + FromBits<T>(operand));
  return ToBits(old);
}

}  // namespace detail

struct ThreadCtx {
  Lane* lane = nullptr;
  Block* block = nullptr;

  // Identity within the launch.
  std::uint32_t thread_id = 0;   ///< linear id within the block
  Dim3 tid3;                     ///< 3-D id within the block
  std::uint32_t block_id = 0;    ///< linear id within the grid
  std::uint32_t block_threads = 1;
  Dim3 block_dim;
  std::uint32_t grid_blocks = 1;

  // --- Timed device operations (co_await the result) ------------------------
  template <typename T>
  detail::LoadAwaiter<T> Load(DevicePtr<T> p) const {
    return {p};
  }
  template <typename T>
  detail::StoreAwaiter<T> Store(DevicePtr<T> p, T value) const {
    return {p, value};
  }
  template <typename T>
  detail::AtomicAwaiter<T> AtomicAdd(DevicePtr<T> p, T v) const {
    return {p, v, &detail::ApplyAdd<T>};
  }

  /// Pure compute for `cycles` SM cycles (contends for issue pipes).
  detail::WorkAwaiter Work(std::uint64_t cycles) const {
    return {cycles};
  }

  /// Empty gather of capacity N to fill with Add() and then co_await:
  ///   auto g = ctx.Gather<double>();
  ///   for (...) g.Add(ptrs[i]);
  ///   co_await g;           // one pipelined instruction
  ///   ... g.Result(i) ...
  /// The slots live in the calling coroutine's frame; give a fixed-bound
  /// batch its bound (`Gather<double, 12>()`) and keep the default
  /// kMaxGather for loops that chunk.
  template <typename T, std::uint32_t N = detail::kMaxGather>
  detail::GatherAwaiter<T, N> Gather() const {
    return {};
  }

  /// Load of `count` consecutive elements starting at `p` (a streaming
  /// run) of capacity N; count must be ≤ N. Times and reads exactly like a
  /// Gather of p, p + 1, ..., p + count - 1, with results packed.
  template <std::uint32_t N = detail::kMaxGather, typename T>
  detail::RunAwaiter<T, N> LoadRun(DevicePtr<T> p,
                                   std::uint32_t count) const {
    DGC_CHECK(count <= N);
    return detail::RunAwaiter<T, N>(p, count);
  }

  /// Empty scatter of capacity N (pipelined independent stores) to fill
  /// with Add():
  ///   auto s = ctx.Scatter<double>();
  ///   for (...) s.Add(out + i, value[i]);
  ///   co_await s;
  template <typename T, std::uint32_t N = detail::kMaxGather>
  detail::ScatterAwaiter<T, N> Scatter() const {
    return {};
  }

  /// Block-wide barrier (__syncthreads). Implemented in ctx.cpp — it needs
  /// the Block definition.
  detail::SyncAwaiter SyncThreads() const;

  /// Current device time in cycles (the launch's event-engine clock).
  /// Untimed — a convenience for runtimes that account per-instance cycles.
  std::uint64_t Now() const;

  /// Arms (cycles > 0) or disarms (cycles == 0) a watchdog over every lane
  /// of this lane's team row (tid3.y): each lane traps with kWatchdog at
  /// its first resume at or after now + cycles. The ensemble loader re-arms
  /// this per instance so a hung instance is killed without bounding its
  /// well-behaved siblings.
  void ArmRowWatchdog(std::uint64_t cycles) const;

  /// Barrier over an explicit lane set (sub-team synchronization).
  detail::SyncAwaiter SyncOn(Barrier* barrier) const {
    return {barrier};
  }

  /// Host callback (the RPC hook): pays `latency` device cycles and runs
  /// `*fn` on the host at service time; resumes with fn's return value.
  ///
  /// `*fn` must be a named local of the calling coroutine (it must stay
  /// alive across the suspension):
  ///
  ///   std::function<std::uint64_t()> handler = [...] { ... };
  ///   auto reply = co_await ctx.HostCall(&handler, latency);
  detail::ExternalAwaiter HostCall(std::function<std::uint64_t()>* fn,
                                   std::uint64_t latency) const {
    return {fn, latency};
  }
};

}  // namespace dgc::sim
