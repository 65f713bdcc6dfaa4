// A lane is one simulated GPU thread.
//
// Lanes execute device code as C++20 coroutines: every timed operation
// (global/shared memory access, compute, barrier, host RPC) is a suspension
// point. The warp scheduler resumes its lanes in lockstep, collects the
// pending operations, and charges the timing model — see warp.h.
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "gpusim/address.h"
#include "gpusim/faults.h"

namespace dgc::sim {

class Barrier;
class Block;
class Warp;
struct ThreadCtx;

/// Bit-level helpers for transporting values (≤ 8 bytes) through DeviceOp.
template <typename T>
std::uint64_t ToBits(T v) {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(T));
  return b;
}

template <typename T>
T FromBits(std::uint64_t b) {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, &b, sizeof(T));
  return v;
}

/// One element of a gather (pipelined load) — see ThreadCtx::Gather. Issue
/// overwrites `host` with the loaded value; the width is in DeviceOp::bytes.
/// A LoadRun needs no slots: its addresses follow from its start.
/// No member initializers: an awaiter's unfilled slots stay uninitialized
/// and only slots [0, count) are ever written or read.
struct BatchSlot {
  DeviceAddr addr;
  union { void* host; std::uint64_t result; };  // result: after issue
};
static_assert(sizeof(BatchSlot) == 16);

/// One element of a batched store — see ThreadCtx::Scatter. A store needs
/// its address, target and value at once, so no word is shared.
struct StoreSlot {
  DeviceAddr addr;
  void* host;
  std::uint64_t value;
};
static_assert(sizeof(StoreSlot) == 24);

/// One pending device operation of a suspended lane: the lane-to-warp
/// hand-off, copied on every timed op. An awaiter writes `kind` and the
/// fields its kind's issue helper in warp.cpp reads (noted per field); the
/// warp clears only `kind`. Other fields hold stale values of earlier ops,
/// so no kind reads a field it does not write — which lets the two unions
/// share one operand word and one pointer word.
struct DeviceOp {
  enum class Kind : std::uint8_t {
    kNone,
    kLoad,
    kLoadBatch,   ///< independent loads issued together (MLP / streaming)
    kStore,
    kStoreBatch,  ///< independent stores issued together
    kAtomic,
    kWork,      ///< pure compute for `cycles`
    kSync,      ///< barrier arrival
    kExternal,  ///< host callback (RPC); pays `cycles` per call
  };

  Kind kind = Kind::kNone;
  std::uint8_t bytes = 0;         ///< memory kinds (per element for batches)
  bool run = false;               ///< load batch: a LoadRun, not a gather
  std::uint32_t batch_count = 0;  ///< batch kinds
  DeviceAddr addr = 0;            ///< load / store / atomic; a run's start
  void* host = nullptr;           ///< load / store / atomic; a run's start
  union {
    std::uint64_t bits = 0;  ///< store value / atomic operand
    std::uint64_t cycles;    ///< work duration or external latency
  };
  union {
    /// Atomic read-modify-write, applied at issue time in lane order.
    std::uint64_t (*apply)(void* host, std::uint64_t operand) = nullptr;
    Barrier* barrier;                          ///< sync
    std::function<std::uint64_t()>* external;  ///< external (RPC)
    BatchSlot* batch;  ///< gather: awaiter-owned, stable while parked
    void* run_results;       ///< run: packed results, likewise
    StoreSlot* store_batch;  ///< store batch: likewise
  };
};
static_assert(sizeof(DeviceOp) <= 40);

class Lane {
 public:
  enum class State : std::uint8_t { kReady, kBlocked, kDone, kFailed };

  Lane() = default;
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane();

  /// Adopts the root coroutine (already created, suspended at its initial
  /// suspend point). `error_slot` points at the root promise's exception
  /// slot so failures can be reported after completion.
  void Start(std::coroutine_handle<> root, std::exception_ptr* error_slot);

  /// Resumes the innermost active coroutine until the next suspension.
  void Resume();

  bool root_finished() const { return root_finished_; }
  std::exception_ptr root_error() const {
    return error_slot_ != nullptr ? *error_slot_ : nullptr;
  }

  /// Set by the root coroutine's final awaiter.
  void MarkRootFinished() { root_finished_ = true; }

  // --- Scheduler state (owned by Warp/Block/Barrier) ------------------------
  // The fields every resume and issue touches come first, so they share the
  // lane's first cache line; the cold ones follow.
  State state = State::kReady;
  /// Armed trap, raised as a DeviceTrap inside the coroutine at the lane's
  /// next resume point (see detail::RaisePendingTrap in ctx.h). Set by the
  /// warp scheduler for watchdog expiry and injected trap sites.
  TrapKind pending_trap = TrapKind::kNone;

 private:
  bool root_finished_ = false;

 public:
  std::uint32_t thread_id = 0;  ///< linear id within the block
  std::uint64_t ready_at = 0;
  DeviceOp pending;
  /// Result of the most recently issued op (read by the awaiter on resume;
  /// survives the warp clearing `pending`).
  std::uint64_t pending_result = 0;
  std::coroutine_handle<> top;  ///< innermost resumable coroutine
  /// Per-lane watchdog: trap the lane at its first resume at or after this
  /// cycle. 0 = disarmed. Re-armed per instance by the ensemble loader.
  std::uint64_t watchdog_deadline = 0;

  Warp* warp = nullptr;
  Block* block = nullptr;
  ThreadCtx* ctx = nullptr;
  std::vector<Barrier*> memberships;  ///< barriers counting this lane
  /// Cycle at which pending_trap was armed (for the trap message).
  std::uint64_t trap_cycle = 0;

 private:
  std::coroutine_handle<> root_;
  std::exception_ptr* error_slot_ = nullptr;
};

/// The lane currently being resumed. Awaiters use it to reach the scheduler
/// without threading a pointer through every promise. Each simulation is
/// single-threaded, but the ensemble sweep harness runs independent Device
/// instances on concurrent host threads — the slot is therefore one per
/// host thread (thread_local), never process-wide.
Lane*& CurrentLane();

}  // namespace dgc::sim
