// Partial device libc.
//
// Direct GPU compilation ships a partial libc as device code ([26], Fig. 2)
// so that ordinary host programs link and run: a device heap, string and
// conversion routines (used by argument parsing in `__user_main`), and
// printf via the host RPC. String helpers here operate on device pointers
// through their host backing; they are *untimed* by design — they run in
// per-instance setup code whose cost is negligible next to the kernels —
// while heap operations charge an allocation cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"
#include "gpusim/task.h"
#include "support/status.h"

namespace dgc::dgcf {

class DeviceLibc {
 public:
  explicit DeviceLibc(sim::Device& device) : device_(device) {}

  DeviceLibc(const DeviceLibc&) = delete;
  DeviceLibc& operator=(const DeviceLibc&) = delete;

  /// Installs a deterministic fault plan: each Malloc first consults
  /// plan->NextMallocFails() and fails (null buffer) when it says so, as if
  /// the heap were exhausted. nullptr turns injection off.
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }
  sim::FaultPlan* fault_plan() const { return faults_; }

  /// Device-side malloc: charges the allocation cost and returns the
  /// buffer, or a null buffer (host == nullptr) on out-of-memory — the
  /// C-malloc contract; callers must check. This is how ensemble instances
  /// contend for device memory capacity (the paper's Page-Rank limit).
  sim::DeviceTask<sim::DeviceBuffer> Malloc(sim::ThreadCtx& ctx,
                                            std::uint64_t bytes);

  /// Malloc for code that does NOT check (most directly-compiled apps
  /// dereference malloc results unconditionally): throws
  /// DeviceTrap(kOOM) on allocation failure instead of returning a null
  /// buffer, so the loader can contain the failure to the instance.
  sim::DeviceTask<sim::DeviceBuffer> MallocOrTrap(sim::ThreadCtx& ctx,
                                                  std::uint64_t bytes);

  /// abort(3): terminates the calling instance with an abort trap.
  /// [[noreturn]] in spirit — always throws DeviceTrap(kAbort).
  static void Abort(const char* why = "abort() called");

  /// Result of AcquireSharedGroup: one buffer per requested size (null for
  /// zero sizes), plus whether this instance materialized the group and must
  /// fill it. `ok == false` means out of memory — nothing is held.
  struct SharedGroup {
    std::vector<sim::DeviceBuffer> buffers;
    bool first = false;
    bool ok = false;
  };

  /// Acquires a group of content-keyed shared read-only segments in one
  /// atomic step (no suspension between the per-array acquires, so `first`
  /// is uniform across the group). The i-th array's key is derived from
  /// `content_key` and its ordinal. Charges one heap operation per array.
  /// On partial OOM every acquired segment is released and ok is false.
  /// Each buffer is released with an ordinary Free (reference-counted).
  sim::DeviceTask<SharedGroup> AcquireSharedGroup(
      sim::ThreadCtx& ctx, std::uint64_t content_key,
      const std::vector<std::uint64_t>& sizes, const char* label);

  /// Device-side free. free(NULL) is a free no-op, like C; freeing an
  /// unknown address is ignored functionally but counted (and is a
  /// memcheck invalid-free finding when a sanitizer is attached).
  sim::DeviceTask<void> Free(sim::ThreadCtx& ctx, sim::DeviceAddr addr);

  std::uint64_t live_allocations() const { return live_; }
  std::uint64_t failed_allocations() const { return failed_; }
  std::uint64_t failed_frees() const { return failed_frees_; }

  // --- String routines over device pointers (untimed setup-path helpers) ---
  static int StrCmp(sim::DevicePtr<char> a, const char* b);
  static std::string ToString(sim::DevicePtr<char> s);

  /// Cost charged per Malloc/Free call, in device cycles (the deviceRTL
  /// heap lock + bookkeeping).
  static constexpr std::uint64_t kHeapOpCycles = 400;

 private:
  sim::Device& device_;
  sim::FaultPlan* faults_ = nullptr;
  std::uint64_t live_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failed_frees_ = 0;
};

}  // namespace dgc::dgcf
