// Thread block (OpenMP team): lanes, warps, the block barrier, and the
// block's shared-memory window.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/barrier.h"
#include "gpusim/ctx.h"
#include "gpusim/kernel.h"
#include "gpusim/lane.h"
#include "support/status.h"

namespace dgc::sim {

class SM;
class Warp;
struct LaunchContext;

class Block {
 public:
  Block(LaunchContext* lc, std::uint32_t block_id, SM* sm);
  ~Block();

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  /// Creates the lanes' root coroutines and schedules every warp at `now`.
  void Start(std::uint64_t now);

  /// Called by warps when one of this block's lanes terminates.
  void OnLaneDone(Lane* lane, std::uint64_t now);

  /// Bump-allocates `count` elements of shared memory (team-local).
  /// Exhausting the block's shared reservation throws a DeviceTrap(kOOM):
  /// from device code it retires the faulting lane (and is containable per
  /// instance by the ensemble loader) instead of aborting the process.
  template <typename T>
  DevicePtr<T> SharedAlloc(std::uint64_t count) {
    const std::uint64_t bytes = count * sizeof(T);
    const std::uint64_t offset = (shared_used_ + alignof(T) - 1) & ~std::uint64_t(alignof(T) - 1);
    if (offset + bytes > shared_.size()) {
      throw DeviceTrap(TrapKind::kOOM,
                       "shared memory reservation exhausted");
    }
    shared_used_ = offset + bytes;
    return DevicePtr<T>{shared_base_ + offset,
                        reinterpret_cast<T*>(shared_.data() + offset)};
  }

  /// Views the block's shared window at a fixed byte offset without
  /// allocating — the idiom for kernels where every lane addresses the same
  /// statically-placed shared variable (like CUDA `__shared__`). Throws a
  /// DeviceTrap(kOOM) when the window is exceeded, like SharedAlloc.
  template <typename T>
  DevicePtr<T> SharedAt(std::uint64_t byte_offset) {
    if (byte_offset + sizeof(T) > shared_.size()) {
      throw DeviceTrap(TrapKind::kOOM, "shared memory window exceeded");
    }
    return DevicePtr<T>{shared_base_ + byte_offset,
                        reinterpret_cast<T*>(shared_.data() + byte_offset)};
  }

  /// Arms (deadline > 0) or disarms (0) the per-lane watchdog of every lane
  /// in block row `row` (tid3.y). Rows are the §3.1 sub-team unit, so this
  /// is how a loader bounds one instance's cycles without touching its
  /// block-mates.
  void SetRowWatchdog(std::uint32_t row, std::uint64_t deadline);

  Barrier* barrier() { return &barrier_; }
  SM* sm() const { return sm_; }
  std::uint32_t id() const { return id_; }
  std::uint32_t threads() const { return std::uint32_t(lanes_.size()); }
  LaunchContext* launch_context() const { return lc_; }

  /// Slot for higher layers (the ompx team state machine) to attach
  /// per-team control state. Owned by the block.
  std::shared_ptr<void> user_state;

 private:
  LaunchContext* lc_;
  std::uint32_t id_;
  SM* sm_;
  std::vector<Lane> lanes_;
  std::vector<ThreadCtx> ctxs_;
  std::vector<std::unique_ptr<Warp>> warps_;
  Barrier barrier_;
  std::vector<std::byte> shared_;
  std::uint64_t shared_used_ = 0;
  DeviceAddr shared_base_ = 0;
  std::uint32_t live_ = 0;
};

}  // namespace dgc::sim
