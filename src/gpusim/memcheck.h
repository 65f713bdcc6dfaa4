// Device memcheck: a compute-sanitizer-style shadow-memory layer.
//
// The shadow map mirrors every DeviceMemory allocation (bounds, liveness,
// owning ensemble instance) and is consulted by the warp scheduler on every
// timed global-memory access. It detects, without perturbing the timing
// model:
//
//   * out-of-bounds accesses — the address lies outside the *requested*
//     extent of its owning allocation (including the allocator's rounding
//     padding) or in no allocation at all;
//   * use-after-free — the address falls inside a retired allocation;
//   * double free / invalid free — a second free of the same base address,
//     or a free of an address that is not an allocation base;
//   * misaligned accesses — an access not naturally aligned to its width
//     (real GPUs fault on these; the functional simulator tolerates them);
//   * leaks — allocations made *by device code* still live at kernel exit;
//   * cross-instance writes — the ensemble race detector (paper §3.3):
//     regions tagged with an owning instance reject writes from other
//     instances, and regions tagged kSharedOwner report a race as soon as
//     two distinct instances write them.
//
// Accesses whose backing storage no longer exists (use-after-free, wild
// out-of-bounds) are *contained*: the functional read/write is suppressed
// (loads return 0), so a broken instance cannot corrupt a co-resident one
// or the host process. Timing is charged as if the access happened.
//
// Usage:
//   Memcheck memcheck;
//   memcheck.Attach(device.memory());   // before building device state
//   config.memcheck = &memcheck;        // opt in on the launch
//   ... launch ...
//   memcheck.report()                    // findings + counters
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpusim/lane.h"
#include "gpusim/memory.h"

namespace dgc::sim {

struct LaunchStats;

/// Sentinel owners for shadow regions (real instance ids are >= 0).
inline constexpr std::int32_t kNoInstance = -1;  ///< unknown / not checked
inline constexpr std::int32_t kSharedOwner = -2; ///< deliberately shared
/// Instance-shared read-only input segment (DeviceMemory::AcquireShared):
/// reads from any instance are benign, but ANY attributed write is a
/// cross-instance race — unlike kSharedOwner there is no first-writer claim.
inline constexpr std::int32_t kReadOnlyShared = -3;

enum class MemcheckErrorKind : std::uint8_t {
  kOutOfBounds,
  kUseAfterFree,
  kDoubleFree,
  kInvalidFree,
  kMisaligned,
  kLeak,
  kCrossInstance,
};

const char* ToString(MemcheckErrorKind kind);

struct MemcheckFinding {
  MemcheckErrorKind kind = MemcheckErrorKind::kOutOfBounds;
  /// Access kind for access findings; kNone for free/leak findings.
  DeviceOp::Kind op = DeviceOp::Kind::kNone;
  DeviceAddr addr = 0;
  std::uint64_t bytes = 0;  ///< access width, or allocation size for leaks

  // Attribution: which lane did it (valid when `attributed` is true — frees
  // issued from host setup code have no lane).
  bool attributed = false;
  std::uint32_t block_id = 0;
  std::uint32_t warp_id = 0;
  std::uint32_t lane_id = 0;   ///< lane index within the warp
  std::uint32_t thread_id = 0; ///< linear thread id within the block
  std::int32_t instance = kNoInstance;  ///< accessor's ensemble instance

  // The owning (or formerly owning) allocation, when one exists.
  bool has_region = false;
  DeviceAddr region_base = 0;
  std::uint64_t region_bytes = 0;
  std::int32_t region_owner = kNoInstance;
  std::string region_label;

  std::string ToString() const;
};

struct MemcheckReport {
  std::vector<MemcheckFinding> findings;  ///< first kMaxFindings, in order
  std::uint64_t oob_count = 0;
  std::uint64_t uaf_count = 0;
  std::uint64_t double_free_count = 0;
  std::uint64_t invalid_free_count = 0;
  std::uint64_t misaligned_count = 0;
  std::uint64_t leak_count = 0;
  std::uint64_t cross_instance_count = 0;

  std::uint64_t total() const {
    return oob_count + uaf_count + double_free_count + invalid_free_count +
           misaligned_count + leak_count + cross_instance_count;
  }
  bool clean() const { return total() == 0; }
  std::string ToString() const;
};

class Lane;

class Memcheck : public AllocationListener {
 public:
  /// Findings stored verbatim in the report; counters keep counting beyond.
  static constexpr std::size_t kMaxFindings = 64;

  Memcheck() = default;

  Memcheck(const Memcheck&) = delete;
  Memcheck& operator=(const Memcheck&) = delete;

  /// Subscribes to `memory`'s allocation events and seeds the shadow map
  /// with its already-live allocations (so buffers set up before the
  /// memcheck existed are still recognized, with rounded bounds).
  void Attach(DeviceMemory& memory);

  // --- AllocationListener ----------------------------------------------------
  void OnAlloc(DeviceAddr addr, std::uint64_t requested,
               std::uint64_t rounded) override;
  void OnFree(DeviceAddr addr, std::uint64_t rounded) override;
  void OnFreeFailed(DeviceAddr addr) override;
  /// A shared read-only segment materialized at `addr`: tags the region
  /// kReadOnlyShared so any attributed write reports a cross-instance race.
  void OnSharedRegion(DeviceAddr addr, const std::string& label) override;

  // --- Cross-instance tagging ------------------------------------------------
  /// Tags the allocation based at `addr` with an owning instance id
  /// (>= 0), or kSharedOwner for a deliberately shared region whose writes
  /// should be race-checked. Untagged regions are bounds-checked only.
  void TagRegion(DeviceAddr addr, std::int32_t owner, std::string label);

  // --- Launch lifecycle (called by Device::Launch) ---------------------------
  void OnLaunchBegin();
  /// Leak-checks device-code allocations and folds the launch's finding
  /// count into `stats.memcheck_findings`.
  void OnLaunchEnd(LaunchStats& stats);

  /// Validates one lane access. Returns false when the access has no live
  /// backing storage (use-after-free / wild out-of-bounds) — the caller
  /// must then suppress the functional effect.
  bool CheckAccess(const Lane& lane, DeviceOp::Kind op, DeviceAddr addr,
                   std::uint32_t bytes, bool is_write);

  const MemcheckReport& report() const { return report_; }

 private:
  struct ShadowAlloc {
    DeviceAddr addr = 0;
    std::uint64_t bytes = 0;    ///< requested extent (checked bound)
    std::uint64_t rounded = 0;  ///< allocator extent (lookup bound)
    std::int32_t owner = kNoInstance;
    std::int32_t first_writer = kNoInstance;  ///< kSharedOwner race tracking
    bool device_alloc = false;  ///< allocated from device code (leak-checked)
    bool leak_reported = false;
    std::string label;
    // Allocation-site attribution for leak reports.
    bool alloc_attributed = false;
    std::uint32_t alloc_block = 0;
    std::uint32_t alloc_thread = 0;
    std::int32_t alloc_instance = kNoInstance;
  };

  const ShadowAlloc* FindLive(DeviceAddr addr) const;
  const ShadowAlloc* FindFreed(DeviceAddr addr) const;
  void Attribute(MemcheckFinding& f, const Lane& lane) const;
  void DescribeRegion(MemcheckFinding& f, const ShadowAlloc& region) const;
  void Record(MemcheckFinding finding);
  std::uint64_t& CounterFor(MemcheckErrorKind kind);

  MemcheckReport report_;
  std::map<DeviceAddr, ShadowAlloc> live_;
  std::map<DeviceAddr, ShadowAlloc> freed_;  ///< retired allocations (FIFO-bounded)
  std::vector<DeviceAddr> freed_order_;      ///< eviction order for freed_
  std::uint64_t findings_at_launch_begin_ = 0;
};

}  // namespace dgc::sim
