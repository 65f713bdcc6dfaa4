// Simulated device global memory: a deterministic allocator over the
// device address space with host-side backing storage.
//
// The allocator is a first-fit free list with splitting and coalescing —
// deliberately similar to a real device heap, because the paper's analysis
// hinges on instances allocating from *distinct, non-contiguous* heap
// regions. Determinism: the same allocation sequence always produces the
// same device addresses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/address.h"
#include "support/status.h"

namespace dgc::sim {

/// A device allocation: address range plus backing storage.
struct DeviceBuffer {
  DeviceAddr addr = 0;
  std::uint64_t bytes = 0;
  std::byte* host = nullptr;

  template <typename T>
  DevicePtr<T> Typed(std::uint64_t element_offset = 0) const {
    return DevicePtr<T>{addr + element_offset * sizeof(T),
                        reinterpret_cast<T*>(host) + element_offset};
  }
};

/// Observer of allocator events; the memcheck shadow map subscribes to
/// mirror allocation bounds and liveness (gpusim/memcheck.h).
class AllocationListener {
 public:
  virtual ~AllocationListener() = default;
  /// A successful allocation: `requested` is the caller's size, `rounded`
  /// the aligned extent actually reserved at `addr`.
  virtual void OnAlloc(DeviceAddr addr, std::uint64_t requested,
                       std::uint64_t rounded) = 0;
  /// A successful free of the allocation based at `addr`.
  virtual void OnFree(DeviceAddr addr, std::uint64_t rounded) = 0;
  /// A rejected free (unknown or already-freed base address).
  virtual void OnFreeFailed(DeviceAddr addr) = 0;
  /// The allocation based at `addr` became an instance-shared read-only
  /// segment (AcquireShared materialized it). Fires once per physical copy,
  /// after the OnAlloc for the same address. Optional: the default ignores
  /// it so listeners that predate sharing keep working.
  virtual void OnSharedRegion(DeviceAddr addr, const std::string& label) {
    (void)addr;
    (void)label;
  }
};

/// Result of AcquireShared: the (possibly pre-existing) backing buffer plus
/// whether this caller materialized it and must fill the contents.
struct SharedSegment {
  DeviceBuffer buffer;
  bool first = false;  ///< true → caller owns initialization of the data
};

/// Point-in-time allocator counters, exported into dgc-metrics-v1.
struct DeviceMemSnapshot {
  std::uint64_t capacity = 0;
  std::uint64_t bytes_in_use = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t allocation_count = 0;
  std::uint64_t shared_live = 0;          ///< live shared segments
  std::uint64_t shared_materialized = 0;  ///< physical copies ever created
  std::uint64_t shared_attaches = 0;      ///< key hits mapped to an existing copy
  std::uint64_t shared_bytes_saved = 0;   ///< rounded bytes attaches did not copy
};

/// Per-owner accounting (owner -1 = unattributed host-side allocations).
struct OwnerMemStats {
  std::uint64_t bytes_in_use = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t live_allocations = 0;
  std::uint64_t total_allocations = 0;
};

class DeviceMemory {
 public:
  /// `capacity` bounds the sum of live allocations (the "40GB" the paper's
  /// Page-Rank runs exhaust). `alignment` applies to every allocation.
  explicit DeviceMemory(std::uint64_t capacity, std::uint32_t alignment = 256);

  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;

  /// Allocates `bytes` (rounded up to the alignment); kOutOfMemory when the
  /// capacity would be exceeded or the address space is too fragmented.
  StatusOr<DeviceBuffer> Allocate(std::uint64_t bytes);

  /// Frees a previous allocation by base address. Shared segments are
  /// reference-counted: a Free drops one reference and the storage is only
  /// reclaimed (with the listener's OnFree) when the last reference goes.
  Status Free(DeviceAddr addr);

  /// Content-keyed shared read-only segment. The first caller with a given
  /// (content_key, bytes) pair materializes a physical allocation
  /// (`first = true`; the caller must fill the storage and then treat it as
  /// immutable); later callers with the identical key attach to the same
  /// backing buffer (`first = false`) and must not write it. Each acquire —
  /// first or attach — holds one reference released by Free(addr).
  StatusOr<SharedSegment> AcquireShared(std::uint64_t content_key,
                                        std::uint64_t bytes,
                                        const std::string& label = {});

  /// True when `addr` is the base of a live shared segment.
  bool IsShared(DeviceAddr addr) const {
    return shared_by_addr_.find(addr) != shared_by_addr_.end();
  }

  /// Translates a device address to its backing host pointer; nullptr when
  /// the address is not inside a live allocation.
  std::byte* HostPtr(DeviceAddr addr) const;

  /// True when [addr, addr+bytes) lies inside one live allocation.
  bool Contains(DeviceAddr addr, std::uint64_t bytes) const;

  std::uint64_t bytes_in_use() const { return bytes_in_use_; }
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t allocation_count() const { return live_.size(); }
  /// High-water mark of bytes_in_use over the instance lifetime.
  std::uint64_t peak_bytes() const { return peak_bytes_; }

  /// Current counters in one struct, for the metrics exporter.
  DeviceMemSnapshot Snapshot() const;

  /// At most one listener; replaces any previous one (nullptr detaches).
  void set_listener(AllocationListener* listener) { listener_ = listener; }

  /// Per-owner accounting snapshots. Each Allocate is owned by the
  /// instance the allocating lane is running (LaunchContext::InstanceOf);
  /// host-side allocations and lanes between instances own -1. A shared
  /// segment's physical bytes are attributed to the materializing owner
  /// only; attaches cost their owner nothing.
  const std::map<std::int32_t, OwnerMemStats>& owner_stats() const {
    return owner_stats_;
  }

  /// Snapshot of live allocations as (base address, rounded bytes) pairs,
  /// in address order — used to seed a late-attached shadow map.
  std::vector<std::pair<DeviceAddr, std::uint64_t>> LiveAllocations() const;

 private:
  struct Region {
    std::uint64_t bytes = 0;
    std::unique_ptr<std::byte[]> storage;  // null for free regions
    std::int32_t owner = -1;               // allocating instance
  };

  struct SharedInfo {
    DeviceAddr addr = 0;
    std::uint64_t refs = 0;
  };

  std::uint64_t capacity_;
  std::uint32_t alignment_;
  std::uint64_t bytes_in_use_ = 0;
  std::uint64_t peak_bytes_ = 0;
  DeviceAddr frontier_ = kGlobalBase;  ///< first never-used address
  std::map<DeviceAddr, Region> live_;  ///< live allocations by base address
  std::map<DeviceAddr, std::uint64_t> free_;  ///< free holes by base address
  AllocationListener* listener_ = nullptr;

  /// Shared read-only segments, keyed by (content key, requested bytes) so
  /// a key collision across different sizes can never alias storage.
  std::map<std::pair<std::uint64_t, std::uint64_t>, SharedInfo> shared_by_key_;
  std::map<DeviceAddr, std::pair<std::uint64_t, std::uint64_t>> shared_by_addr_;
  std::uint64_t shared_materialized_ = 0;
  std::uint64_t shared_attaches_ = 0;
  std::uint64_t shared_bytes_saved_ = 0;

  std::map<std::int32_t, OwnerMemStats> owner_stats_;
};

}  // namespace dgc::sim
