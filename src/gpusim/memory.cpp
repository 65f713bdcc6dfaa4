#include "gpusim/memory.h"

#include "gpusim/launch_context.h"
#include "gpusim/lane.h"
#include "support/str.h"
#include "support/units.h"

namespace dgc::sim {

DeviceMemory::DeviceMemory(std::uint64_t capacity, std::uint32_t alignment)
    : capacity_(capacity), alignment_(alignment) {
  DGC_CHECK(alignment_ != 0 && (alignment_ & (alignment_ - 1)) == 0);
}

StatusOr<DeviceBuffer> DeviceMemory::Allocate(std::uint64_t bytes) {
  if (bytes == 0) {
    return Status(ErrorCode::kInvalidArgument, "zero-byte device allocation");
  }
  const std::uint64_t rounded =
      (bytes + alignment_ - 1) & ~std::uint64_t(alignment_ - 1);
  if (bytes_in_use_ + rounded > capacity_) {
    return Status(
        ErrorCode::kOutOfMemory,
        StrFormat("device OOM: requested %s (rounded to %s), in use %s of %s",
                  FormatBytes(bytes).c_str(), FormatBytes(rounded).c_str(),
                  FormatBytes(bytes_in_use_).c_str(),
                  FormatBytes(capacity_).c_str()));
  }

  // First-fit over free holes (ordered by address → deterministic).
  DeviceAddr addr = 0;
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= rounded) {
      addr = it->first;
      const std::uint64_t remaining = it->second - rounded;
      free_.erase(it);
      if (remaining > 0) free_.emplace(addr + rounded, remaining);
      break;
    }
  }
  if (addr == 0) {
    addr = frontier_;
    frontier_ += rounded;
  }

  Region region;
  region.bytes = rounded;
  region.storage = std::make_unique<std::byte[]>(rounded);
  region.owner = InstanceOfLane(CurrentLane());
  std::byte* host = region.storage.get();
  OwnerMemStats& owner = owner_stats_[region.owner];
  owner.bytes_in_use += rounded;
  owner.peak_bytes = std::max(owner.peak_bytes, owner.bytes_in_use);
  ++owner.live_allocations;
  ++owner.total_allocations;
  live_.emplace(addr, std::move(region));
  bytes_in_use_ += rounded;
  peak_bytes_ = std::max(peak_bytes_, bytes_in_use_);
  if (listener_ != nullptr) listener_->OnAlloc(addr, bytes, rounded);
  return DeviceBuffer{addr, rounded, host};
}

StatusOr<SharedSegment> DeviceMemory::AcquireShared(std::uint64_t content_key,
                                                    std::uint64_t bytes,
                                                    const std::string& label) {
  if (bytes == 0) {
    return Status(ErrorCode::kInvalidArgument, "zero-byte shared segment");
  }
  const auto key = std::make_pair(content_key, bytes);
  if (auto it = shared_by_key_.find(key); it != shared_by_key_.end()) {
    SharedInfo& info = it->second;
    ++info.refs;
    ++shared_attaches_;
    const Region& region = live_.at(info.addr);
    shared_bytes_saved_ += region.bytes;
    return SharedSegment{
        DeviceBuffer{info.addr, region.bytes, region.storage.get()}, false};
  }
  auto buf = Allocate(bytes);
  if (!buf.ok()) return buf.status();
  shared_by_key_.emplace(key, SharedInfo{buf->addr, 1});
  shared_by_addr_.emplace(buf->addr, key);
  ++shared_materialized_;
  if (listener_ != nullptr) listener_->OnSharedRegion(buf->addr, label);
  return SharedSegment{*buf, true};
}

Status DeviceMemory::Free(DeviceAddr addr) {
  auto it = live_.find(addr);
  if (it == live_.end()) {
    if (listener_ != nullptr) listener_->OnFreeFailed(addr);
    return Status(ErrorCode::kInvalidArgument,
                  StrFormat("free of unknown device address 0x%llx",
                            (unsigned long long)addr));
  }
  // Shared segments: drop one reference; the physical copy survives until
  // the last holder frees it, so app teardown stays uniform.
  if (auto shared = shared_by_addr_.find(addr);
      shared != shared_by_addr_.end()) {
    SharedInfo& info = shared_by_key_.at(shared->second);
    if (--info.refs > 0) return Status::Ok();
    shared_by_key_.erase(shared->second);
    shared_by_addr_.erase(shared);
  }
  std::uint64_t bytes = it->second.bytes;
  OwnerMemStats& owner = owner_stats_[it->second.owner];
  owner.bytes_in_use -= bytes;
  --owner.live_allocations;
  bytes_in_use_ -= bytes;
  live_.erase(it);
  if (listener_ != nullptr) listener_->OnFree(addr, bytes);

  // Insert the hole and coalesce with neighbours.
  auto [hole, inserted] = free_.emplace(addr, bytes);
  DGC_CHECK(inserted);
  // Merge with successor.
  auto next = std::next(hole);
  if (next != free_.end() && hole->first + hole->second == next->first) {
    hole->second += next->second;
    free_.erase(next);
  }
  // Merge with predecessor.
  if (hole != free_.begin()) {
    auto prev = std::prev(hole);
    if (prev->first + prev->second == hole->first) {
      prev->second += hole->second;
      free_.erase(hole);
      hole = prev;
    }
  }
  // Return frontier-adjacent space to the frontier.
  if (hole->first + hole->second == frontier_) {
    frontier_ = hole->first;
    free_.erase(hole);
  }
  return Status::Ok();
}

std::byte* DeviceMemory::HostPtr(DeviceAddr addr) const {
  auto it = live_.upper_bound(addr);
  if (it == live_.begin()) return nullptr;
  --it;
  if (addr >= it->first + it->second.bytes) return nullptr;
  return it->second.storage.get() + (addr - it->first);
}

std::vector<std::pair<DeviceAddr, std::uint64_t>>
DeviceMemory::LiveAllocations() const {
  std::vector<std::pair<DeviceAddr, std::uint64_t>> out;
  out.reserve(live_.size());
  for (const auto& [addr, region] : live_) out.emplace_back(addr, region.bytes);
  return out;
}

bool DeviceMemory::Contains(DeviceAddr addr, std::uint64_t bytes) const {
  auto it = live_.upper_bound(addr);
  if (it == live_.begin()) return false;
  --it;
  // Tight semantics: `addr` itself must be inside the allocation, so the
  // one-past-the-end address is never contained — not even for an empty
  // range. Written without `addr + bytes` to stay overflow-safe.
  const DeviceAddr end = it->first + it->second.bytes;
  return addr >= it->first && addr < end && bytes <= end - addr;
}

DeviceMemSnapshot DeviceMemory::Snapshot() const {
  DeviceMemSnapshot snap;
  snap.capacity = capacity_;
  snap.bytes_in_use = bytes_in_use_;
  snap.peak_bytes = peak_bytes_;
  snap.allocation_count = live_.size();
  snap.shared_live = shared_by_addr_.size();
  snap.shared_materialized = shared_materialized_;
  snap.shared_attaches = shared_attaches_;
  snap.shared_bytes_saved = shared_bytes_saved_;
  return snap;
}

}  // namespace dgc::sim
