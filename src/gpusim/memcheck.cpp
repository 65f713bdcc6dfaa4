#include "gpusim/memcheck.h"

#include "gpusim/ctx.h"
#include "gpusim/launch_context.h"
#include "gpusim/stats.h"
#include "gpusim/warp.h"
#include "support/str.h"

namespace dgc::sim {
namespace {

/// Retired allocations kept for use-after-free attribution. Old entries are
/// evicted FIFO; a UAF on an evicted range degrades to a wild OOB report.
constexpr std::size_t kMaxFreedShadow = 4096;

const char* OpName(DeviceOp::Kind op) {
  switch (op) {
    case DeviceOp::Kind::kLoad: return "load";
    case DeviceOp::Kind::kLoadBatch: return "gather";
    case DeviceOp::Kind::kStore: return "store";
    case DeviceOp::Kind::kStoreBatch: return "scatter";
    case DeviceOp::Kind::kAtomic: return "atomic";
    default: return "access";
  }
}

std::string OwnerName(std::int32_t owner) {
  if (owner == kSharedOwner) return "shared";
  if (owner == kReadOnlyShared) return "shared read-only";
  if (owner < 0) return "untagged";
  return StrFormat("instance %d", owner);
}

}  // namespace

const char* ToString(MemcheckErrorKind kind) {
  switch (kind) {
    case MemcheckErrorKind::kOutOfBounds: return "out-of-bounds";
    case MemcheckErrorKind::kUseAfterFree: return "use-after-free";
    case MemcheckErrorKind::kDoubleFree: return "double-free";
    case MemcheckErrorKind::kInvalidFree: return "invalid-free";
    case MemcheckErrorKind::kMisaligned: return "misaligned-access";
    case MemcheckErrorKind::kLeak: return "leak";
    case MemcheckErrorKind::kCrossInstance: return "cross-instance-write";
  }
  return "unknown";
}

std::string MemcheckFinding::ToString() const {
  std::string out = StrFormat("%s: %s of %llu byte(s) at 0x%llx",
                              sim::ToString(kind), OpName(op),
                              (unsigned long long)bytes,
                              (unsigned long long)addr);
  if (attributed) {
    out += StrFormat(" by block %u warp %u lane %u", block_id, warp_id,
                     lane_id);
    if (instance != kNoInstance) {
      out += StrFormat(" (instance %d)", instance);
    }
  }
  if (has_region) {
    out += StrFormat("; region [0x%llx, +%llu) owner %s",
                     (unsigned long long)region_base,
                     (unsigned long long)region_bytes,
                     OwnerName(region_owner).c_str());
    if (!region_label.empty()) out += " \"" + region_label + "\"";
  }
  return out;
}

std::string MemcheckReport::ToString() const {
  if (clean()) return "memcheck: no findings\n";
  std::string out = StrFormat(
      "memcheck: %llu finding(s) — oob %llu, use-after-free %llu, "
      "double-free %llu, invalid-free %llu, misaligned %llu, leak %llu, "
      "cross-instance %llu\n",
      (unsigned long long)total(), (unsigned long long)oob_count,
      (unsigned long long)uaf_count, (unsigned long long)double_free_count,
      (unsigned long long)invalid_free_count,
      (unsigned long long)misaligned_count, (unsigned long long)leak_count,
      (unsigned long long)cross_instance_count);
  for (const MemcheckFinding& f : findings) {
    out += "  " + f.ToString() + "\n";
  }
  if (total() > findings.size()) {
    out += StrFormat("  ... %llu further finding(s) not recorded\n",
                     (unsigned long long)(total() - findings.size()));
  }
  return out;
}

Memcheck::Memcheck(MemcheckConfig config) : config_(config) {}

void Memcheck::Attach(DeviceMemory& memory) {
  memory.set_listener(this);
  // Adopt allocations that predate the attach. Only the rounded extent is
  // known for them, so padding overruns inside those regions go unnoticed.
  for (const auto& [addr, bytes] : memory.LiveAllocations()) {
    if (live_.count(addr) != 0) continue;
    ShadowAlloc shadow;
    shadow.addr = addr;
    shadow.bytes = bytes;
    shadow.rounded = bytes;
    live_.emplace(addr, std::move(shadow));
  }
}

void Memcheck::OnAlloc(DeviceAddr addr, std::uint64_t requested,
                       std::uint64_t rounded) {
  // The allocator reuses freed ranges; drop retired shadows they overlap so
  // stale use-after-free attribution cannot shadow the new region.
  auto it = freed_.lower_bound(addr);
  if (it != freed_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.rounded > addr) it = prev;
  }
  while (it != freed_.end() && it->first < addr + rounded) {
    std::erase(freed_order_, it->first);
    it = freed_.erase(it);
  }

  ShadowAlloc shadow;
  shadow.addr = addr;
  shadow.bytes = requested;
  shadow.rounded = rounded;
  if (const Lane* lane = CurrentLane(); lane != nullptr) {
    shadow.device_alloc = true;
    shadow.alloc_attributed = true;
    shadow.alloc_block = lane->ctx != nullptr ? lane->ctx->block_id : 0;
    shadow.alloc_thread = lane->thread_id;
    shadow.alloc_instance = InstanceOfLane(lane);
    shadow.owner = shadow.alloc_instance;
  }
  live_[addr] = std::move(shadow);
}

void Memcheck::OnFree(DeviceAddr addr, std::uint64_t /*rounded*/) {
  auto it = live_.find(addr);
  if (it == live_.end()) return;
  if (freed_order_.size() >= kMaxFreedShadow) {
    freed_.erase(freed_order_.front());
    freed_order_.erase(freed_order_.begin());
  }
  freed_order_.push_back(addr);
  freed_[addr] = std::move(it->second);
  live_.erase(it);
}

void Memcheck::OnFreeFailed(DeviceAddr addr) {
  MemcheckFinding f;
  f.addr = addr;
  if (const Lane* lane = CurrentLane(); lane != nullptr) Attribute(f, *lane);
  if (const ShadowAlloc* dead = FindFreed(addr);
      dead != nullptr && dead->addr == addr) {
    f.kind = MemcheckErrorKind::kDoubleFree;
    DescribeRegion(f, *dead);
  } else {
    f.kind = MemcheckErrorKind::kInvalidFree;
    if (const ShadowAlloc* region = FindLive(addr)) DescribeRegion(f, *region);
  }
  Record(std::move(f));
}

void Memcheck::OnSharedRegion(DeviceAddr addr, const std::string& label) {
  TagRegion(addr, kReadOnlyShared, label);
}

void Memcheck::TagRegion(DeviceAddr addr, std::int32_t owner,
                         std::string label) {
  auto it = live_.find(addr);
  if (it == live_.end()) return;
  it->second.owner = owner;
  it->second.first_writer = kNoInstance;
  it->second.label = std::move(label);
}

void Memcheck::OnLaunchBegin() {
  findings_at_launch_begin_ = report_.total();
}

void Memcheck::OnLaunchEnd(LaunchStats& stats) {
  if (config_.check_leaks) {
    for (auto& [addr, shadow] : live_) {
      if (!shadow.device_alloc || shadow.leak_reported) continue;
      shadow.leak_reported = true;
      MemcheckFinding f;
      f.kind = MemcheckErrorKind::kLeak;
      f.addr = addr;
      f.bytes = shadow.bytes;
      f.attributed = shadow.alloc_attributed;
      f.block_id = shadow.alloc_block;
      f.thread_id = shadow.alloc_thread;
      f.lane_id = shadow.alloc_thread % 32;
      f.warp_id = shadow.alloc_thread / 32;
      f.instance = shadow.alloc_instance;
      DescribeRegion(f, shadow);
      Record(std::move(f));
    }
  }
  stats.memcheck_findings += report_.total() - findings_at_launch_begin_;
  findings_at_launch_begin_ = report_.total();
}

bool Memcheck::CheckAccess(const Lane& lane, DeviceOp::Kind op,
                           DeviceAddr addr, std::uint32_t bytes,
                           bool is_write) {
  if (config_.check_alignment && bytes != 0 && addr % bytes != 0) {
    MemcheckFinding f;
    f.kind = MemcheckErrorKind::kMisaligned;
    f.op = op;
    f.addr = addr;
    f.bytes = bytes;
    Attribute(f, lane);
    Record(std::move(f));
  }

  const ShadowAlloc* region = FindLive(addr);
  if (region == nullptr) {
    MemcheckFinding f;
    f.op = op;
    f.addr = addr;
    f.bytes = bytes;
    Attribute(f, lane);
    if (const ShadowAlloc* dead = FindFreed(addr)) {
      f.kind = MemcheckErrorKind::kUseAfterFree;
      DescribeRegion(f, *dead);
    } else {
      f.kind = MemcheckErrorKind::kOutOfBounds;
    }
    Record(std::move(f));
    return false;  // no live backing storage — suppress the access
  }

  if (addr + bytes > region->addr + region->bytes) {
    // Inside the allocator's rounding padding (or straddling the requested
    // end): flagged, but backed by real storage, so the access may proceed.
    MemcheckFinding f;
    f.kind = MemcheckErrorKind::kOutOfBounds;
    f.op = op;
    f.addr = addr;
    f.bytes = bytes;
    Attribute(f, lane);
    DescribeRegion(f, *region);
    Record(std::move(f));
    return addr + bytes <= region->addr + region->rounded;
  }

  if (config_.check_cross_instance && is_write &&
      region->owner != kNoInstance) {
    const std::int32_t inst = InstanceOfLane(&lane);
    if (inst != kNoInstance) {
      bool race = false;
      if (region->owner >= 0) {
        race = inst != region->owner;
      } else if (region->owner == kReadOnlyShared) {
        // A shared read-only input segment: no writer is ever legitimate.
        race = true;
      } else {  // kSharedOwner: first writer claims, later writers race
        ShadowAlloc* mut = const_cast<ShadowAlloc*>(region);
        if (mut->first_writer == kNoInstance) {
          mut->first_writer = inst;
        } else {
          race = inst != mut->first_writer;
        }
      }
      if (race) {
        MemcheckFinding f;
        f.kind = MemcheckErrorKind::kCrossInstance;
        f.op = op;
        f.addr = addr;
        f.bytes = bytes;
        Attribute(f, lane);
        DescribeRegion(f, *region);
        Record(std::move(f));
      }
    }
  }
  return true;
}

void Memcheck::ResetReport() {
  report_ = MemcheckReport{};
  findings_at_launch_begin_ = 0;
}

const Memcheck::ShadowAlloc* Memcheck::FindLive(DeviceAddr addr) const {
  auto it = live_.upper_bound(addr);
  if (it == live_.begin()) return nullptr;
  --it;
  if (addr >= it->first + it->second.rounded) return nullptr;
  return &it->second;
}

const Memcheck::ShadowAlloc* Memcheck::FindFreed(DeviceAddr addr) const {
  auto it = freed_.upper_bound(addr);
  if (it == freed_.begin()) return nullptr;
  --it;
  if (addr >= it->first + it->second.rounded) return nullptr;
  return &it->second;
}

void Memcheck::Attribute(MemcheckFinding& f, const Lane& lane) const {
  f.attributed = true;
  f.thread_id = lane.thread_id;
  if (lane.warp != nullptr) {
    f.warp_id = lane.warp->id();
    f.lane_id = lane.thread_id % 32;
  }
  if (lane.ctx != nullptr) f.block_id = lane.ctx->block_id;
  f.instance = InstanceOfLane(&lane);
}

void Memcheck::DescribeRegion(MemcheckFinding& f,
                              const ShadowAlloc& region) const {
  f.has_region = true;
  f.region_base = region.addr;
  f.region_bytes = region.bytes;
  f.region_owner = region.owner;
  f.region_label = region.label;
}

void Memcheck::Record(MemcheckFinding finding) {
  ++CounterFor(finding.kind);
  if (report_.findings.size() < config_.max_findings) {
    report_.findings.push_back(std::move(finding));
  }
}

std::uint64_t& Memcheck::CounterFor(MemcheckErrorKind kind) {
  switch (kind) {
    case MemcheckErrorKind::kOutOfBounds: return report_.oob_count;
    case MemcheckErrorKind::kUseAfterFree: return report_.uaf_count;
    case MemcheckErrorKind::kDoubleFree: return report_.double_free_count;
    case MemcheckErrorKind::kInvalidFree: return report_.invalid_free_count;
    case MemcheckErrorKind::kMisaligned: return report_.misaligned_count;
    case MemcheckErrorKind::kLeak: return report_.leak_count;
    case MemcheckErrorKind::kCrossInstance:
      return report_.cross_instance_count;
  }
  return report_.oob_count;
}

}  // namespace dgc::sim
