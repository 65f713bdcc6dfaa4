#include "dgcf/libc.h"

#include "support/log.h"
#include "support/str.h"

namespace dgc::dgcf {

sim::DeviceTask<sim::DeviceBuffer> DeviceLibc::Malloc(sim::ThreadCtx& ctx,
                                                      std::uint64_t bytes) {
  co_await ctx.Work(kHeapOpCycles);
  if (faults_ != nullptr && faults_->NextMallocFails()) {
    ++failed_;
    DGC_LOG(kInfo) << "device malloc(" << bytes << ") failed: injected";
    co_return sim::DeviceBuffer{};
  }
  auto buf = device_.Malloc(bytes);
  if (!buf.ok()) {
    ++failed_;
    DGC_LOG(kInfo) << "device malloc(" << bytes
                   << ") failed: " << buf.status().ToString();
    co_return sim::DeviceBuffer{};
  }
  ++live_;
  co_return *buf;
}

sim::DeviceTask<sim::DeviceBuffer> DeviceLibc::MallocOrTrap(
    sim::ThreadCtx& ctx, std::uint64_t bytes) {
  sim::DeviceBuffer buf = co_await Malloc(ctx, bytes);
  if (buf.host == nullptr) {
    throw sim::DeviceTrap(
        sim::TrapKind::kOOM,
        StrFormat("malloc(%llu) failed with no error check",
                  static_cast<unsigned long long>(bytes)));
  }
  co_return buf;
}

sim::DeviceTask<DeviceLibc::SharedGroup> DeviceLibc::AcquireSharedGroup(
    sim::ThreadCtx& ctx, std::uint64_t content_key,
    const std::vector<std::uint64_t>& sizes, const char* label) {
  // Pay the heap cost up front in one Work op: the acquires themselves must
  // not suspend, so attach-vs-materialize is decided atomically per group.
  std::uint64_t heap_ops = 0;
  for (const std::uint64_t bytes : sizes) heap_ops += bytes != 0 ? 1 : 0;
  if (heap_ops != 0) co_await ctx.Work(kHeapOpCycles * heap_ops);

  SharedGroup group;
  group.buffers.resize(sizes.size());
  bool first = false, failed = false;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0) continue;
    if (faults_ != nullptr && faults_->NextMallocFails()) {
      ++failed_;
      DGC_LOG(kInfo) << "shared acquire(" << sizes[i] << ") failed: injected";
      failed = true;
      break;
    }
    // Mix the ordinal into the key so arrays of equal size in one group
    // never alias each other.
    const std::uint64_t key = content_key ^ (0x9e3779b97f4a7c15ull * (i + 1));
    auto seg = device_.memory().AcquireShared(
        key, sizes[i], StrFormat("%s[%zu]", label, i));
    if (!seg.ok()) {
      DGC_LOG(kInfo) << "shared acquire(" << sizes[i]
                     << ") failed: " << seg.status().ToString();
      ++failed_;
      failed = true;
      break;
    }
    first |= seg->first;
    group.buffers[i] = seg->buffer;
    ++live_;
  }
  if (failed) {
    for (const sim::DeviceBuffer& buf : group.buffers) {
      if (buf.host == nullptr) continue;
      (void)device_.Free(buf.addr);
      --live_;
    }
    co_return SharedGroup{};
  }
  // `first` is true when ANY array materialized: if a departing holder freed
  // part of a group before this acquire, the caller re-fills every array.
  // Re-filling an attached array writes bytes identical to its contents
  // (content-keyed), so that is benign.
  group.first = first;
  group.ok = true;
  co_return group;
}

void DeviceLibc::Abort(const char* why) {
  throw sim::DeviceTrap(sim::TrapKind::kAbort, why);
}

sim::DeviceTask<void> DeviceLibc::Free(sim::ThreadCtx& ctx,
                                       sim::DeviceAddr addr) {
  // free(NULL) is a no-op and must not pay the heap-lock cost.
  if (addr == 0) co_return;
  co_await ctx.Work(kHeapOpCycles);
  const Status s = device_.Free(addr);
  if (s.ok()) {
    --live_;
  } else {
    ++failed_frees_;
    DGC_LOG(kInfo) << "device free(" << addr << ") failed: " << s.ToString();
  }
}

int DeviceLibc::StrCmp(sim::DevicePtr<char> a, const char* b) {
  std::uint64_t i = 0;
  while (a.host[i] != '\0' && a.host[i] == b[i]) ++i;
  return int(static_cast<unsigned char>(a.host[i])) -
         int(static_cast<unsigned char>(b[i]));
}

std::string DeviceLibc::ToString(sim::DevicePtr<char> s) {
  return std::string(s.host);
}

}  // namespace dgc::dgcf
