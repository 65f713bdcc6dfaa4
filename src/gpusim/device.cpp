#include "gpusim/device.h"

#include <cstring>

#include "gpusim/launch_context.h"
#include "support/str.h"

namespace dgc::sim {

Device::Device(DeviceSpec spec)
    : spec_(std::move(spec)),
      memory_(spec_.global_memory_bytes),
      memsys_(spec_) {
  const std::string problems = spec_.Validate();
  DGC_CHECK_MSG(problems.empty(), "invalid DeviceSpec: " + problems);
}

std::uint64_t TransferCycles(const DeviceSpec& spec, std::uint64_t bytes) {
  return spec.pcie_latency_cycles +
         std::uint64_t(double(bytes) / spec.pcie_bytes_per_cycle);
}

std::uint64_t Device::CopyToDevice(const DeviceBuffer& dst, const void* src,
                                   std::uint64_t bytes,
                                   std::uint64_t dst_offset) {
  DGC_CHECK_MSG(dst_offset + bytes <= dst.bytes, "H2D copy out of bounds");
  std::memcpy(dst.host + dst_offset, src, bytes);
  return TransferCycles(spec_, bytes);
}

std::uint64_t Device::CopyFromDevice(void* dst, const DeviceBuffer& src,
                                     std::uint64_t bytes,
                                     std::uint64_t src_offset) {
  DGC_CHECK_MSG(src_offset + bytes <= src.bytes, "D2H copy out of bounds");
  std::memcpy(dst, src.host + src_offset, bytes);
  return TransferCycles(spec_, bytes);
}

StatusOr<LaunchResult> Device::Launch(const LaunchConfig& config,
                                      const KernelFn& kernel) {
  if (!kernel) {
    return Status(ErrorCode::kInvalidArgument, "null kernel");
  }
  if (config.grid.Count() == 0 || config.block.Count() == 0) {
    return Status(ErrorCode::kInvalidArgument, "empty grid or block");
  }
  if (config.block.Count() > std::uint64_t(spec_.max_threads_per_block)) {
    return Status(
        ErrorCode::kInvalidArgument,
        StrFormat("block of %llu threads exceeds the device limit of %d",
                  (unsigned long long)config.block.Count(),
                  spec_.max_threads_per_block));
  }
  if (config.shared_bytes > spec_.shared_memory_per_block) {
    return Status(ErrorCode::kInvalidArgument,
                  "shared memory request exceeds the per-block limit");
  }
  const int warps = spec_.WarpsPerBlock(int(config.block.Count()));
  if (warps > spec_.max_warps_per_sm) {
    return Status(ErrorCode::kInvalidArgument,
                  "block needs more warp contexts than an SM has");
  }

  memsys_.Reset();  // cold caches per launch; deterministic across launches
  if (config.memcheck != nullptr) config.memcheck->OnLaunchBegin();
  LaunchContext lc(spec_, memsys_, config, kernel);
  DGC_RETURN_IF_ERROR(lc.Run());
  if (config.memcheck != nullptr) config.memcheck->OnLaunchEnd(lc.stats);

  LaunchResult result;
  result.outcome = lc.outcome;
  result.stats = lc.stats;
  result.instance_stats = std::move(lc.instance_stats);
  result.cycles = lc.stats.elapsed_cycles + spec_.kernel_launch_overhead;
  result.failures = std::move(lc.failures);
  result.failure_count = lc.failure_count;
  if (config.memcheck != nullptr) result.memcheck = config.memcheck->report();

  lifetime_stats_.AccumulateSequential(lc.stats);
  ++launches_;
  return result;
}

}  // namespace dgc::sim
