// Device: the public façade of the GPU simulator.
//
// Owns the device memory, the memory-hierarchy model, and lifetime
// statistics; executes kernels through per-launch LaunchContexts. All host
// interactions that cost time (H2D/D2H copies, kernel launch overhead)
// return their cost in device cycles so callers can compose end-to-end
// timings explicitly.
#pragma once

#include <cstdint>
#include <memory>

#include "gpusim/device_spec.h"
#include "gpusim/kernel.h"
#include "gpusim/memcheck.h"
#include "gpusim/memory.h"
#include "gpusim/memsys.h"
#include "gpusim/stats.h"
#include "support/status.h"

namespace dgc::sim {

struct LaunchResult {
  /// Kernel duration in device cycles, including launch overhead.
  std::uint64_t cycles = 0;
  LaunchStats stats;
  /// `stats` split by instance (LaunchContext::instance_stats): index 0 is
  /// unattributed work, index i + 1 instance i. Every counter but
  /// elapsed_cycles, blocks_launched and memcheck_findings sums to `stats`.
  std::vector<LaunchStats> instance_stats;
  /// How the launch ended. kDeadlocked means the event queue drained with
  /// blocks still resident — the kernel retired abnormally but the process
  /// (and sweep siblings) carry on; loaders map it to per-instance
  /// TerminationReason::kDeadlock.
  LaunchOutcome outcome = LaunchOutcome::kCompleted;
  /// Messages from lanes that terminated with an exception (up to 16),
  /// `instance=I`-prefixed when the lane's team row was running one.
  std::vector<std::string> failures;
  std::uint64_t failure_count = 0;
  /// Snapshot of the sanitizer report after the launch's leak check;
  /// empty/clean when the launch ran without a memcheck.
  MemcheckReport memcheck;

  bool ok() const {
    return failure_count == 0 && outcome == LaunchOutcome::kCompleted;
  }
};

class Device {
 public:
  explicit Device(DeviceSpec spec);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const { return spec_; }
  DeviceMemory& memory() { return memory_; }

  /// Allocates device global memory.
  StatusOr<DeviceBuffer> Malloc(std::uint64_t bytes) {
    return memory_.Allocate(bytes);
  }
  Status Free(DeviceAddr addr) { return memory_.Free(addr); }

  /// Host→device copy; returns the transfer cost in device cycles.
  std::uint64_t CopyToDevice(const DeviceBuffer& dst, const void* src,
                             std::uint64_t bytes,
                             std::uint64_t dst_offset = 0);
  /// Device→host copy; returns the transfer cost in device cycles.
  std::uint64_t CopyFromDevice(void* dst, const DeviceBuffer& src,
                               std::uint64_t bytes,
                               std::uint64_t src_offset = 0);

  /// Runs a kernel to completion. Validates the configuration against the
  /// device limits. Lane failures are reported in the result, not as a
  /// Status (a kernel with a crashed thread still retires).
  StatusOr<LaunchResult> Launch(const LaunchConfig& config,
                                const KernelFn& kernel);

  /// Statistics accumulated over every launch on this device.
  const LaunchStats& lifetime_stats() const { return lifetime_stats_; }
  std::uint64_t launches() const { return launches_; }

 private:
  DeviceSpec spec_;
  DeviceMemory memory_;
  MemorySystem memsys_;
  LaunchStats lifetime_stats_;
  std::uint64_t launches_ = 0;
};

/// Convenience: PCIe transfer cost in device cycles for `bytes`.
std::uint64_t TransferCycles(const DeviceSpec& spec, std::uint64_t bytes);

}  // namespace dgc::sim
