// Kernel launch configuration and the kernel function type.
#pragma once

#include <cstdint>
#include <functional>

#include "gpusim/address.h"
#include "gpusim/faults.h"
#include "gpusim/task.h"

namespace dgc::sim {

class Memcheck;
class Profiler;
class Trace;
struct ThreadCtx;

/// Maps a failing lane to the application instance currently running on it
/// (>= 0), or -1 when unattributable. Installed by the ensemble loader so
/// failure messages carry an `instance=I` prefix.
using InstanceOfFn =
    std::function<std::int32_t(std::uint32_t block_id, std::uint32_t thread_id)>;

/// A kernel is a coroutine entry point invoked once per lane. The same
/// callable serves every lane; identity comes from the ThreadCtx.
using KernelFn = std::function<DeviceTask<void>(ThreadCtx&)>;

struct LaunchConfig {
  Dim3 grid{1, 1, 1};   ///< thread blocks (teams)
  Dim3 block{32, 1, 1}; ///< threads per block; .y carries multi-dim mapping
  std::uint32_t shared_bytes = 0;  ///< per-block shared-memory reservation
  /// Label for diagnostics and stats reports.
  const char* name = "kernel";
  /// Optional instruction trace sink (see gpusim/trace.h); null = off.
  Trace* trace = nullptr;
  /// Optional shadow-memory sanitizer (see gpusim/memcheck.h); null = off.
  /// Must already be Attach()ed to the device's memory.
  Memcheck* memcheck = nullptr;
  /// Optional deterministic fault-injection plan (see gpusim/faults.h);
  /// null = off. Non-owning; consumption counters advance during the run.
  FaultPlan* faults = nullptr;
  /// Launch watchdog: lanes still running at this cycle trap with
  /// TrapKind::kWatchdog, so infinite loops terminate deterministically.
  /// 0 = disabled (the raw simulator default; loaders derive a budget from
  /// the device spec).
  std::uint64_t watchdog_cycles = 0;
  /// Optional instance attribution for failure messages (see InstanceOfFn).
  InstanceOfFn instance_of = nullptr;
  /// Optional launch profiler (see gpusim/profiler.h); null = off. When
  /// set, counters are attributed per instance through `instance_of` and a
  /// utilization timeline is sampled. Non-owning; one profiler may observe
  /// several sequential launches (retry waves).
  Profiler* profiler = nullptr;
};

}  // namespace dgc::sim
