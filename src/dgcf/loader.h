// What a loader run reports: how each instance ended, its cycles and
// memory, and the launch-wide counters. The one loader that produces it is
// ensemble/loader.h (the single-instance T1 baseline included).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dgcf/app.h"
#include "gpusim/faults.h"
#include "gpusim/memcheck.h"
#include "gpusim/stats.h"
#include "support/status.h"

namespace dgc::dgcf {

/// How one application instance ended. kReturned is the only *completed*
/// execution — `__user_main` came back with an exit code (possibly
/// nonzero). Everything else is an abnormal termination the loader
/// contained to this instance; such instances are candidates for
/// retry-relaunch, a nonzero kReturned exit is not (the program ran).
enum class TerminationReason : std::uint8_t {
  kReturned = 0,   ///< __user_main returned; see exit_code
  kNotStarted,     ///< never reached the device (e.g. team lost earlier)
  kException,      ///< uncaught C++ exception in app code
  kTrapOOM,        ///< unchecked allocation failure (heap or shared memory)
  kTrapAbort,      ///< abort() / failed assert() in app code
  kTrapInjected,   ///< FaultPlan trap site
  kDeadlock,       ///< launch deadlocked while this instance was running
  kWatchdog,       ///< cycle budget exhausted (launch- or instance-level)
};

std::string_view ToString(TerminationReason reason);

/// Maps a contained DeviceTrap to the instance-level reason.
TerminationReason ReasonForTrap(sim::TrapKind kind);

/// Outcome of one application instance.
struct InstanceResult {
  int exit_code = 0;
  /// False when the instance did not return from __user_main (trap,
  /// exception, watchdog, deadlock, or never started).
  bool completed = false;
  TerminationReason reason = TerminationReason::kNotStarted;
  /// Human-readable detail for abnormal terminations (the trap message).
  std::string detail;
  /// Device cycles this instance spent executing (across retry waves).
  std::uint64_t cycles = 0;
  /// Launch waves that ran (or started) this instance; > 1 after a retry.
  std::uint32_t attempts = 0;
  /// Device-memory peak and allocation count attributed to this instance
  /// (from DeviceMemory's per-owner accounting; shared-segment bytes are
  /// charged to the materializing instance only).
  std::uint64_t mem_peak_bytes = 0;
  std::uint64_t mem_allocations = 0;
};

/// Outcome of a loader run (single instance or ensemble).
struct RunResult {
  std::vector<InstanceResult> instances;
  std::uint64_t kernel_cycles = 0;    ///< device execution incl. launch
  std::uint64_t transfer_cycles = 0;  ///< argv mapping + result map(from:)
  /// Launch waves executed: 1 normally, more when retry-relaunch ran.
  std::uint32_t waves = 0;
  sim::LaunchStats stats;
  /// Lane-failure and containment messages, `instance=I`-prefixed when the
  /// owning instance is known.
  std::vector<std::string> failures;
  /// Sanitizer findings when the run was launched with a memcheck attached
  /// (clean/empty otherwise).
  sim::MemcheckReport memcheck;
  /// Per-instance counter attribution when the run was profiled (empty
  /// otherwise): entry 0 is the unattributed slot (instance -1), then one
  /// entry per instance in id order. See gpusim/profiler.h.
  std::vector<sim::InstanceStats> instance_stats;
  /// Device-memory counters at the end of the run (peak is the high-water
  /// mark over the whole run).
  sim::DeviceMemSnapshot device_mem;

  std::uint64_t total_cycles() const { return kernel_cycles + transfer_cycles; }
  /// True when every instance completed with exit code 0. An empty
  /// `instances` vector yields false by definition: "no instance ran" is
  /// not a successful run, so a caller that gates on all_ok() can never
  /// mistake a run that launched nothing for a clean one.
  bool all_ok() const {
    for (const InstanceResult& r : instances) {
      if (!r.completed || r.exit_code != 0) return false;
    }
    return !instances.empty();
  }
};

}  // namespace dgc::dgcf
