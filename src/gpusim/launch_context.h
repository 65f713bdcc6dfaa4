// LaunchContext: the per-launch orchestrator.
//
// Owns the event engine, the blocks, and the SM occupancy bookkeeping for
// one kernel launch: blocks are dispatched to SMs as slots free up (the
// GPU's global block scheduler), and the launch completes when every block
// has retired.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/engine.h"
#include "gpusim/kernel.h"
#include "gpusim/memsys.h"
#include "gpusim/sm.h"
#include "gpusim/stats.h"

namespace dgc::sim {

class Block;
class Lane;

struct LaunchContext {
  LaunchContext(const DeviceSpec& spec, MemorySystem& memsys,
                const LaunchConfig& config, const KernelFn& kernel);
  ~LaunchContext();

  LaunchContext(const LaunchContext&) = delete;
  LaunchContext& operator=(const LaunchContext&) = delete;

  /// Dispatches initial blocks and drains the event queue. A deadlock
  /// (lanes blocked forever — e.g. a barrier nobody releases) is recorded
  /// as outcome = kDeadlocked plus a failure entry, not an error Status:
  /// a deadlocked point in a sweep fails that point, not the process, and
  /// loaders attribute it to the instances that were still running.
  Status Run();

  void OnBlockFinished(Block* block, std::uint64_t now);
  /// Records one lane failure, prefixed `instance=I` when the lane's team
  /// row is running an instance. `kind` classifies traps for the stats
  /// counters (kNone for ordinary exceptions).
  void RecordFailure(std::uint32_t block, std::uint32_t thread, TrapKind kind,
                     const std::string& what);

  /// The instance lane (`block`, `thread`) is running: config.row_instances
  /// at row block * block.y + thread / block.x, or -1 when the row has
  /// none. The launch's only instance lookup.
  std::int32_t InstanceOf(std::uint32_t block, std::uint32_t thread) const {
    const std::uint64_t row =
        std::uint64_t(block) * config.block.y + thread / config.block.x;
    return row < config.row_instances.size() ? config.row_instances[row] : -1;
  }

  /// Stats sink for counter bumps issued on behalf of lane (`block`,
  /// `thread`): the bucket of the instance it is running. Run folds the
  /// buckets into `stats` when the launch ends.
  LaunchStats& IssueStats(std::uint32_t block, std::uint32_t thread);

  /// Resident warps summed over all SMs (timeline sampling).
  std::uint32_t ActiveWarps() const;
  /// Occupied block slots summed over all SMs (timeline sampling).
  std::uint32_t ResidentBlocks() const;

  const DeviceSpec& spec;
  MemorySystem& memsys;
  const LaunchConfig& config;
  const KernelFn& kernel;

  Engine engine;
  /// Launch totals; valid once Run returns.
  LaunchStats stats;
  /// Per-instance counter buckets: index 0 collects unattributed (-1)
  /// work, index i + 1 instance i. Grown on first use; Run folds them into
  /// `stats`, which alone holds elapsed_cycles and blocks_launched.
  std::vector<LaunchStats> instance_stats;
  LaunchOutcome outcome = LaunchOutcome::kCompleted;
  std::vector<std::string> failures;
  std::uint64_t failure_count = 0;

 private:
  void TrySchedule(std::uint64_t now);
  /// The event loop: dispatches every queued warp turn in (cycle,
  /// insertion-seq) order on the calling thread.
  void DrainEvents();

  std::vector<SM> sms_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::uint64_t total_blocks_ = 0;
  std::uint64_t next_block_ = 0;
  std::uint64_t done_blocks_ = 0;
  int warps_per_block_ = 0;
};

/// The instance `lane` is running (LaunchContext::InstanceOf of its
/// launch), or -1 for a null lane or one outside a launch.
std::int32_t InstanceOfLane(const Lane* lane);

}  // namespace dgc::sim
