#include "gpusim/launch_context.h"

#include "gpusim/block.h"
#include "gpusim/profiler.h"
#include "support/str.h"

namespace dgc::sim {

namespace {
constexpr std::uint64_t kMaxRecordedFailures = 16;
}

LaunchContext::LaunchContext(const DeviceSpec& spec_in, MemorySystem& memsys_in,
                             const LaunchConfig& config_in,
                             const KernelFn& kernel_in)
    : spec(spec_in), memsys(memsys_in), config(config_in), kernel(kernel_in) {
  sms_.reserve(std::size_t(spec.num_sms));
  for (int i = 0; i < spec.num_sms; ++i) sms_.emplace_back(i, spec);
  total_blocks_ = config.grid.Count();
  warps_per_block_ =
      spec.WarpsPerBlock(int(config.block.Count()));
}

LaunchContext::~LaunchContext() = default;

Status LaunchContext::Run() {
  Profiler* profiler = config.profiler;
  if (profiler != nullptr) profiler->OnLaunchBegin(spec);
  TrySchedule(0);
  DrainEvents();
  if (done_blocks_ != total_blocks_) {
    outcome = LaunchOutcome::kDeadlocked;
    ++failure_count;
    if (failures.size() < kMaxRecordedFailures) {
      failures.push_back(
          StrFormat("kernel '%s' deadlocked: %llu of %llu blocks retired "
                    "(a lane is blocked on a barrier that can never release)",
                    config.name, (unsigned long long)done_blocks_,
                    (unsigned long long)total_blocks_));
    }
  }
  if (profiler != nullptr) {
    profiler->OnLaunchEnd(engine.now(), ActiveWarps(), ResidentBlocks(),
                          instance_buckets_);
    // Fold the buckets back so the launch-global totals are identical to a
    // non-profiled run (buckets carry elapsed_cycles = 0, set below).
    for (const LaunchStats& bucket : instance_buckets_) {
      stats.AccumulateSequential(bucket);
    }
  }
  stats.elapsed_cycles = engine.now();
  stats.blocks_launched = next_block_;
  return Status::Ok();
}

void LaunchContext::DrainEvents() {
  Profiler* profiler = config.profiler;
  while (true) {
    const std::uint64_t t_next = engine.next_event_time();
    if (t_next == Engine::kNoEvent) break;
    // Sample boundaries are crossed between events, never inside one, so
    // profiling cannot perturb event order (determinism).
    if (profiler != nullptr && profiler->NeedsSampleBefore(t_next)) {
      profiler->AdvanceTo(t_next, ActiveWarps(), ResidentBlocks(),
                          instance_buckets_);
    }
    engine.RunOne();
  }
}

LaunchStats& LaunchContext::IssueStats(std::uint32_t block,
                                       std::uint32_t thread) {
  if (config.profiler == nullptr) return stats;
  std::int32_t instance = -1;
  if (config.instance_of) instance = config.instance_of(block, thread);
  const std::size_t index = std::size_t(instance + 1);
  if (instance_buckets_.size() <= index) instance_buckets_.resize(index + 1);
  return instance_buckets_[index];
}

std::uint32_t LaunchContext::ActiveWarps() const {
  std::uint32_t total = 0;
  for (const SM& sm : sms_) total += std::uint32_t(sm.resident_warps());
  return total;
}

std::uint32_t LaunchContext::ResidentBlocks() const {
  std::uint32_t total = 0;
  for (const SM& sm : sms_) total += std::uint32_t(sm.resident_blocks());
  return total;
}

void LaunchContext::OnBlockFinished(Block* block, std::uint64_t now) {
  block->sm()->RemoveBlock(warps_per_block_, config.shared_bytes);
  ++done_blocks_;
  TrySchedule(now);
}

void LaunchContext::RecordFailure(std::uint32_t block, std::uint32_t thread,
                                  TrapKind kind, const std::string& what) {
  ++failure_count;
  if (kind == TrapKind::kWatchdog) {
    ++IssueStats(block, thread).watchdog_traps;
  } else if (kind != TrapKind::kNone) {
    ++IssueStats(block, thread).lane_traps;
  }
  if (failures.size() >= kMaxRecordedFailures) return;
  std::string prefix;
  if (config.instance_of) {
    const std::int32_t instance = config.instance_of(block, thread);
    if (instance >= 0) prefix = StrFormat("instance=%d ", instance);
  }
  failures.push_back(StrFormat("%sblock %u thread %u: %s", prefix.c_str(),
                               block, thread, what.c_str()));
}

void LaunchContext::TrySchedule(std::uint64_t now) {
  while (next_block_ < total_blocks_) {
    // Least-loaded SM that can host the block (lowest id breaks ties).
    SM* best = nullptr;
    for (SM& sm : sms_) {
      if (!sm.CanHost(warps_per_block_, config.shared_bytes)) continue;
      if (best == nullptr || sm.resident_warps() < best->resident_warps()) {
        best = &sm;
      }
    }
    if (best == nullptr) return;
    best->AddBlock(warps_per_block_, config.shared_bytes);
    auto block = std::make_unique<Block>(this, std::uint32_t(next_block_), best);
    block->Start(now);
    blocks_.push_back(std::move(block));
    ++next_block_;
  }
}

}  // namespace dgc::sim
