// Streaming multiprocessor: occupancy accounting and compute issue pipes.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/device_spec.h"
#include "gpusim/stats.h"

namespace dgc::sim {

class SM {
 public:
  SM(int id, const DeviceSpec& spec)
      : id_(id), spec_(spec), pipe_free_(std::size_t(spec.issue_pipes_per_sm), 0) {}

  int id() const { return id_; }

  /// True if a block of `warps` warps using `shared_bytes` of shared memory
  /// fits next to the currently resident blocks.
  bool CanHost(int warps, std::uint32_t shared_bytes) const {
    return resident_blocks_ < spec_.max_blocks_per_sm &&
           resident_warps_ + warps <= spec_.max_warps_per_sm &&
           shared_in_use_ + shared_bytes <=
               std::uint64_t(spec_.shared_memory_per_block) *
                   std::uint64_t(spec_.max_blocks_per_sm);
  }

  void AddBlock(int warps, std::uint32_t shared_bytes) {
    ++resident_blocks_;
    resident_warps_ += warps;
    shared_in_use_ += shared_bytes;
  }

  void RemoveBlock(int warps, std::uint32_t shared_bytes) {
    --resident_blocks_;
    resident_warps_ -= warps;
    shared_in_use_ -= shared_bytes;
  }

  /// Occupies one issue pipe for `cycles` starting no earlier than `t`;
  /// returns the completion time. Pipes are a shared, contended resource:
  /// co-resident warps (and blocks) queue on them.
  std::uint64_t IssueCompute(std::uint64_t t, std::uint64_t cycles,
                             LaunchStats& stats) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pipe_free_.size(); ++i) {
      if (pipe_free_[i] < pipe_free_[best]) best = i;
    }
    const std::uint64_t start = std::max(t, pipe_free_[best]);
    pipe_free_[best] = start + cycles;
    stats.compute_cycles_issued += cycles;
    return pipe_free_[best];
  }

  int resident_warps() const { return resident_warps_; }
  int resident_blocks() const { return resident_blocks_; }

 private:
  int id_;
  const DeviceSpec& spec_;
  int resident_blocks_ = 0;
  int resident_warps_ = 0;
  std::uint64_t shared_in_use_ = 0;
  std::vector<std::uint64_t> pipe_free_;
};

}  // namespace dgc::sim
