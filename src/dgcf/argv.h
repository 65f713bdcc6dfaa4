// Device-side argv construction — the paper's StringCache (Fig. 4).
//
// For each instance the loader builds `argv[0..argc)` as pointers into one
// device allocation holding all argument strings back to back, then maps it
// to the device. The same block serves the single-instance loader (one row)
// and the ensemble loader (one row per instance).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dgcf/app.h"
#include "gpusim/device.h"
#include "support/status.h"

namespace dgc::dgcf {

class ArgvBlock {
 public:
  /// Builds the block: `per_instance_args[i]` is instance i's full argv
  /// (argv[0] included). Charges one H2D transfer for the string cache.
  static StatusOr<ArgvBlock> Build(
      sim::Device& device,
      const std::vector<std::vector<std::string>>& per_instance_args);

  ArgvBlock(ArgvBlock&& o) noexcept;
  ~ArgvBlock();

  std::uint32_t instances() const { return std::uint32_t(argc_.size()); }
  int argc(std::uint32_t instance) const { return argc_[instance]; }
  DeviceArgv argv(std::uint32_t instance) const {
    return argv_[instance].data();
  }

  /// H2D cycles paid to map the strings.
  std::uint64_t transfer_cycles() const { return transfer_cycles_; }

 private:
  ArgvBlock() = default;

  sim::Device* device_ = nullptr;
  sim::DeviceBuffer cache_;  ///< the StringCache device allocation
  std::vector<int> argc_;
  std::vector<std::vector<sim::DevicePtr<char>>> argv_;
  std::uint64_t transfer_cycles_ = 0;
};

}  // namespace dgc::dgcf
