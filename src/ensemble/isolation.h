// Global-variable isolation (paper §3.3).
//
// Running many instances inside one kernel breaks the natural isolation a
// process gives to global variables: a mutable global shared by all teams
// is a data race. The paper proposes relocating globals to team-local
// storage; this module implements that transformation's runtime side:
// an app declares its globals once, and the ensemble loader materializes
// one replica per instance, so `Slot(instance)` is each team's private
// copy. `kShared` mode keeps the single-copy (unsound) layout so tests and
// the ablation bench can demonstrate the interference the paper warns of.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "support/status.h"

namespace dgc::ensemble {

enum class GlobalsMode {
  kShared,    ///< one copy for all instances (legacy layout, races)
  kIsolated,  ///< one replica per instance (the §3.3 proposal)
};

class IsolatedGlobals {
 public:
  /// Declares a global: `name`, its size, and its initial image (may be
  /// null → zero-initialized). Call before Materialize.
  Status Declare(std::string name, std::uint64_t bytes,
                 const void* init = nullptr);

  /// Allocates the replicas on the device: one segment per instance in
  /// kIsolated mode, a single shared segment in kShared mode. Each replica
  /// is a *separate device allocation*, mirroring how per-instance heaps
  /// are laid out (non-contiguous, as §4.3 observes).
  ///
  /// With a memcheck attached, each replica is tagged for the §3.3
  /// cross-instance checker: isolated replicas are owned by their instance
  /// (writes from any other instance are findings), the shared segment is
  /// tagged kSharedOwner (a race is reported once two distinct instances
  /// write it).
  Status Materialize(sim::Device& device, std::uint32_t instances,
                     GlobalsMode mode, sim::Memcheck* memcheck = nullptr);

  /// Device pointer to `name`'s replica for `instance`.
  template <typename T>
  StatusOr<sim::DevicePtr<T>> Slot(std::uint32_t instance,
                                   const std::string& name) const {
    DGC_ASSIGN_OR_RETURN(sim::DeviceBuffer seg, Segment(instance));
    auto it = offsets_.find(name);
    if (it == offsets_.end()) {
      return Status(ErrorCode::kNotFound, "no global named '" + name + "'");
    }
    return sim::DevicePtr<T>{
        seg.addr + it->second,
        reinterpret_cast<T*>(seg.host + it->second)};
  }

  /// Releases the device segments.
  void Release(sim::Device& device);

  std::uint32_t replicas() const { return std::uint32_t(segments_.size()); }
  GlobalsMode mode() const { return mode_; }

 private:
  StatusOr<sim::DeviceBuffer> Segment(std::uint32_t instance) const;

  struct Declaration {
    std::uint64_t bytes;
    std::vector<std::byte> init;
  };

  std::vector<std::pair<std::string, Declaration>> decls_;  // declaration order
  std::map<std::string, std::uint64_t> offsets_;
  std::uint64_t total_bytes_ = 0;
  std::vector<sim::DeviceBuffer> segments_;
  GlobalsMode mode_ = GlobalsMode::kIsolated;
  bool materialized_ = false;
};

}  // namespace dgc::ensemble
