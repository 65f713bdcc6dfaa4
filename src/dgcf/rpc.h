// Host RPC framework.
//
// Direct GPU compilation delegates operations a GPU cannot perform to a
// host thread through an RPC ring ([26]'s host RPC framework, made
// automatic in [27]); like [26]'s partial libc, the ring carries only the
// services the compiled programs call — here console output. Each
// device-side call suspends the calling lane, pays the round-trip latency,
// and the host handler runs at service time — consecutive calls serialize,
// like a real single-consumer RPC ring.
#pragma once

#include <string>

#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"
#include "gpusim/task.h"

namespace dgc::dgcf {

class RpcHost {
 public:
  explicit RpcHost(sim::Device& device) : device_(device) {}

  RpcHost(const RpcHost&) = delete;
  RpcHost& operator=(const RpcHost&) = delete;

  /// Installs a deterministic fault plan: each service call first consults
  /// plan->NextRpcFails(); a failed call still pays the full round-trip
  /// latency but the handler performs no work and the device sees -1 (the
  /// errno-style failure return of every service). nullptr turns it off.
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }
  sim::FaultPlan* fault_plan() const { return faults_; }

  /// printf: `text` is pre-formatted by the device stub (the real framework
  /// marshals the format string and arguments through the ring; the end
  /// effect and cost are the same). Returns the byte count, like printf.
  /// Call from kernels with co_await.
  sim::DeviceTask<int> Print(sim::ThreadCtx& ctx, std::string text);

  /// Everything device code printed, in service order.
  const std::string& stdout_text() const { return stdout_; }
  void ClearStdout() { stdout_.clear(); }

 private:
  sim::Device& device_;
  sim::FaultPlan* faults_ = nullptr;
  std::string stdout_;
};

}  // namespace dgc::dgcf
