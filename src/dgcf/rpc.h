// Host RPC framework.
//
// Direct GPU compilation delegates operations a GPU cannot perform (console
// output, file access, process exit) to a host thread through an RPC ring
// ([26]'s host RPC framework, made automatic in [27]). Each device-side
// call suspends the calling lane, pays the round-trip latency, and the host
// handler runs at service time — consecutive calls serialize, like a real
// single-consumer RPC ring.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"
#include "gpusim/task.h"
#include "support/status.h"

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

  // --- Device-side services (call from kernels with co_await) --------------

  /// printf: `text` is pre-formatted by the device stub (the real framework
  /// marshals the format string and arguments through the ring; the end
  /// effect and cost are the same). Returns the byte count, like printf.
  sim::DeviceTask<int> Print(sim::ThreadCtx& ctx, std::string text);

  /// Reads up to `bytes` from a host file at `offset` into device memory.
  /// Returns the byte count read, or -1 when the file does not exist.
  sim::DeviceTask<std::int64_t> ReadFile(sim::ThreadCtx& ctx,
                                         std::string path,
                                         sim::DevicePtr<std::byte> dst,
                                         std::uint64_t offset,
                                         std::uint64_t bytes);

  /// Size of a host file, or -1 when absent.
  sim::DeviceTask<std::int64_t> FileSize(sim::ThreadCtx& ctx,
                                         std::string path);

  /// Appends `bytes` of device memory to a host file (created on first
  /// write) — how a directly-compiled app emits its result files.
  sim::DeviceTask<std::int64_t> WriteFile(sim::ThreadCtx& ctx,
                                          std::string path,
                                          sim::DevicePtr<const std::byte> src,
                                          std::uint64_t bytes);

  // --- Host-side state -------------------------------------------------------

  /// The simulated host filesystem visible to device code.
  void AddFile(std::string path, std::vector<std::byte> contents);
  void AddTextFile(std::string path, std::string_view contents);
  /// Reads back a file written by device code; nullptr when absent.
  const std::vector<std::byte>* GetFile(const std::string& path) const;

  /// Everything device code printed, in service order.
  const std::string& stdout_text() const { return stdout_; }
  void ClearStdout() { stdout_.clear(); }

  std::uint64_t calls_serviced() const { return calls_; }
  /// Calls failed by the installed fault plan.
  std::uint64_t calls_failed() const { return failed_calls_; }

 private:
  std::uint64_t RoundTrip() const {
    return device_.spec().rpc_roundtrip_cycles;
  }

  /// True when the fault plan fails the call being serviced (counted).
  bool InjectFailure() {
    if (faults_ == nullptr || !faults_->NextRpcFails()) return false;
    ++failed_calls_;
    return true;
  }

  sim::Device& device_;
  sim::FaultPlan* faults_ = nullptr;
  std::string stdout_;
  std::map<std::string, std::vector<std::byte>> files_;
  std::uint64_t calls_ = 0;
  std::uint64_t failed_calls_ = 0;
};

}  // namespace dgc::dgcf
