#include "dgcf/rpc.h"

// RPC handler lambdas are held in named coroutine locals and passed to
// HostCall by pointer — see the HostCall contract in gpusim/ctx.h. They may
// capture the coroutine's parameters by reference: the frame stays alive
// while the lane is suspended on the call.

namespace dgc::dgcf {

sim::DeviceTask<int> RpcHost::Print(sim::ThreadCtx& ctx, std::string text) {
  std::function<std::uint64_t()> handler = [this, &text]() -> std::uint64_t {
    if (faults_ != nullptr && faults_->NextRpcFails()) {
      return std::uint64_t(-1);
    }
    stdout_ += text;
    return text.size();
  };
  const std::uint64_t n = co_await ctx.HostCall(
      &handler, device_.spec().rpc_roundtrip_cycles);
  co_return int(n);
}

}  // namespace dgc::dgcf
