// "testapp": a miniature legacy CPU application shared by the framework
// tests (registry lookups) and the single-instance loader tests. Linked into
// each test binary that runs it; registration is static.
#include <cstdlib>

#include "dgcf/app.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ompx/team.h"
#include "support/str.h"

namespace dgc::dgcf {
namespace {

using ompx::TeamCtx;
using sim::DeviceTask;
using sim::ThreadCtx;

// Parses -n <count> and -x <value>, device-mallocs a vector, fills it in
// parallel, reduces, prints the total, and returns 0 (or a usage / OOM
// error).
DeviceTask<int> TestAppMain(AppEnv& env, TeamCtx& team, int argc,
                            DeviceArgv argv) {
  std::uint64_t n = 0;
  double x = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (DeviceLibc::StrCmp(argv[i], "-n") == 0 && i + 1 < argc) {
      n = std::uint64_t(std::strtoll(DeviceLibc::ToString(argv[++i]).c_str(),
                                     nullptr, 10));
    } else if (DeviceLibc::StrCmp(argv[i], "-x") == 0 && i + 1 < argc) {
      x = std::strtod(DeviceLibc::ToString(argv[++i]).c_str(), nullptr);
    } else {
      co_return kExitUsage;
    }
  }
  if (n == 0) co_return kExitUsage;

  sim::DeviceBuffer buf =
      co_await env.libc->Malloc(*team.hw, n * sizeof(double));
  if (buf.host == nullptr) co_return kExitNoMem;
  auto p = buf.Typed<double>();

  co_await ompx::ParallelFor(
      team, n, [&](ThreadCtx& ctx, std::uint64_t i) -> DeviceTask<void> {
        co_await ctx.Store(p + i, x);
      });

  double sum = 0;
  co_await ompx::Parallel(
      team, [&](ThreadCtx&, std::uint32_t rank,
                std::uint32_t size) -> DeviceTask<void> {
        double local = 0;
        for (std::uint64_t i = rank; i < n; i += size) {
          local += co_await team.hw->Load(p + i);
        }
        const double total = co_await ompx::TeamReduceSum(team, local);
        if (rank == 0) sum = total;
      });

  co_await env.rpc->Print(*team.hw, StrFormat("sum=%.1f\n", sum));
  co_await env.libc->Free(*team.hw, buf.addr);
  co_return kExitOk;
}

DGC_REGISTER_APP(testapp, "fill-and-reduce smoke app", TestAppMain)

}  // namespace
}  // namespace dgc::dgcf
