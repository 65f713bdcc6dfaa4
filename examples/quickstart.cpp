// Quickstart: compile an application "for the device", run it once through
// the classic single-instance loader, then run four instances at once with
// the ensemble loader — the end-to-end flow of the paper's Fig. 5.
//
//   $ ./quickstart
#include <cstdio>

#include "dgcf/app.h"
#include "dgcf/libc.h"
#include "dgcf/loader.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "ompx/team.h"
#include "support/str.h"

using namespace dgc;

// ---------------------------------------------------------------------------
// The "legacy CPU application": estimates pi by integrating 4/(1+x^2) with
// the midpoint rule over -n intervals. main() is written like a host
// program: parse argv, allocate, compute (with an OpenMP-style parallel
// loop), print, return an exit code.
// ---------------------------------------------------------------------------
sim::DeviceTask<int> PiMain(dgcf::AppEnv& env, ompx::TeamCtx& team, int argc,
                            dgcf::DeviceArgv argv) {
  std::uint64_t intervals = 1 << 14;
  for (int i = 1; i < argc; ++i) {
    if (dgcf::DeviceLibc::StrCmp(argv[i], "-n") == 0 && i + 1 < argc) {
      intervals = std::uint64_t(std::strtoll(
          dgcf::DeviceLibc::ToString(argv[++i]).c_str(), nullptr, 10));
    } else {
      co_return dgcf::kExitUsage;
    }
  }

  double pi = 0.0;
  co_await ompx::Parallel(
      team, [&](sim::ThreadCtx& ctx, std::uint32_t rank,
                std::uint32_t size) -> sim::DeviceTask<void> {
        const double h = 1.0 / double(intervals);
        double local = 0.0;
        for (std::uint64_t k = rank; k < intervals; k += size) {
          const double x = (double(k) + 0.5) * h;
          local += 4.0 / (1.0 + x * x);
          if ((k / size) % 64 == 63) co_await ctx.Work(256);  // 64 iters of FLOPs
        }
        const double total = co_await ompx::TeamReduceSum(team, local * h);
        if (rank == 0) pi = total;
      });

  co_await env.rpc->Print(
      *team.hw, StrFormat("pi(%llu intervals) = %.10f\n",
                          (unsigned long long)intervals, pi));
  co_return dgcf::kExitOk;
}

int main() {
  // "Compile for the device": register the canonicalized __user_main.
  dgcf::AppRegistry::Instance().Register(
      {"pi", "midpoint-rule pi estimator", PiMain});

  sim::Device device(sim::DeviceSpec::A100_40GB());
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};
  std::printf("device: %s\n\n", device.spec().name.c_str());

  // --- 1. The original direct-GPU-compilation flow: one instance ----------
  dgcf::SingleRunOptions single{.app = "pi", .args = {"-n", "16384"},
                                .thread_limit = 128};
  auto run1 = dgcf::RunSingleInstance(env, single);
  DGC_CHECK(run1.ok());
  std::printf("single instance: exit=%d, %llu device cycles\n",
              run1->instances[0].exit_code,
              (unsigned long long)run1->total_cycles());

  // --- 2. The ensemble loader: four instances in ONE kernel ---------------
  ensemble::EnsembleOptions opt;
  opt.app = "pi";
  for (int i = 0; i < 4; ++i) {
    opt.instance_args.push_back({"-n", StrFormat("%d", 4096 << i)});
  }
  opt.thread_limit = 128;
  auto run4 = ensemble::RunEnsemble(env, opt);
  DGC_CHECK(run4.ok());
  std::printf("ensemble of 4:   all ok=%d, %llu device cycles (one launch)\n",
              int(run4->all_ok()), (unsigned long long)run4->total_cycles());

  std::printf("\ndevice stdout:\n%s", rpc.stdout_text().c_str());

  const double speedup = double(run1->kernel_cycles) * 4.0 /
                         double(run4->kernel_cycles);
  std::printf("\nnaive speedup vs 4 serial runs of the largest size: ~%.1fx\n",
              speedup);
  return run1->all_ok() && run4->all_ok() ? 0 : 1;
}
