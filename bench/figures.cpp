// The paper's evaluation as one table-driven harness: Fig. 6 (§4.2–4.3),
// the ablations behind its explanations, and two extensions.
//
//   figures <name> [--jobs N]
//
// Each figure prints its table on stdout and checks its qualitative claim:
// a violated claim exits 1 with "CHECK FAILED" on stderr. Sweep figures run
// their points `--jobs` at a time (default one per hardware thread) and
// print the same bytes for any value. ctest compares every figure's stdout
// with bench/testdata/<name>.txt.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/xsbench.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/isolation.h"
#include "ensemble/loader.h"
#include "fig6_common.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"
#include "ompx/league.h"
#include "support/argparse.h"
#include "support/thread_pool.h"
#include "support/units.h"

namespace dgc::bench {
namespace {

using ensemble::ExperimentConfig;
using ensemble::SpeedupPoint;
using ensemble::SpeedupSeries;

/// Exits 1 when a figure's qualitative claim fails, so every figure
/// doubles as a regression gate.
void Require(bool holds, const std::string& claim) {
  if (holds) return;
  std::fprintf(stderr, "CHECK FAILED: %s\n", claim.c_str());
  std::exit(1);
}

/// Runs the sweeps as one pool of independent point-jobs, with per-point
/// progress on stderr so long sweeps are observable. The series come back
/// in `configs` order.
std::vector<SpeedupSeries> Sweep(const std::vector<ExperimentConfig>& configs,
                                 std::uint32_t jobs) {
  ensemble::SweepOptions options;
  options.jobs = jobs;
  options.progress = [](const ensemble::SweepPointEvent& e) {
    if (e.kind == ensemble::SweepPointEvent::Kind::kStarted) {
      std::fprintf(stderr, "[sweep] %s tl=%u n=%u started (%zu/%zu started)\n",
                   e.app.c_str(), e.thread_limit, e.instances,
                   e.points_started, e.points_total);
    } else {
      std::fprintf(stderr,
                   "[sweep] %s tl=%u n=%u %s in %.2fs (%zu/%zu finished)\n",
                   e.app.c_str(), e.thread_limit, e.instances,
                   e.ran ? "finished" : "skipped", e.wall_seconds,
                   e.points_finished, e.points_total);
    }
  };
  auto all = ensemble::RunSweeps(configs, options);
  Require(all.ok(), "sweep ran: " + all.status().ToString());
  return std::move(*all);
}

// --- Fig. 6: relative speedup T1*N/TN ------------------------------------

/// Runs one panel of Fig. 6 and asserts §4.3's qualitative claims on it.
std::vector<SpeedupSeries> RunPanel(std::uint32_t thread_limit,
                                    std::uint32_t jobs) {
  std::vector<ExperimentConfig> configs;
  for (const Fig6Workload& w : Fig6Workloads()) {
    configs.push_back(Fig6Config(w, thread_limit));
  }
  std::vector<SpeedupSeries> series = Sweep(configs, jobs);
  const std::string panel = StrFormat("tl=%u: ", thread_limit);
  for (const SpeedupSeries& s : series) {
    double prev = 0;
    for (const SpeedupPoint& p : s.points) {
      // Page-Rank hits the device memory limit past 4 instances.
      Require(s.app != "pagerank" || p.ran == (p.instances <= 4),
              panel + (p.ran ? "pagerank exceeded the memory cap"
                             : "pagerank OOM below 4 instances"));
      if (!p.ran) continue;
      Require(p.speedup <= double(p.instances) * 1.005,
              panel + s.app + " is super-linear");
      Require(p.speedup + 0.35 >= prev, panel + s.app + " speedup regressed");
      prev = std::max(prev, p.speedup);
    }
  }
  return series;
}

/// Prints the panel and writes its CSV to the working directory.
void PrintPanel(const std::vector<SpeedupSeries>& series,
                std::uint32_t thread_limit) {
  const char* panel = thread_limit == 32 ? "a" : "b";
  std::printf("Figure 6%s — relative speedup T1*N/TN, thread limit %u\n",
              panel, thread_limit);
  std::printf("device: %s\n\n", Fig6Spec().name.c_str());
  std::printf("%s", ensemble::FormatSpeedupTable(series).c_str());
  double best = 0;
  for (const SpeedupSeries& s : series) best = std::max(best, s.MaxSpeedup());
  std::printf("\nmax speedup at this thread limit: %.1fX (paper: up to 51X)\n",
              best);
  const std::string path = StrFormat("fig6%s.csv", panel);
  const Status written = ensemble::WriteSpeedupCsv(series, path);
  if (written.ok()) {
    std::printf("csv written: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "csv export failed: %s\n",
                 written.ToString().c_str());
  }
}

/// Fig. 6a: one warp per instance, the hardware scheduler's smallest unit.
void Fig6a(std::uint32_t jobs) {
  PrintPanel(RunPanel(32, jobs), 32);
  std::printf("\nqualitative checks: PASS\n");
}

/// Fig. 6b: the hardware maximum. §4.3: AMGmk, whose relax kernel
/// saturates device memory bandwidth, shows the most pronounced scaling
/// gap of the benchmarks that run every instance count.
void Fig6b(std::uint32_t jobs) {
  const std::vector<SpeedupSeries> series = RunPanel(1024, jobs);
  double amgmk_max = 0, others_min = 1e9;
  for (const SpeedupSeries& s : series) {
    if (s.app == "amgmk") {
      amgmk_max = s.MaxSpeedup();
    } else if (s.app != "pagerank") {  // capped at 4 instances
      others_min = std::min(others_min, s.MaxSpeedup());
    }
  }
  Require(amgmk_max < others_min,
          StrFormat("AMGmk (%.1fX) should saturate hardest at thread limit "
                    "1024 (others >= %.1fX)",
                    amgmk_max, others_min));
  PrintPanel(series, 1024);
  std::printf("\nqualitative checks: PASS (AMGmk saturates hardest: %.1fX)\n",
              amgmk_max);
}

// --- Ablations and extensions on the Fig. 6 workloads --------------------

/// §4.3's explanation of the AMGmk gap: sweeping the DRAM byte rate moves
/// the 32-instance speedup, so the plateau is a bandwidth wall, not a
/// scheduling artifact.
void Bandwidth(std::uint32_t jobs) {
  const std::vector<double> bandwidths{275.0, 550.0, 1100.0, 2200.0, 4400.0};
  std::vector<ExperimentConfig> configs;
  for (double bw : bandwidths) {
    ExperimentConfig cfg = Fig6Config(FindFig6Workload("amgmk"), 1024);
    cfg.instance_counts = {1, 32};
    cfg.spec.dram_bytes_per_cycle = bw;
    configs.push_back(std::move(cfg));
  }
  const std::vector<SpeedupSeries> series = Sweep(configs, jobs);
  std::printf("AMGmk ensemble speedup at 32 instances, thread limit 1024, "
              "vs DRAM bandwidth\n");
  std::printf("%-22s %-14s %-10s %s\n", "DRAM bytes/cycle", "T32 cycles",
              "speedup", "DRAM traffic");
  double prev = 0;
  for (std::size_t k = 0; k < bandwidths.size(); ++k) {
    const SpeedupPoint& p32 = series[k].points[1];
    std::printf("%-22.0f %-14llu %-10.2f %s\n", bandwidths[k],
                (unsigned long long)p32.cycles, p32.speedup,
                FormatBytes(p32.stats.dram_bytes).c_str());
    Require(p32.speedup + 0.25 >= prev, "speedup should rise with bandwidth");
    prev = p32.speedup;
  }
  std::printf("\nspeedup scales with DRAM bandwidth: the ensemble plateau "
              "is a bandwidth wall (paper §4.3)\n");
}

/// XSBench's three lookup structures: the unionized grid buys the fastest
/// lookup with the largest index table, the hash grid bounds the search
/// with a small table, the nuclide grid binary-searches every nuclide. All
/// three locate the same bracketing index, so every run verifies against
/// one host reference.
void XsGridType(std::uint32_t jobs) {
  const std::vector<apps::XsGridType> types{apps::XsGridType::kUnionized,
                                            apps::XsGridType::kHash,
                                            apps::XsGridType::kNuclide};
  std::vector<ExperimentConfig> configs;
  for (apps::XsGridType type : types) {
    Fig6Workload w = FindFig6Workload("xsbench");
    w.flags.insert(w.flags.end(), {"-G", std::string(apps::ToString(type))});
    w.instance_counts = {1, 32};
    configs.push_back(Fig6Config(w, 32));
  }
  const std::vector<SpeedupSeries> series = Sweep(configs, jobs);
  std::printf("XSBench grid types: 32-instance ensembles, thread limit 32\n");
  std::printf("%-12s %-14s %-12s %-12s %s\n", "grid", "bytes/instance",
              "T1 cycles", "T32 cycles", "speedup@32");
  for (std::size_t k = 0; k < types.size(); ++k) {
    const auto params =
        apps::XsParams::Parse(configs[k].args_for_instance(0));
    DGC_CHECK(params.ok());
    const std::vector<SpeedupPoint>& points = series[k].points;
    std::printf("%-12s %-14s %-12llu %-12llu %.2f\n",
                std::string(apps::ToString(types[k])).c_str(),
                FormatBytes(params->DeviceBytes()).c_str(),
                (unsigned long long)points[0].cycles,
                (unsigned long long)points[1].cycles, points[1].speedup);
  }
  std::printf("\nsmaller acceleration tables trade per-lookup search work "
              "for ensemble memory headroom\n");
}

/// Beyond the paper: the same ensembles on a V100-class part (80 SMs, ~60%
/// of the A100's bandwidth) saturate earlier, as §4.3's device-resource
/// argument predicts.
void V100(std::uint32_t jobs) {
  const std::vector<const char*> apps_list{"xsbench", "amgmk"};
  std::vector<ExperimentConfig> configs;  // (app × device), app-major
  for (const char* app : apps_list) {
    for (const sim::DeviceSpec& spec :
         {Fig6Spec(), sim::DeviceSpec::V100_16GB(204)}) {
      ExperimentConfig cfg = Fig6Config(FindFig6Workload(app), 1024);
      cfg.instance_counts = {1, 64};
      cfg.spec = spec;
      configs.push_back(std::move(cfg));
    }
  }
  const std::vector<SpeedupSeries> series = Sweep(configs, jobs);
  std::printf("A100 vs V100 ensembles, thread limit 1024, speedup at 64 "
              "instances\n");
  std::printf("%-10s %-12s %-12s\n", "benchmark", "A100", "V100");
  for (std::size_t r = 0; r < apps_list.size(); ++r) {
    double speedups[2] = {0, 0};
    for (std::size_t k = 0; k < 2; ++k) {
      const SpeedupPoint& p64 = series[r * 2 + k].points[1];
      speedups[k] = p64.ran ? p64.speedup : 0.0;
    }
    std::printf("%-10s %-12.1f %-12.1f\n", apps_list[r], speedups[0],
                speedups[1]);
    Require(speedups[1] < speedups[0],
            "the smaller part must saturate earlier");
  }
  std::printf("\nthe smaller device saturates earlier — ensemble scaling is "
              "a device-resource effect, as §4.3 argues\n");
}

// --- Shared read-only data segments --------------------------------------

/// Largest instance count whose point ran (0 = none).
std::uint32_t MaxRan(const SpeedupSeries& s) {
  std::uint32_t best = 0;
  for (const SpeedupPoint& p : s.points) {
    if (p.ran) best = std::max(best, p.instances);
  }
  return best;
}

const SpeedupPoint* FindPoint(const SpeedupSeries& s, std::uint32_t n) {
  for (const SpeedupPoint& p : s.points) {
    if (p.instances == n) return &p;
  }
  return nullptr;
}

/// Device memory each instance adds between 1 and `n` instances.
double PerInstanceBytes(const SpeedupSeries& s, std::uint32_t n) {
  const SpeedupPoint* base = FindPoint(s, 1);
  const SpeedupPoint* point = FindPoint(s, n);
  if (base == nullptr || point == nullptr || !base->ran || !point->ran) {
    return 0.0;
  }
  return double(point->peak_mem_bytes - base->peak_mem_bytes) / double(n - 1);
}

/// Replica ensembles (every instance runs the SAME input, a parameter
/// study's common case) with sharing off and on. Sharing keeps one copy of
/// the read-only inputs, so each added instance costs only its private
/// buffers and the replica count rises past the Fig. 6 capacity.
void SharedData(std::uint32_t jobs) {
  struct Replica {
    const char* app;
    std::vector<std::string> args;
  };
  // Sized so 256 duplicated replicas exceed the Fig. 6 device while 256
  // shared replicas fit: the read-only inputs dominate each footprint.
  const std::vector<Replica> replicas = {
      {"xsbench", {"-i", "24", "-g", "256", "-l", "256"}},
      {"rsbench", {"-u", "32", "-w", "64", "-p", "16", "-l", "256"}},
      {"amgmk", FindFig6Workload("amgmk").flags},
      {"pagerank", {"-g", "10000", "-d", "10"}},
  };
  const std::vector<std::uint32_t> counts{1, 4, 16, 64, 128, 256};
  std::vector<ExperimentConfig> configs;  // (app × layout), app-major
  for (const Replica& r : replicas) {
    for (const bool share : {false, true}) {
      ExperimentConfig cfg;
      cfg.app = r.app;
      cfg.args_for_instance = [args = r.args](std::uint32_t) { return args; };
      cfg.instance_counts = counts;
      cfg.thread_limit = 32;
      cfg.spec = Fig6Spec();
      cfg.share_data = share;
      configs.push_back(std::move(cfg));
    }
  }
  const std::vector<SpeedupSeries> series = Sweep(configs, jobs);
  std::printf("shared read-only data segments — replica ensembles, device %s "
              "(%s)\n\n",
              Fig6Spec().name.c_str(),
              FormatBytes(Fig6Spec().global_memory_bytes).c_str());
  std::printf("%-10s %-11s %9s %14s %16s %14s\n", "benchmark", "layout",
              "max n", "peak @ max n", "bytes/instance", "bytes saved");
  for (std::size_t a = 0; a < replicas.size(); ++a) {
    const std::string app = replicas[a].app;
    const SpeedupSeries& dup = series[2 * a];
    const SpeedupSeries& shared = series[2 * a + 1];
    // Per-instance bytes compare at the largest count both layouts ran.
    std::uint32_t common = 0;
    for (const std::uint32_t n : counts) {
      if (n > 1 && n <= MaxRan(dup) && n <= MaxRan(shared)) common = n;
    }
    for (const SpeedupSeries* s : {&dup, &shared}) {
      const SpeedupPoint* at_max = FindPoint(*s, MaxRan(*s));
      const SpeedupPoint* at_common = FindPoint(*s, common);
      std::printf(
          "%-10s %-11s %9u %14s %16s %14s\n", app.c_str(),
          s == &shared ? "shared" : "duplicated", MaxRan(*s),
          at_max != nullptr ? FormatBytes(at_max->peak_mem_bytes).c_str()
                            : "-",
          common != 0
              ? FormatBytes(std::uint64_t(PerInstanceBytes(*s, common)))
                    .c_str()
              : "-",
          at_common != nullptr
              ? FormatBytes(at_common->shared_bytes_saved).c_str()
              : "-");
    }
    // Sharing reaches the full 256-replica ensemble on every app; the
    // duplicated layout hits the device capacity first.
    Require(MaxRan(shared) >= 256,
            StrFormat("%s: shared layout capped at %u instances (want 256)",
                      app.c_str(), MaxRan(shared)));
    Require(MaxRan(dup) < 256,
            app + ": duplicated layout fit 256 instances — the workload no "
                  "longer exercises the capacity boundary");
    Require(common != 0,
            app + ": no common instance count ran in both layouts");
    const double per_dup = PerInstanceBytes(dup, common);
    const double per_shared = PerInstanceBytes(shared, common);
    Require(per_shared < per_dup,
            StrFormat("%s: per-instance memory did not shrink (shared %.0f "
                      "vs duplicated %.0f bytes)",
                      app.c_str(), per_shared, per_dup));
    Require(FindPoint(shared, common)->shared_bytes_saved != 0,
            app + ": shared run reported no bytes saved");
  }
  std::printf("\nsharing read-only inputs raises the max replica count to "
              "256+ on every app (duplicated layout OOMs first)\n");
}

// --- Device-level ablations -----------------------------------------------

struct Streamed {
  std::uint64_t cycles;
  std::uint64_t sectors;
  double coalescing;
};

/// Bandwidth-bound streaming, one block per base: each thread pulls
/// pipelined 32-element batches at the given element stride.
Streamed Stream(sim::Device& device,
                const std::vector<sim::DevicePtr<double>>& bases,
                std::uint32_t elements, std::uint32_t stride) {
  sim::LaunchConfig cfg{.grid = {std::uint32_t(bases.size()), 1, 1},
                        .block = {256, 1, 1},
                        .name = "stream"};
  auto result =
      device.Launch(cfg, [&](sim::ThreadCtx& ctx) -> sim::DeviceTask<void> {
        auto p = bases[ctx.block_id];
        double acc = 0;
        constexpr std::uint32_t kChunk = 32;
        for (std::uint32_t i = ctx.thread_id * kChunk; i < elements;
             i += ctx.block_threads * kChunk) {
          auto g = ctx.Gather<double, kChunk>();
          for (std::uint32_t j = 0; j < kChunk; ++j) {
            g.Add(p + std::ptrdiff_t(i + j) * stride);
          }
          co_await g;
          for (std::uint32_t j = 0; j < kChunk; ++j) acc += g.Result(j);
        }
        (void)acc;
      });
  DGC_CHECK(result.ok());
  return {result->stats.elapsed_cycles, result->stats.global_sectors,
          result->stats.CoalescingEfficiency()};
}

/// §4.3's coalescing observation. Part 1: stride s touches ~s× the sectors
/// for the same elements. Part 2: buffers offset from the sector grid, as
/// data nested in odd-sized heap objects is, fetch an extra sector per
/// batch.
void Coalescing(std::uint32_t /*jobs*/) {
  const std::uint32_t kBlocks = 16, kElements = 1 << 15;
  // One fresh device per run, each block streaming its own allocation.
  auto run = [&](std::uint32_t stride, std::uint64_t bytes, bool offset) {
    sim::Device device(Fig6Spec());
    std::vector<sim::DevicePtr<double>> bases;
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      auto buf = *device.Malloc(bytes);
      bases.push_back(offset ? buf.Typed<double>(1) : buf.Typed<double>());
    }
    return Stream(device, bases, kElements, stride);
  };
  std::printf("Part 1 — strided streaming under bandwidth-bound load "
              "(%u blocks x 256 threads)\n", kBlocks);
  std::printf("%-10s %-12s %-12s %-12s %s\n", "stride", "cycles", "sectors",
              "coalescing", "slowdown");
  std::uint64_t base = 0;
  for (std::uint32_t stride : {1u, 2u, 4u, 8u}) {
    const Streamed m =
        run(stride, std::uint64_t(kElements) * stride * 8, false);
    if (stride == 1) base = m.cycles;
    std::printf("%-10u %-12llu %-12llu %-12.2f %.2fx\n", stride,
                (unsigned long long)m.cycles, (unsigned long long)m.sectors,
                m.coalescing, double(m.cycles) / double(base));
  }
  std::printf("\nPart 2 — sector-aligned vs offset heap allocations\n");
  std::printf("%-22s %-12s %-12s %s\n", "layout", "cycles", "sectors",
              "coalescing");
  std::uint64_t sectors[2] = {0, 0};
  for (const bool offset : {false, true}) {
    const Streamed m = run(1, std::uint64_t(kElements) * 8 + 64, offset);
    sectors[offset] = m.sectors;
    std::printf("%-22s %-12llu %-12llu %.2f\n",
                offset ? "offset by 8 bytes" : "sector-aligned",
                (unsigned long long)m.cycles, (unsigned long long)m.sectors,
                m.coalescing);
  }
  Require(sectors[1] > sectors[0], "offset layout must cost sectors");
  std::printf("\nnon-coalesced / misaligned instance data multiplies sector "
              "traffic on the shared DRAM (paper §4.3)\n");
}

struct CounterRun {
  std::vector<std::uint64_t> finals;
  std::uint64_t races = 0;  ///< memcheck cross-instance findings
};

/// 16 "instances" each increment one global counter 100 times and read it
/// back. Isolated, every instance reads exactly 100 and memcheck's race
/// detector stays silent.
CounterRun RunCounterEnsemble(ensemble::GlobalsMode mode) {
  sim::Device device(Fig6Spec());
  const std::uint32_t kTeams = 16, kIncrements = 100;
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());
  ensemble::IsolatedGlobals globals;
  DGC_CHECK(globals.Declare("g_counter", sizeof(std::uint64_t)).ok());
  DGC_CHECK(globals.Materialize(device, kTeams, mode, &memcheck).ok());
  std::vector<std::int32_t> instance_of_team(kTeams);
  std::iota(instance_of_team.begin(), instance_of_team.end(), 0);

  CounterRun run;
  run.finals.assign(kTeams, 0);
  ompx::TeamsConfig cfg{.num_teams = kTeams, .thread_limit = 32};
  cfg.memcheck = &memcheck;
  cfg.team_instances = instance_of_team;
  auto result = ompx::LaunchTeams(
      device, cfg, [&](ompx::TeamCtx& team) -> sim::DeviceTask<void> {
        auto slot = *globals.Slot<std::uint64_t>(team.team_id, "g_counter");
        for (std::uint32_t i = 0; i < kIncrements; ++i) {
          co_await team.hw->AtomicAdd(slot, std::uint64_t{1});
        }
        run.finals[team.team_id] = co_await team.hw->Load(slot);
      });
  DGC_CHECK(result.ok());
  globals.Release(device);
  run.races = memcheck.report().cross_instance_count;
  return run;
}

/// §3.3: instances in one kernel share mutable globals, so a shared
/// counter races; relocating it to per-team replicas restores isolation.
void Isolation(std::uint32_t /*jobs*/) {
  std::printf("§3.3 global-variable isolation: 16 instances x 100 "
              "increments of a global counter\n\n");
  const CounterRun shared = RunCounterEnsemble(ensemble::GlobalsMode::kShared);
  const CounterRun isolated =
      RunCounterEnsemble(ensemble::GlobalsMode::kIsolated);
  auto correct = [](const CounterRun& run) {
    return int(std::count(run.finals.begin(), run.finals.end(), 100u));
  };
  for (const CounterRun* run : {&shared, &isolated}) {
    std::printf("%-28s correct instances: %2d / 16   races flagged: %5llu   "
                "(sample finals: %llu, %llu, %llu)\n",
                run == &shared ? "shared global (legacy)"
                               : "per-team replicas (§3.3)",
                correct(*run), (unsigned long long)run->races,
                (unsigned long long)run->finals[0],
                (unsigned long long)run->finals[7],
                (unsigned long long)run->finals[15]);
  }
  Require(correct(isolated) == 16, "isolation must restore correctness");
  Require(correct(shared) != 16, "the shared layout should interfere");
  Require(shared.races != 0, "memcheck must flag the shared-global races");
  Require(isolated.races == 0,
          StrFormat("isolated replicas must not race (%llu)",
                    (unsigned long long)isolated.races));
  std::printf("\nrelocating globals to team-local replicas restores "
              "instance isolation (paper §3.3)\n");
}

/// §3.1's multi-dimensional mapping, M instances per block of shape
/// (thread_limit, M, 1), raises concurrency when resident blocks limit the
/// concurrent instances. A small device (8 SMs × 4 block slots) runs 128
/// low-parallelism instances in ~4 waves at M = 1; packing M instances per
/// block keeps every instance resident at once.
void Multidim(std::uint32_t /*jobs*/) {
  sim::DeviceSpec spec = Fig6Spec();
  spec.name = "block-slot-limited device (8 SMs x 4 blocks)";
  spec.num_sms = 8;
  spec.max_blocks_per_sm = 4;
  spec.max_warps_per_sm = 64;
  const std::uint32_t kInstances = 128, kThreadLimit = 32;

  std::printf("§3.1 multi-dimensional mapping: %u rsbench instances, "
              "thread limit %u\n",
              kInstances, kThreadLimit);
  std::printf("%-18s %-8s %-10s %-14s %s\n", "instances/block", "blocks",
              "resident", "cycles", "speedup vs M=1");
  std::uint64_t base_cycles = 0;
  for (std::uint32_t m : {1u, 2u, 4u, 8u}) {
    sim::Device device(spec);
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    ensemble::EnsembleOptions opt;
    opt.app = "rsbench";
    for (std::uint32_t i = 0; i < kInstances; ++i) {
      opt.instance_args.push_back({"-u", "8", "-w", "8", "-p", "4", "-l",
                                   "256", "-s", StrFormat("%u", i + 1)});
    }
    opt.thread_limit = kThreadLimit;
    opt.teams_per_block = m;
    auto run = ensemble::RunEnsemble(env, opt);
    Require(run.ok() && run->all_ok(),
            StrFormat("M=%u ran: %s", m,
                      run.ok() ? "instance error"
                               : run.status().ToString().c_str()));
    if (m == 1) base_cycles = run->kernel_cycles;
    const std::uint32_t blocks = kInstances / m;
    std::printf("%-18u %-8u %-10u %-14llu %.2fx\n", m, blocks,
                std::min(blocks, 8u * 4u),
                (unsigned long long)run->kernel_cycles,
                double(base_cycles) / double(run->kernel_cycles));
  }
  std::printf("\npacking instances into blocks raises concurrency when "
              "block slots are the limit (paper §3.1)\n");
}

struct Figure {
  const char* name;
  const char* about;
  void (*run)(std::uint32_t jobs);
};

constexpr Figure kFigures[] = {
    {"fig6a", "Fig. 6a: speedup T1*N/TN, thread limit 32", Fig6a},
    {"fig6b", "Fig. 6b: thread limit 1024; AMGmk saturates hardest", Fig6b},
    {"bandwidth", "§4.3: AMGmk speedup at 32 instances vs DRAM bandwidth",
     Bandwidth},
    {"coalescing", "§4.3: strided and misaligned data multiply sectors",
     Coalescing},
    {"isolation", "§3.3: a shared global races, per-team replicas do not",
     Isolation},
    {"multidim", "§3.1: M instances per block when block slots limit",
     Multidim},
    {"shared_data", "replica ensembles with --share-data off vs on",
     SharedData},
    {"xs_gridtype", "XSBench unionized/hash/nuclide grids at 32 instances",
     XsGridType},
    {"v100", "A100 vs V100 speedup at 64 instances, thread limit 1024",
     V100},
};

}  // namespace
}  // namespace dgc::bench

int main(int argc, char** argv) {
  using namespace dgc;
  std::string about =
      "Prints one figure of the paper's evaluation; exits 1 if its\n"
      "qualitative claim fails. Output is identical for every --jobs value.\n"
      "Figures:";
  const bench::Figure* figure = nullptr;
  for (const bench::Figure& f : bench::kFigures) {
    about += StrFormat("\n  %-14s %s", f.name, f.about);
    if (argc > 1 && std::string_view(argv[1]) == f.name) figure = &f;
  }
  std::uint32_t jobs = DefaultThreads();
  bool help = false;
  ArgParser parser(about);
  parser.AddInt("jobs", 0, "concurrent sweep points (1 = serial)", &jobs, 1)
      .AddFlag("help", 'h', "print this help", &help);
  const int skip = figure != nullptr ? 2 : 1;
  const Status parsed = parser.Parse(argc - skip, argv + skip);
  const std::string usage = parser.Usage(std::string(argv[0]) + " <figure>");
  if (help) {
    std::printf("%s", usage.c_str());
    return 0;
  }
  if (!parsed.ok() || figure == nullptr) {
    std::fprintf(stderr, "%s\n%s",
                 parsed.ok() ? "expected a figure name"
                             : parsed.ToString().c_str(),
                 usage.c_str());
    return 2;
  }
  apps::RegisterAllApps();
  figure->run(jobs);
  return 0;
}
