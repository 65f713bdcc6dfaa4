// dgc-run — the command-line front end of the framework, mirroring the
// paper's Fig. 5c invocation:
//
//   dgc-run xsbench -f arguments.txt -n 4 -t 128
//
// plus quality-of-life flags: device selection, the Fig. 6 sweep, the
// argument-script language, stats reporting, and app discovery.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/experiment.h"
#include "ensemble/loader.h"
#include "ensemble/metrics.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"
#include "gpusim/profiler.h"
#include "gpusim/trace.h"
#include "support/str.h"
#include "support/thread_pool.h"
#include "support/units.h"

using namespace dgc;

namespace {

int ListApps() {
  std::printf("device-compiled applications:\n");
  for (const std::string& name : dgcf::AppRegistry::Instance().Names()) {
    auto info = dgcf::AppRegistry::Instance().Find(name);
    std::printf("  %-12s %s\n", name.c_str(), (*info)->description.c_str());
  }
  return 0;
}

void PrintOutcome(const dgcf::RunResult& run, const sim::DeviceSpec& spec,
                  const dgcf::RpcHost& rpc, const dgcf::DeviceLibc& libc,
                  bool stats, bool memcheck) {
  if (!rpc.stdout_text().empty()) {
    std::printf("%s", rpc.stdout_text().c_str());
  }
  for (std::size_t i = 0; i < run.instances.size(); ++i) {
    const dgcf::InstanceResult& inst = run.instances[i];
    if (!inst.completed) {
      std::printf("instance %zu: FAILED (%s)%s%s after %u attempt(s)\n", i,
                  std::string(dgcf::ToString(inst.reason)).c_str(),
                  inst.detail.empty() ? "" : ": ",
                  inst.detail.c_str(), inst.attempts);
    } else if (inst.exit_code != 0) {
      std::printf("instance %zu: exit %d\n", i, inst.exit_code);
    } else if (inst.attempts > 1) {
      std::printf("instance %zu: recovered on attempt %u\n", i, inst.attempts);
    }
  }
  std::printf("%zu instance(s) in %u launch wave(s), kernel %s cycles (%s), "
              "transfers %s cycles\n",
              run.instances.size(), run.waves,
              FormatCount(run.kernel_cycles).c_str(),
              FormatSeconds(spec.CyclesToSeconds(run.kernel_cycles)).c_str(),
              FormatCount(run.transfer_cycles).c_str());
  if (stats) std::printf("\n%s", run.stats.ToString().c_str());
  if (stats || libc.failed_allocations() != 0 || libc.failed_frees() != 0) {
    std::printf("device heap: %s live, %s failed mallocs, %s failed frees\n",
                FormatCount(libc.live_allocations()).c_str(),
                FormatCount(libc.failed_allocations()).c_str(),
                FormatCount(libc.failed_frees()).c_str());
  }
  if (memcheck) {
    std::printf("\n%s", run.memcheck.ToString().c_str());
  }
  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "device failure: %s\n", f.c_str());
  }
}

/// --profile: human-readable per-instance summary plus the timeline's peak
/// DRAM bandwidth occupancy (the §4.3 saturation signal at a glance).
void PrintProfile(const dgcf::RunResult& run, const sim::Profiler& profiler) {
  std::printf("\nprofile: per-instance counters\n");
  std::printf("%9s %12s %12s %12s %10s %10s %10s %10s %7s\n", "instance",
              "cycles", "instr", "dram-bytes", "dram-q", "l2-q", "barrier",
              "mem-peak", "allocs");
  for (const sim::InstanceStats& entry : run.instance_stats) {
    const sim::LaunchStats& s = entry.stats;
    if (entry.instance < 0 && s.warp_instructions == 0 && s.dram_bytes == 0) {
      continue;  // nothing landed in the unattributed slot; skip the row
    }
    std::uint64_t mem_peak = 0, mem_allocs = 0;
    if (entry.instance >= 0 &&
        std::size_t(entry.instance) < run.instances.size()) {
      mem_peak = run.instances[std::size_t(entry.instance)].mem_peak_bytes;
      mem_allocs = run.instances[std::size_t(entry.instance)].mem_allocations;
    }
    std::printf("%9s %12s %12s %12s %10s %10s %10s %10s %7s\n",
                entry.instance < 0
                    ? "(none)"
                    : StrFormat("%d", entry.instance).c_str(),
                FormatCount(s.elapsed_cycles).c_str(),
                FormatCount(s.warp_instructions).c_str(),
                FormatBytes(s.dram_bytes).c_str(),
                FormatCount(s.dram_queue_cycles).c_str(),
                FormatCount(s.l2_queue_cycles).c_str(),
                FormatCount(s.barrier_stall_cycles).c_str(),
                FormatBytes(mem_peak).c_str(),
                FormatCount(mem_allocs).c_str());
  }
  const sim::DeviceMemSnapshot& mem = run.device_mem;
  std::printf("device memory: peak %s of %s, %s allocation(s)",
              FormatBytes(mem.peak_bytes).c_str(),
              FormatBytes(mem.capacity).c_str(),
              FormatCount(mem.allocation_count).c_str());
  if (mem.shared_materialized != 0 || mem.shared_attaches != 0) {
    std::printf("; shared segments: %s materialized, %s attach(es), %s saved",
                FormatCount(mem.shared_materialized).c_str(),
                FormatCount(mem.shared_attaches).c_str(),
                FormatBytes(mem.shared_bytes_saved).c_str());
  }
  std::printf("\n");
  double peak_dram = 0.0, peak_l2 = 0.0;
  for (const sim::TimelineSample& s : profiler.timeline()) {
    peak_dram = std::max(peak_dram, s.dram_bw_occupancy);
    peak_l2 = std::max(peak_l2, s.l2_bw_occupancy);
  }
  std::printf("timeline: %zu sample(s)", profiler.timeline().size());
  if (profiler.dropped_samples() != 0) {
    std::printf(" (%llu dropped)",
                (unsigned long long)profiler.dropped_samples());
  }
  std::printf(", peak DRAM bw occupancy %.2f, peak L2 bw occupancy %.2f\n",
              peak_dram, peak_l2);
}

/// --sweep mode: the Fig. 6 methodology from the command line. Runs the app
/// at each instance count (first must be 1 — it defines T1) on a fresh
/// device per point, `jobs` points concurrently, and prints the paper-style
/// speedup table. Output is identical for every job count.
int RunSweepMode(const std::string& app, const ensemble::EnsembleCli& cli,
                 const std::vector<std::uint32_t>& counts, std::uint32_t jobs,
                 const std::string& csv_path, const sim::DeviceSpec& spec,
                 bool profile, const std::string& metrics_prefix,
                 std::uint64_t profile_interval) {
  const auto& lines = cli.options.instance_args;
  std::uint32_t max_count = 0;
  for (std::uint32_t n : counts) max_count = std::max(max_count, n);
  if (max_count > lines.size()) {
    std::fprintf(stderr,
                 "dgc-run: --sweep needs %u argument lines but the argument "
                 "file provides only %zu\n",
                 max_count, lines.size());
    return 2;
  }

  ensemble::ExperimentConfig cfg;
  static_cast<ensemble::LaunchPolicy&>(cfg) = cli.options;
  cfg.app = app;
  cfg.args_for_instance = [lines](std::uint32_t i) { return lines[i]; };
  cfg.instance_counts = counts;
  cfg.thread_limit = cli.options.thread_limit;
  cfg.teams_per_block = cli.options.teams_per_block;
  cfg.spec = spec;
  cfg.inject_spec = cli.inject;  // parsed fresh per point (determinism)
  cfg.profile = profile || !metrics_prefix.empty();
  cfg.profile_interval = profile_interval;

  ensemble::SweepOptions options;
  options.jobs = jobs;
  options.progress = [](const ensemble::SweepPointEvent& e) {
    if (e.kind == ensemble::SweepPointEvent::Kind::kFinished) {
      std::fprintf(stderr, "[sweep] n=%u %s in %.2fs (%zu/%zu finished)\n",
                   e.instances, e.ran ? "finished" : "skipped", e.wall_seconds,
                   e.points_finished, e.points_total);
    }
  };

  auto series = ensemble::MeasureSpeedup(cfg, options);
  if (!series.ok()) {
    std::fprintf(stderr, "dgc-run: %s\n", series.status().ToString().c_str());
    return 2;
  }
  std::printf("%s speedup sweep, thread limit %u, device %s\n\n",
              app.c_str(), cfg.thread_limit, spec.name.c_str());
  std::printf("%s", ensemble::FormatSpeedupTable({*series}).c_str());
  for (const ensemble::SpeedupPoint& p : series->points) {
    if (!p.ran && !p.note.empty()) {
      std::printf("n=%u skipped: %s\n", p.instances, p.note.c_str());
    }
  }
  if (!csv_path.empty()) {
    const Status s = ensemble::WriteSpeedupCsv({*series}, csv_path);
    if (!s.ok()) {
      std::fprintf(stderr, "csv export failed: %s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("csv written: %s\n", csv_path.c_str());
  }
  if (!metrics_prefix.empty()) {
    // One sidecar per measured point. The documents come straight from the
    // sweep's pre-assigned slots, so they are byte-identical for any --jobs.
    for (const ensemble::SpeedupPoint& p : series->points) {
      if (!p.ran || p.metrics_json.empty()) continue;
      const std::string path =
          StrFormat("%s.n%u.json", metrics_prefix.c_str(), p.instances);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "metrics export failed: cannot write %s\n",
                     path.c_str());
        return 2;
      }
      out << p.metrics_json;
      std::printf("metrics written: %s\n", path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  apps::RegisterAllApps();

  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    std::printf(
        "usage: dgc-run <app> [options]          run an ensemble (Fig. 5c)\n"
        "       dgc-run --list                   list registered apps\n\n"
        "options forwarded to the ensemble loader:\n"
        "  -f <file>      command line arguments file (required)\n"
        "  -n <count>     instances to launch simultaneously\n"
        "  -t <threads>   thread limit per instance (default 1024)\n"
        "  -m <count>     instances per thread block (default 1)\n"
        "  --teams <n>    teams (default: one per instance)\n"
        "  --script       treat -f file as an argument script\n"
        "  --seed <n>     argument-script random seed\n"
        "  --inject <spec>  deterministic fault injection, e.g.\n"
        "                 'seed@7;malloc-fail@3;trap@b0.w1.c5000' (see\n"
        "                 docs/MODEL.md, Failure semantics)\n"
        "  --watchdog <cycles>  launch cycle budget; still-running lanes\n"
        "                 trap when it expires (0 = device default)\n"
        "  --instance-watchdog <cycles>  per-instance budget (0 = off)\n"
        "  --retry <n>    max launch attempts per failed instance\n"
        "                 (default 1 = no retry)\n"
        "  --retry-shrink <n>  divide the team cap by <n> each retry wave\n"
        "                 (default 2)\n"
        "  --share-data <on|off>  share read-only input segments across\n"
        "                 instances with identical workloads (default on;\n"
        "                 off reproduces the duplicated per-instance layout)\n\n"
        "tool options (must precede the loader options):\n"
        "  --device <d>   a100 (default), v100, or test\n"
        "  --memory-scale <n>  capacity scale divisor (default 512)\n"
        "  --stats        print simulator statistics\n"
        "  --memcheck     run the shadow-memory sanitizer; findings are\n"
        "                 reported and make the run exit nonzero\n"
        "  --trace <path> write a chrome://tracing JSON of the kernel\n"
        "  --trace-capacity <n>  max trace events kept (default 1048576);\n"
        "                 overflow is dropped and reported\n"
        "  --profile      per-instance counter attribution + utilization\n"
        "                 timeline, printed as a table\n"
        "  --metrics-json <path>  write the dgc-metrics-v1 JSON document\n"
        "                 (implies profiling); with --sweep, <path> is a\n"
        "                 prefix — one <path>.n<count>.json per point\n"
        "  --profile-interval <cycles>  timeline sample interval\n"
        "                 (default 8192)\n"
        "  --sweep <n1,n2,...>  Fig. 6 mode: measure speedup at each\n"
        "                 instance count (first must be 1) instead of one\n"
        "                 run; prints the paper-style table\n"
        "  --csv <path>   with --sweep: also export the series as CSV\n"
        "  --jobs <n>     with --sweep: concurrent sweep points (default:\n"
        "                 hardware threads; 1 = serial, same output)\n");
    return args.empty() ? 2 : 0;
  }
  if (args[0] == "--list") return ListApps();

  const std::string app = args[0];
  args.erase(args.begin());

  // Split off tool options (anything before the first loader flag we know).
  std::string device_name = "a100";
  std::string trace_path;
  std::string csv_path;
  std::string metrics_path;
  std::int64_t memory_scale = 512;
  std::int64_t trace_capacity = 1 << 20;
  std::int64_t profile_interval = 0;
  std::uint32_t jobs = DefaultThreads();
  std::vector<std::uint32_t> sweep_counts;
  bool stats = false;
  bool memcheck_on = false;
  bool profile = false;
  std::vector<std::string> loader_args;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--device" && i + 1 < args.size()) {
      device_name = args[++i];
    } else if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (args[i] == "--trace-capacity" && i + 1 < args.size()) {
      auto v = ParseInt(args[++i]);
      if (!v.ok() || *v <= 0) {
        std::fprintf(stderr, "bad --trace-capacity\n");
        return 2;
      }
      trace_capacity = *v;
    } else if (args[i] == "--memory-scale" && i + 1 < args.size()) {
      auto v = ParseInt(args[++i]);
      if (!v.ok()) {
        std::fprintf(stderr, "bad --memory-scale\n");
        return 2;
      }
      memory_scale = *v;
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      auto v = ParseInt(args[++i]);
      if (!v.ok() || *v < 1) {
        std::fprintf(stderr, "bad --jobs (want a count >= 1)\n");
        return 2;
      }
      jobs = std::uint32_t(*v);
    } else if (args[i] == "--sweep" && i + 1 < args.size()) {
      for (std::string_view part : SplitChar(args[++i], ',')) {
        auto v = ParseInt(part);
        if (!v.ok() || *v < 1) {
          std::fprintf(stderr, "bad --sweep list (want counts >= 1)\n");
          return 2;
        }
        sweep_counts.push_back(std::uint32_t(*v));
      }
    } else if (args[i] == "--csv" && i + 1 < args.size()) {
      csv_path = args[++i];
    } else if (args[i] == "--metrics-json" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (args[i] == "--profile-interval" && i + 1 < args.size()) {
      auto v = ParseInt(args[++i]);
      if (!v.ok() || *v <= 0) {
        std::fprintf(stderr, "bad --profile-interval\n");
        return 2;
      }
      profile_interval = *v;
    } else if (args[i] == "--stats") {
      stats = true;
    } else if (args[i] == "--memcheck") {
      memcheck_on = true;
    } else if (args[i] == "--profile") {
      profile = true;
    } else {
      loader_args.push_back(args[i]);
    }
  }

  auto spec = sim::DeviceSpec::FromName(device_name, memory_scale);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  // One parser for both modes; a sweep sets the instance count per point,
  // so -n/--teams are unknown options there.
  auto cli = ensemble::ParseEnsembleCli(app, loader_args,
                                        /*with_counts=*/sweep_counts.empty());
  if (!cli.ok()) {
    std::fprintf(stderr, "dgc-run: %s\n", cli.status().ToString().c_str());
    return 2;
  }
  if (!sweep_counts.empty()) {
    return RunSweepMode(app, *cli, sweep_counts, jobs, csv_path, *spec,
                        profile, metrics_path,
                        std::uint64_t(profile_interval));
  }
  sim::Device device(*spec);
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};

  sim::Trace trace{std::size_t(trace_capacity)};
  sim::Memcheck memcheck;
  if (memcheck_on) memcheck.Attach(device.memory());
  const bool profiling = profile || !metrics_path.empty();
  sim::Profiler::Options profiler_options;
  if (profile_interval != 0) {
    profiler_options.sample_interval = std::uint64_t(profile_interval);
  }
  sim::Profiler profiler(profiler_options);
  cli->options.trace = trace_path.empty() ? nullptr : &trace;
  cli->options.memcheck = memcheck_on ? &memcheck : nullptr;
  cli->options.profiler = profiling ? &profiler : nullptr;
  auto run = ensemble::RunEnsembleCli(env, *cli);
  if (!run.ok()) {
    std::fprintf(stderr, "dgc-run: %s\n", run.status().ToString().c_str());
    return 2;
  }
  PrintOutcome(*run, device.spec(), rpc, libc, stats, memcheck_on);
  if (profile) PrintProfile(*run, profiler);
  if (!metrics_path.empty()) {
    ensemble::MetricsInfo info;
    info.app = app;
    info.device = spec->name;
    info.thread_limit = cli->options.thread_limit;
    info.instances = std::uint32_t(run->instances.size());
    info.teams_per_block = cli->options.teams_per_block;
    const Status s =
        ensemble::WriteMetricsJson(metrics_path, info, *run, &profiler);
    if (!s.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    std::printf("metrics written: %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    const Status s = trace.WriteChromeJson(trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", s.ToString().c_str());
      return 2;
    }
    // The dropped count is part of the summary line: a capacity-truncated
    // export must not read as a complete timeline.
    std::printf("trace written: %s (%zu events, %llu dropped)\n",
                trace_path.c_str(), trace.events().size(),
                (unsigned long long)trace.dropped());
    if (trace.dropped() > 0) {
      std::fprintf(stderr,
                   "warning: trace capacity reached — %llu event(s) dropped; "
                   "the exported timeline is incomplete (raise "
                   "--trace-capacity)\n",
                   (unsigned long long)trace.dropped());
    }
  }
  if (memcheck_on && !run->memcheck.clean()) return 1;
  return run->all_ok() ? 0 : 1;
}
