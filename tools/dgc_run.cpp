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
#include "support/argparse.h"
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

/// dgc-run's own flags; the loader's are bound to ensemble::EnsembleCli.
struct ToolFlags {
  bool help = false;
  bool list = false;
  std::string device = "a100";
  std::uint32_t memory_scale = 512;
  bool stats = false;
  bool memcheck = false;
  std::string trace_path;
  std::uint64_t trace_capacity = 1 << 20;
  bool profile = false;
  std::string metrics_path;
  std::uint64_t profile_interval = sim::Profiler::Options{}.sample_interval;
  std::vector<std::uint32_t> sweep;  ///< instance counts; empty = one run
  std::string csv_path;
  std::uint32_t jobs = DefaultThreads();
};

/// --sweep mode: the Fig. 6 methodology from the command line. Runs the app
/// at each instance count (first must be 1 — it defines T1) on a fresh
/// device per point, `flags.jobs` points concurrently, and prints the
/// paper-style speedup table. Output is identical for every job count.
int RunSweepMode(const ensemble::EnsembleCli& cli, const ToolFlags& flags,
                 const sim::DeviceSpec& spec) {
  const std::string& app = cli.options.app;
  const std::string& metrics_prefix = flags.metrics_path;
  const auto& lines = cli.options.instance_args;
  std::uint32_t max_count = 0;
  for (std::uint32_t n : flags.sweep) max_count = std::max(max_count, n);
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
  cfg.instance_counts = flags.sweep;
  cfg.thread_limit = cli.options.thread_limit;
  cfg.teams_per_block = cli.options.teams_per_block;
  cfg.spec = spec;
  cfg.inject_spec = cli.inject;  // parsed fresh per point (determinism)
  cfg.profile = flags.profile || !metrics_prefix.empty();
  cfg.profile_interval = flags.profile_interval;

  ensemble::SweepOptions options;
  options.jobs = flags.jobs;
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
  if (!flags.csv_path.empty()) {
    const Status s = ensemble::WriteSpeedupCsv({*series}, flags.csv_path);
    if (!s.ok()) {
      std::fprintf(stderr, "csv export failed: %s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("csv written: %s\n", flags.csv_path.c_str());
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

  // The app name comes first; every other argument is an option.
  std::vector<std::string> args(argv + 1, argv + argc);
  ensemble::EnsembleCli cli;
  if (!args.empty() && !StartsWith(args[0], "-")) {
    cli.options.app = args[0];
    args.erase(args.begin());
  }

  ToolFlags flags;
  ArgParser parser(
      "Runs <app> as an ensemble of instances in one kernel (paper Fig. 5c);\n"
      "dgc-run --list names the apps. Exit status: 0 = every instance\n"
      "verified, 1 = an instance failed or memcheck found an error,\n"
      "2 = usage error.");
  parser.AddFlag("help", 'h', "print this help", &flags.help)
      .AddFlag("list", 0, "list the registered apps", &flags.list)
      .AddString("device", 0, "a100, v100, or test", &flags.device)
      .AddInt("memory-scale", 0, "device capacity scale divisor",
              &flags.memory_scale, 1)
      .AddFlag("stats", 0, "print simulator statistics", &flags.stats)
      .AddFlag("memcheck", 0,
               "run the shadow-memory sanitizer; findings are reported and "
               "make the run exit nonzero",
               &flags.memcheck)
      .AddString("trace", 0, "write a chrome://tracing JSON of the kernel",
                 &flags.trace_path)
      .AddInt("trace-capacity", 0,
              "max trace events kept; overflow is dropped and reported",
              &flags.trace_capacity, 1)
      .AddFlag("profile", 0,
               "print per-instance counters and utilization timeline peaks",
               &flags.profile)
      .AddString("metrics-json", 0,
                 "write the dgc-metrics-v1 JSON document (implies "
                 "profiling); with --sweep a prefix: one <path>.n<count>.json "
                 "per point",
                 &flags.metrics_path)
      .AddInt("profile-interval", 0, "timeline sample interval, cycles",
              &flags.profile_interval, 1)
      .AddIntList("sweep",
                  "Fig. 6 mode: measure speedup at each instance count "
                  "(first must be 1); -n and --teams do not apply",
                  &flags.sweep, 1)
      .AddString("csv", 0, "with --sweep: also export the series as CSV",
                 &flags.csv_path)
      .AddInt("jobs", 0,
              "with --sweep: concurrent sweep points (1 = serial, same "
              "output)",
              &flags.jobs, 1);
  const Status parsed = ensemble::ParseEnsembleCli(args, parser, cli);
  if (flags.list && !flags.help) return ListApps();
  if (flags.help || cli.options.app.empty()) {
    std::printf("%s", parser.Usage("dgc-run <app>").c_str());
    return flags.help ? 0 : 2;
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "dgc-run: %s\n", parsed.ToString().c_str());
    return 2;
  }
  auto spec = sim::DeviceSpec::FromName(flags.device, flags.memory_scale);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  if (!flags.sweep.empty()) {
    // A sweep sets the instance count per point.
    const char* count_flag = cli.options.num_instances != 0 ? "-n"
                             : cli.options.num_teams != 0   ? "--teams"
                                                            : nullptr;
    if (count_flag != nullptr) {
      std::fprintf(stderr,
                   "dgc-run: %s does not apply with --sweep, which sets the "
                   "instance count per point\n",
                   count_flag);
      return 2;
    }
    return RunSweepMode(cli, flags, *spec);
  }
  sim::Device device(*spec);
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};

  sim::Trace trace{std::size_t(flags.trace_capacity)};
  sim::Memcheck memcheck;
  const bool profiling = flags.profile || !flags.metrics_path.empty();
  sim::Profiler::Options profiler_options;
  profiler_options.sample_interval = flags.profile_interval;
  sim::Profiler profiler(profiler_options);
  cli.options.trace = flags.trace_path.empty() ? nullptr : &trace;
  cli.options.memcheck = flags.memcheck ? &memcheck : nullptr;
  cli.options.profiler = profiling ? &profiler : nullptr;
  auto run = ensemble::RunEnsembleCli(env, cli);
  if (!run.ok()) {
    std::fprintf(stderr, "dgc-run: %s\n", run.status().ToString().c_str());
    return 2;
  }
  PrintOutcome(*run, device.spec(), rpc, libc, flags.stats, flags.memcheck);
  if (flags.profile) PrintProfile(*run, profiler);
  if (!flags.metrics_path.empty()) {
    const Status s = ensemble::WriteMetricsJson(
        flags.metrics_path, cli.options, spec->name, *run, &profiler);
    if (!s.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    std::printf("metrics written: %s\n", flags.metrics_path.c_str());
  }
  if (!flags.trace_path.empty()) {
    const Status s = trace.WriteChromeJson(flags.trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", s.ToString().c_str());
      return 2;
    }
    // The dropped count is part of the summary line: a capacity-truncated
    // export must not read as a complete timeline.
    std::printf("trace written: %s (%zu events, %llu dropped)\n",
                flags.trace_path.c_str(), trace.events().size(),
                (unsigned long long)trace.dropped());
    if (trace.dropped() > 0) {
      std::fprintf(stderr,
                   "warning: trace capacity reached — %llu event(s) dropped; "
                   "the exported timeline is incomplete (raise "
                   "--trace-capacity)\n",
                   (unsigned long long)trace.dropped());
    }
  }
  if (flags.memcheck && !run->memcheck.clean()) return 1;
  return run->all_ok() ? 0 : 1;
}
