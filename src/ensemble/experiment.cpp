#include "ensemble/experiment.h"

#include <chrono>
#include <fstream>
#include <mutex>

#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/metrics.h"
#include "gpusim/device.h"
#include "gpusim/profiler.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace dgc::ensemble {
namespace {

Status ValidateConfig(const ExperimentConfig& config) {
  if (config.instance_counts.empty() || config.instance_counts[0] != 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "instance_counts must start with 1 (defines T1)");
  }
  if (!config.args_for_instance) {
    return Status(ErrorCode::kInvalidArgument, "args_for_instance is required");
  }
  return Status::Ok();
}

/// One sweep point on a fresh device. Everything the job touches — device,
/// RPC host, device libc — is local to the call, so points are free to run
/// on concurrent host threads. On success `point` is filled in; a non-OOM
/// failure lands in the returned status and `point` stays not-ran.
Status RunPoint(const ExperimentConfig& config, std::uint32_t n,
                SpeedupPoint& point) {
  point.instances = n;

  // A fresh device per configuration: the paper times independent runs.
  sim::Device device(config.spec);
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};

  EnsembleOptions options;
  options.app = config.app;
  for (std::uint32_t i = 0; i < n; ++i) {
    options.instance_args.push_back(config.args_for_instance(i));
  }
  static_cast<LaunchPolicy&>(options) = config;
  options.thread_limit = config.thread_limit;
  options.teams_per_block = config.teams_per_block;

  // Profiling is point-local (like the device): the profiler only observes
  // this simulation, so sidecars cannot depend on job scheduling.
  sim::Profiler::Options profiler_options;
  if (config.profile_interval != 0) {
    profiler_options.sample_interval = config.profile_interval;
  }
  sim::Profiler profiler(profiler_options);
  if (config.profile) options.profiler = &profiler;

  // Each point parses its own plan: consumption counters must start fresh
  // for every (benchmark × count) so the sweep is byte-identical for any
  // --jobs value.
  sim::FaultPlan plan;
  if (!config.inject_spec.empty()) {
    DGC_ASSIGN_OR_RETURN(plan, sim::FaultPlan::Parse(config.inject_spec));
    options.faults = &plan;
  }

  auto run = RunEnsemble(env, options);
  if (!run.ok()) {
    if (run.status().code() == ErrorCode::kOutOfMemory) {
      point.note = "out of device memory";
      return Status::Ok();
    }
    return run.status();
  }
  bool oom = false;
  for (const dgcf::InstanceResult& inst : run->instances) {
    if (inst.completed && inst.exit_code == dgcf::kExitNoMem) oom = true;
  }
  if (oom) {
    // The paper's Page-Rank case: the configuration does not fit in
    // device memory, so the point is absent from the figure.
    point.note = "out of device memory";
    return Status::Ok();
  }
  if (!run->all_ok()) {
    // A faulting point is an absence in the figure, not a sweep abort:
    // sibling points (and the other series) still measure. The first
    // failure message says why this one is missing.
    point.note = StrFormat(
        "failed: %s",
        run->failures.empty() ? "nonzero exit code" : run->failures[0].c_str());
    return Status::Ok();
  }

  point.ran = true;
  point.cycles = run->kernel_cycles;
  point.stats = run->stats;
  point.peak_mem_bytes = run->device_mem.peak_bytes;
  point.shared_bytes_saved = run->device_mem.shared_bytes_saved;
  if (config.profile) {
    MetricsInfo info;
    info.app = config.app;
    info.device = config.spec.name;
    info.thread_limit = config.thread_limit;
    info.instances = n;
    info.teams_per_block = config.teams_per_block;
    point.metrics_json = FormatMetricsJson(info, *run, &profiler);
  }
  return Status::Ok();
}

}  // namespace

double SpeedupSeries::MaxSpeedup() const {
  double best = 0;
  for (const SpeedupPoint& p : points) {
    if (p.ran) best = std::max(best, p.speedup);
  }
  return best;
}

StatusOr<std::vector<SpeedupSeries>> RunSweeps(
    const std::vector<ExperimentConfig>& configs, const SweepOptions& options) {
  if (configs.empty()) {
    return Status(ErrorCode::kInvalidArgument, "no sweep configurations");
  }
  for (const ExperimentConfig& config : configs) {
    DGC_RETURN_IF_ERROR(ValidateConfig(config));
  }

  // Pre-assign every point its slot so workers never contend on the series
  // vectors and reassembly is by construction in declaration order.
  std::vector<SpeedupSeries> all(configs.size());
  std::vector<std::vector<Status>> statuses(configs.size());
  struct PointJob {
    std::size_t series;
    std::size_t index;
    std::uint32_t instances;
  };
  std::vector<PointJob> flat;
  for (std::size_t s = 0; s < configs.size(); ++s) {
    all[s].app = configs[s].app;
    all[s].thread_limit = configs[s].thread_limit;
    all[s].points.resize(configs[s].instance_counts.size());
    statuses[s].resize(configs[s].instance_counts.size());
    for (std::size_t k = 0; k < configs[s].instance_counts.size(); ++k) {
      flat.push_back({s, k, configs[s].instance_counts[k]});
    }
  }

  std::mutex progress_mutex;  // serializes the observer and its counters
  std::size_t started = 0, finished = 0;
  auto notify = [&](const PointJob& job, SweepPointEvent::Kind kind, bool ran,
                    double wall_seconds) {
    if (!options.progress) return;
    std::lock_guard<std::mutex> lock(progress_mutex);
    SweepPointEvent event;
    event.kind = kind;
    event.app = configs[job.series].app;
    event.thread_limit = configs[job.series].thread_limit;
    event.instances = job.instances;
    event.points_total = flat.size();
    if (kind == SweepPointEvent::Kind::kStarted) ++started;
    else ++finished;
    event.points_started = started;
    event.points_finished = finished;
    event.ran = ran;
    event.wall_seconds = wall_seconds;
    options.progress(event);
  };

  const Status run_status = ParallelFor(
      flat.size(), options.jobs == 0 ? DefaultThreads() : options.jobs,
      [&](std::size_t i) {
        const PointJob& job = flat[i];
        notify(job, SweepPointEvent::Kind::kStarted, false, 0.0);
        const auto t0 = std::chrono::steady_clock::now();
        SpeedupPoint& point = all[job.series].points[job.index];
        statuses[job.series][job.index] =
            RunPoint(configs[job.series], job.instances, point);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        notify(job, SweepPointEvent::Kind::kFinished, point.ran, wall);
      });
  DGC_RETURN_IF_ERROR(run_status);

  // The first failure in declaration order wins — independent of which
  // worker hit it first.
  for (const std::vector<Status>& series_statuses : statuses) {
    for (const Status& status : series_statuses) {
      DGC_RETURN_IF_ERROR(status);
    }
  }

  // Final sequential pass: speedups depend on the series' T1 baseline, so
  // they are resolved only after every point has landed in its slot.
  for (SpeedupSeries& series : all) {
    SpeedupPoint& baseline = series.points[0];  // counts[0] == 1, validated
    if (!baseline.ran) {
      // T1 is undefined: without it every speedup would silently read as
      // 0 (or garbage). Mark the whole series not-ran instead.
      for (std::size_t k = 1; k < series.points.size(); ++k) {
        SpeedupPoint& point = series.points[k];
        point.ran = false;
        point.speedup = 0.0;
        point.note = StrFormat(
            "no 1-instance baseline (%s); speedup undefined",
            baseline.note.empty() ? "did not run" : baseline.note.c_str());
      }
      continue;
    }
    const std::uint64_t t1 = baseline.cycles;
    for (SpeedupPoint& point : series.points) {
      if (!point.ran) continue;
      point.speedup =
          double(t1) * double(point.instances) / double(point.cycles);
    }
  }
  return all;
}

StatusOr<SpeedupSeries> MeasureSpeedup(const ExperimentConfig& config,
                                       const SweepOptions& options) {
  DGC_ASSIGN_OR_RETURN(std::vector<SpeedupSeries> series,
                       RunSweeps({config}, options));
  return std::move(series[0]);
}

std::string FormatSpeedupTable(const std::vector<SpeedupSeries>& series) {
  if (series.empty()) return "(no series)\n";
  std::string out = StrFormat("%-12s", "benchmark");
  for (const SpeedupPoint& p : series[0].points) {
    out += StrFormat(" %8u", p.instances);
  }
  out += "\n";
  out += StrFormat("%-12s", "Linear");
  for (const SpeedupPoint& p : series[0].points) {
    out += StrFormat(" %8u", p.instances);
  }
  out += "\n";
  for (const SpeedupSeries& s : series) {
    out += StrFormat("%-12s", s.app.c_str());
    for (const SpeedupPoint& p : s.points) {
      if (p.ran) {
        out += StrFormat(" %8.2f", p.speedup);
      } else {
        out += StrFormat(" %8s", "-");
      }
    }
    out += "\n";
  }
  return out;
}


std::string FormatSpeedupCsv(const std::vector<SpeedupSeries>& series) {
  std::string out = "benchmark,thread_limit,instances,ran,cycles,speedup\n";
  for (const SpeedupSeries& s : series) {
    for (const SpeedupPoint& p : s.points) {
      if (p.ran) {
        out += StrFormat("%s,%u,%u,1,%llu,%.6f\n", s.app.c_str(),
                         s.thread_limit, p.instances,
                         (unsigned long long)p.cycles, p.speedup);
      } else {
        // Empty fields, not zeros: a skipped point is an absence, and a
        // plotted 0.0 would be indistinguishable from a measurement.
        out += StrFormat("%s,%u,%u,0,,\n", s.app.c_str(), s.thread_limit,
                         p.instances);
      }
    }
  }
  return out;
}

Status WriteSpeedupCsv(const std::vector<SpeedupSeries>& series,
                       const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status(ErrorCode::kInvalidArgument, "cannot write " + path);
  }
  out << FormatSpeedupCsv(series);
  return Status::Ok();
}

}  // namespace dgc::ensemble
