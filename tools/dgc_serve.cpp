// dgc-serve — the long-running ensemble service front end.
//
// Consumes a stream of jobs (one app invocation per line), packs
// compatible jobs into ensemble launches under occupancy + memory
// admission control, and survives bad jobs, overload bursts, and
// shutdown signals with bounded, deterministic behavior:
//
//   dgc-serve --stream jobs.txt --device test -t 32 --queue-cap 8
//   dgc-serve --stream - < jobs.fifo     # follow mode: stdin, SIGTERM drains
//
// With a job-stream file the run is fully replayable: same stream + same
// --chaos seed ⇒ byte-identical outcome log and metrics sidecars, for any
// --jobs value. In follow mode arrival cycles depend on when input shows
// up, so replay determinism applies per-batch, not across the run.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "apps/common.h"
#include "serve/scheduler.h"
#include "serve/stream.h"
#include "support/argparse.h"
#include "support/units.h"

using namespace dgc;

namespace {

volatile std::sig_atomic_t g_drain = 0;

void OnDrainSignal(int) { g_drain = 1; }

/// SIGTERM/SIGINT begin a graceful drain. No SA_RESTART: a blocking
/// poll() on stdin returns EINTR so the follow loop notices promptly.
void InstallDrainHandler() {
  struct sigaction action = {};
  action.sa_handler = OnDrainSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// Follow mode: read stdin incrementally, enqueue each complete batch of
/// lines at the current virtual time, and run the loop dry between reads.
/// An unparseable line becomes an unregistered-app submission so it flows
/// through the normal malformed-rejection path (logged and counted).
int FollowStdin(serve::Scheduler& scheduler) {
  std::string carry;
  bool eof = false;
  while (!eof && g_drain == 0) {
    struct pollfd fd = {0, POLLIN, 0};
    const int ready = poll(&fd, 1, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks g_drain
      break;
    }
    char chunk[4096];
    const ssize_t n = read(0, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
    } else {
      carry.append(chunk, std::size_t(n));
    }
    std::vector<serve::JobRequest> batch;
    auto take_line = [&batch](std::string_view line) {
      auto requests = serve::ParseJobStream(line);
      if (requests.ok()) {
        for (auto& r : *requests) batch.push_back(std::move(r));
      } else {
        std::fprintf(stderr, "dgc-serve: %s\n",
                     requests.status().message().c_str());
        serve::JobRequest bad;
        bad.app = "<unparseable>";
        batch.push_back(std::move(bad));
      }
    };
    std::size_t pos;
    while ((pos = carry.find('\n')) != std::string::npos) {
      take_line(std::string_view(carry).substr(0, pos));
      carry.erase(0, pos + 1);
    }
    if (eof && !carry.empty()) {
      take_line(carry);
      carry.clear();
    }
    scheduler.EnqueueStream(batch);
    const Status run = scheduler.Run();
    if (!run.ok()) {
      std::fprintf(stderr, "dgc-serve: %s\n", run.ToString().c_str());
      return 1;
    }
  }
  if (g_drain != 0) scheduler.RequestDrain();
  const Status run = scheduler.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "dgc-serve: %s\n", run.ToString().c_str());
    return 1;
  }
  return scheduler.WriteReport().ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  apps::RegisterAllApps();

  serve::ServeConfig config;
  config.share_data = true;  // the service default; the library's is off
  bool help = false;
  std::string stream_path, device_name = "a100", chaos_spec, log_path;
  std::uint32_t memory_scale = 512;
  double headroom = config.admission.headroom * 100.0;
  ArgParser parser(
      "Runs a job-stream ensemble service. Each stream line is\n"
      "  [@at=<cycle>] [@deadline=<cycles>] [@prio=<n>] <app> [argv...]\n"
      "--stream - reads stdin in follow mode (SIGTERM/SIGINT drain).\n"
      "Exit status: 0 = every admitted job succeeded; 1 = an admitted job\n"
      "failed, missed its deadline, or exited nonzero; 2 = usage error.");
  parser.AddFlag("help", 'h', "print this help", &help)
      .AddString("stream", 0, "job stream file ('-' = stdin follow mode)",
                 &stream_path, /*required=*/true)
      .AddString("device", 0, "a100, v100, or test", &device_name)
      .AddInt("memory-scale", 0, "device capacity scale divisor",
              &memory_scale, 1)
      .AddInt("devices", 0, "independent device slots", &config.devices, 1)
      .AddInt("jobs", 0,
              "threads for launches that start in the same pass (0 = all "
              "cores; any value, same output)",
              &config.jobs, 0)
      .AddInt("thread-limit", 't', "thread limit per job",
              &config.thread_limit, 1)
      .AddInt("teams-per-block", 'm', "jobs per thread block",
              &config.teams_per_block, 1)
      .AddInt("queue-cap", 0, "bounded queue capacity",
              &config.queue_capacity, 1)
      .AddInt("max-batch", 0, "jobs per launch cap (0 = occupancy cap)",
              &config.admission.max_batch, 0)
      .AddInt("mem-estimate", 0,
              "initial per-job footprint estimate, bytes (observation "
              "tightens it)",
              &config.admission.default_estimate, 1)
      .AddDouble("headroom", 0,
                 "device memory the packer may plan into, percent (0, 100]",
                 &headroom, 0.0, 100.0, /*hi_closed=*/true)
      .AddSwitch("share-data", "share read-only inputs across identical jobs",
                 &config.share_data)
      .AddInt("job-attempts", 0, "service-level attempts per job",
              &config.retry.job_attempts, 1)
      .AddInt("backoff", 0, "retry backoff base cycles, doubles per attempt",
              &config.retry.backoff_base, 0)
      .AddInt("launch-retry", 0, "within-launch retry waves",
              &config.max_attempts, 1)
      .AddInt("retry-shrink", 0, "team-cap divisor per retry wave",
              &config.retry_shrink, 0)
      .AddInt("quarantine-after", 0,
              "consecutive failures that open an app's circuit breaker "
              "(0 = off)",
              &config.breaker.failure_threshold, 0)
      .AddInt("quarantine-cooldown", 0, "breaker cooldown cycles before a probe",
              &config.breaker.cooldown, 0)
      .AddInt("watchdog", 0, "per-launch cycle budget (0 = device default)",
              &config.watchdog_cycles, 0)
      .AddInt("instance-watchdog", 0, "per-job cycle budget cap (0 = off)",
              &config.instance_watchdog_cycles, 0)
      .AddString("chaos", 0,
                 "seeded service-level fault schedule, e.g. "
                 "'seed@7;malformed@3;trap@p10;slow@2.x8'",
                 &chaos_spec)
      .AddInt("drain-at", 0,
              "scripted graceful drain cycle, a deterministic stand-in for "
              "SIGTERM (0 = none)",
              &config.drain_at, 0)
      .AddString("log", 0, "outcome log path (none = stdout)", &log_path)
      .AddString("metrics-json", 0,
                 "one dgc-metrics-v1 sidecar per launch: "
                 "<prefix>.launch<N>.json",
                 &config.metrics_prefix);
  const Status parsed = parser.Parse(argc - 1, argv + 1);
  const auto usage_error = [&parser](const std::string& message) {
    std::fprintf(stderr, "dgc-serve: %s\n\n", message.c_str());
    std::printf("%s", parser.Usage("dgc-serve").c_str());
    return 2;
  };
  if (help) {
    std::printf("%s", parser.Usage("dgc-serve").c_str());
    return 0;
  }
  if (!parsed.ok()) return usage_error(parsed.ToString());
  config.admission.headroom = headroom / 100.0;
  auto spec = sim::DeviceSpec::FromName(device_name, memory_scale);
  if (!spec.ok()) return usage_error(spec.status().ToString());
  config.spec = *spec;
  if (!chaos_spec.empty()) {
    auto chaos = serve::ChaosPlan::Parse(chaos_spec);
    if (!chaos.ok()) return usage_error(chaos.status().ToString());
    config.chaos = *chaos;
  }

  std::ofstream log_file;
  if (!log_path.empty()) {
    log_file.open(log_path, std::ios::binary);
    if (!log_file) {
      std::fprintf(stderr, "dgc-serve: cannot open log: %s\n",
                   log_path.c_str());
      return 2;
    }
    config.log = &log_file;
  } else {
    config.log = &std::cout;
  }

  const bool follow = stream_path == "-";
  InstallDrainHandler();
  config.drain_poll = [] { return g_drain != 0; };

  serve::Scheduler scheduler(std::move(config));
  const Status init = scheduler.Init();
  if (!init.ok()) return usage_error(init.ToString());

  if (follow) return FollowStdin(scheduler);

  // File mode: the stream is validated up front (a parse error is a usage
  // error before any work starts) and replayed deterministically.
  auto requests = serve::LoadJobStream(stream_path);
  if (!requests.ok()) return usage_error(requests.status().ToString());
  scheduler.EnqueueStream(*requests);
  const Status run = scheduler.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "dgc-serve: %s\n", run.ToString().c_str());
    return 1;
  }
  return scheduler.WriteReport().ok() ? 0 : 1;
}
