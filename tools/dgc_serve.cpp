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
#include "support/str.h"
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

int Usage(int code) {
  std::printf(
      "usage: dgc-serve --stream <file> [options]\n"
      "  Runs a job-stream ensemble service: each line of the stream is\n"
      "  [@at=<cycle>] [@deadline=<cycles>] [@prio=<n>] <app> [argv...]\n"
      "  --stream -  reads stdin in follow mode (SIGTERM/SIGINT drain).\n\n"
      "device:\n"
      "  --device <d>           a100 (default), v100, or test\n"
      "  --memory-scale <n>     capacity scale divisor (default 512)\n"
      "  --devices <n>          independent device slots (default 1)\n"
      "  --jobs <n>             the loop thread simulates each launch; up to\n"
      "                         n threads share launches that start in the\n"
      "                         same pass (default 1, 0 = all cores; any\n"
      "                         value, same output)\n\n"
      "packing and admission:\n"
      "  -t <threads>           thread limit per job (default 128)\n"
      "  -m <count>             jobs per thread block (default 1)\n"
      "  --queue-cap <n>        bounded queue capacity (default 16)\n"
      "  --max-batch <n>        jobs per launch cap (0 = occupancy cap)\n"
      "  --mem-estimate <bytes> initial per-job footprint estimate\n"
      "                         (default 1048576; observation tightens it)\n"
      "  --headroom <pct>       device memory the packer may plan into\n"
      "                         (default 90)\n"
      "  --share-data <on|off>  shared read-only inputs across identical\n"
      "                         jobs (default on)\n\n"
      "robustness:\n"
      "  --job-attempts <n>     service-level attempts per job (default 1)\n"
      "  --backoff <cycles>     retry backoff base, doubles per attempt\n"
      "                         (default 4096)\n"
      "  --launch-retry <n>     within-launch retry waves (default 1)\n"
      "  --retry-shrink <n>     team-cap divisor per retry wave (default 2)\n"
      "  --quarantine-after <k> consecutive failures that open an app's\n"
      "                         circuit breaker (default 3; 0 = off)\n"
      "  --quarantine-cooldown <cycles>  breaker cooldown before a probe\n"
      "                         (default 65536)\n"
      "  --watchdog <cycles>    per-launch budget (0 = device default)\n"
      "  --instance-watchdog <cycles>  per-job budget cap (0 = off)\n"
      "  --chaos <spec>         seeded service-level fault schedule, e.g.\n"
      "                         'seed@7;malformed@3;trap@p10;slow@2.x8'\n"
      "  --drain-at <cycle>     scripted graceful drain (deterministic\n"
      "                         stand-in for SIGTERM)\n\n"
      "output:\n"
      "  --log <path>           outcome log sink (default stdout)\n"
      "  --metrics-json <prefix>  one dgc-metrics-v1 sidecar per launch:\n"
      "                         <prefix>.launch<N>.json\n\n"
      "exit status: 0 = every admitted job succeeded; 1 = an admitted job\n"
      "failed, missed its deadline, or exited nonzero; 2 = usage error.\n");
  return code;
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

  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args) {
    if (a == "--help" || a == "-h") return Usage(0);
  }
  if (args.empty()) return Usage(2);

  std::string stream_path;
  std::string device_name = "a100";
  std::int64_t memory_scale = 512;
  std::int64_t devices = 1, jobs = 1;
  std::int64_t thread_limit = 128, teams_per_block = 1;
  std::int64_t queue_cap = 16, max_batch = 0;
  std::int64_t mem_estimate = std::int64_t(1) << 20;
  double headroom = 90.0;
  std::int64_t job_attempts = 1, backoff = 4096;
  std::int64_t launch_retry = 1, retry_shrink = 2;
  std::int64_t quarantine_after = 3, quarantine_cooldown = 65536;
  std::int64_t watchdog = 0, instance_watchdog = 0;
  std::string share_data = "on";
  std::string chaos_spec;
  std::int64_t drain_at = 0;
  std::string log_path, metrics_prefix;

  ArgParser parser("job-stream ensemble service");
  parser.AddString("stream", 0, "job stream file ('-' = stdin follow mode)",
                   &stream_path, /*required=*/true)
      .AddString("device", 0, "a100, v100, or test", &device_name)
      .AddInt("memory-scale", 0, "capacity scale divisor", &memory_scale)
      .AddInt("devices", 0, "independent device slots", &devices)
      .AddInt("jobs", 0, "threads for launches started together", &jobs)
      .AddInt("thread-limit", 't', "thread limit per job", &thread_limit)
      .AddInt("teams-per-block", 'm', "jobs per thread block",
              &teams_per_block)
      .AddInt("queue-cap", 0, "bounded queue capacity", &queue_cap)
      .AddInt("max-batch", 0, "jobs per launch cap (0 = occupancy)",
              &max_batch)
      .AddInt("mem-estimate", 0, "initial per-job footprint estimate",
              &mem_estimate)
      .AddDouble("headroom", 0, "planable device memory, percent", &headroom)
      .AddInt("job-attempts", 0, "service-level attempts per job",
              &job_attempts)
      .AddInt("backoff", 0, "retry backoff base cycles", &backoff)
      .AddInt("launch-retry", 0, "within-launch retry waves", &launch_retry)
      .AddInt("retry-shrink", 0, "team-cap divisor per retry wave",
              &retry_shrink)
      .AddInt("quarantine-after", 0, "failures that open the breaker",
              &quarantine_after)
      .AddInt("quarantine-cooldown", 0, "breaker cooldown cycles",
              &quarantine_cooldown)
      .AddInt("watchdog", 0, "per-launch cycle budget (0 = default)",
              &watchdog)
      .AddInt("instance-watchdog", 0, "per-job cycle budget cap (0 = off)",
              &instance_watchdog)
      .AddString("share-data", 0, "share read-only inputs (on|off)",
                 &share_data)
      .AddString("chaos", 0, "service-level fault schedule", &chaos_spec)
      .AddInt("drain-at", 0, "scripted drain cycle (0 = none)", &drain_at)
      .AddString("log", 0, "outcome log path (default stdout)", &log_path)
      .AddString("metrics-json", 0, "per-launch metrics sidecar prefix",
                 &metrics_prefix);
  const Status parsed = parser.Parse(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "dgc-serve: %s\n\n", parsed.ToString().c_str());
    return Usage(2);
  }
  if (devices <= 0 || jobs < 0 || thread_limit <= 0 || teams_per_block <= 0 ||
      queue_cap <= 0 || max_batch < 0 || mem_estimate <= 0 ||
      job_attempts <= 0 || backoff < 0 || launch_retry <= 0 ||
      retry_shrink < 0 || quarantine_after < 0 || quarantine_cooldown < 0 ||
      watchdog < 0 || instance_watchdog < 0 || drain_at < 0 ||
      headroom <= 0.0 || headroom > 100.0) {
    std::fprintf(stderr, "dgc-serve: flag out of range\n\n");
    return Usage(2);
  }
  if (share_data != "on" && share_data != "off") {
    std::fprintf(stderr, "dgc-serve: --share-data must be 'on' or 'off'\n\n");
    return Usage(2);
  }

  serve::ServeConfig config;
  auto spec = sim::DeviceSpec::FromName(device_name, memory_scale);
  if (!spec.ok()) {
    std::fprintf(stderr, "dgc-serve: %s\n\n", spec.status().ToString().c_str());
    return Usage(2);
  }
  config.spec = *spec;
  config.thread_limit = std::uint32_t(thread_limit);
  config.teams_per_block = std::uint32_t(teams_per_block);
  config.devices = std::uint32_t(devices);
  config.jobs = unsigned(jobs);
  config.queue_capacity = std::size_t(queue_cap);
  config.admission.max_batch = std::uint32_t(max_batch);
  config.admission.default_estimate = std::uint64_t(mem_estimate);
  config.admission.headroom = headroom / 100.0;
  config.retry.job_attempts = std::uint32_t(job_attempts);
  config.retry.backoff_base = std::uint64_t(backoff);
  config.breaker.failure_threshold = std::uint32_t(quarantine_after);
  config.breaker.cooldown = std::uint64_t(quarantine_cooldown);
  config.max_attempts = std::uint32_t(launch_retry);
  config.retry_shrink = std::uint32_t(retry_shrink);
  config.watchdog_cycles = std::uint64_t(watchdog);
  config.instance_watchdog_cycles = std::uint64_t(instance_watchdog);
  config.share_data = share_data == "on";
  config.drain_at = std::uint64_t(drain_at);
  config.metrics_prefix = metrics_prefix;
  if (!chaos_spec.empty()) {
    auto chaos = serve::ChaosPlan::Parse(chaos_spec);
    if (!chaos.ok()) {
      std::fprintf(stderr, "dgc-serve: %s\n\n",
                   chaos.status().ToString().c_str());
      return Usage(2);
    }
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
  if (!init.ok()) {
    std::fprintf(stderr, "dgc-serve: %s\n\n", init.ToString().c_str());
    return Usage(2);
  }

  if (follow) return FollowStdin(scheduler);

  // File mode: the stream is validated up front (a parse error is a usage
  // error before any work starts) and replayed deterministically.
  auto requests = serve::LoadJobStream(stream_path);
  if (!requests.ok()) {
    std::fprintf(stderr, "dgc-serve: %s\n\n",
                 requests.status().ToString().c_str());
    return Usage(2);
  }
  scheduler.EnqueueStream(*requests);
  const Status run = scheduler.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "dgc-serve: %s\n", run.ToString().c_str());
    return 1;
  }
  return scheduler.WriteReport().ok() ? 0 : 1;
}
