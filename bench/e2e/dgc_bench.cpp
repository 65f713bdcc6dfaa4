// dgc-bench: the repository's end-to-end benchmark (see README.md beside
// this file; the workloads, metrics and bounds are pinned in BENCHMARK.json
// at the repository root).
//
//   dgc-bench --workload <name> --seed S --seconds T --trace 0|1
//             [--out result.json] [--spans spans.json] [--smoke]
//
// One process runs one workload: inputs generated from --seed, a few timed
// set-ups, then operations for --seconds of host time. Every output is
// checked (each app verifies against its host reference; sweeps and serve
// replays must repeat byte-identically). The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Per-layer
// host times come from spans dgc-bench records around its calls into each
// library's public functions; counts come from the results those calls
// return. It only calls public headers and uses default engine
// settings throughout (it never sets launch_threads).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/loader.h"
#include "dgcf/rpc.h"
#include "ensemble/argfile.h"
#include "ensemble/experiment.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "serve/scheduler.h"
#include "serve/stream.h"
#include "support/argparse.h"
#include "support/rng.h"
#include "support/str.h"

#ifndef DGC_BENCH_BUILD_TYPE
#define DGC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DGC_BENCH_COMPILER
#define DGC_BENCH_COMPILER "unknown"
#endif

using namespace dgc;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 9;                    ///< set-ups per run (median)
constexpr std::uint64_t kSeedStride = 1000000;  ///< launch seed space per --seed
constexpr std::uint64_t kDigestLaunches = 10;   ///< launches folded into the digest
constexpr double kMiB = 1024.0 * 1024.0;
/// Turnaround charged to a job that did not succeed: it missed every limit.
constexpr double kMissedKcycles = 1e12;

/// Folds any --seed >= 0 into 1..kSeedStride, the range whose launch seed
/// spaces do not overlap. Seeds 1..kSeedStride map to themselves (seed 1
/// is the committed Fig. 6 inputs); 0 maps to kSeedStride.
std::uint64_t SeedIndex(std::int64_t seed) {
  return (std::uint64_t(seed) + kSeedStride - 1) % kSeedStride + 1;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const double frac = pos - double(lo);
  if (frac == 0.0 || lo + 1 >= v.size()) return v[lo];
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// FNV-1a over the simulated outputs, in op order: the stat-neutrality
/// digest. Two commits with equal digests simulated identical results.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (char c : bytes) {
      h_ ^= std::uint8_t(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= std::uint8_t(v >> (8 * i));
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void AddStats(Digest& digest, const sim::LaunchStats& s) {
  for (std::uint64_t v :
       {s.warp_instructions, s.compute_instructions, s.load_instructions,
        s.store_instructions, s.atomic_instructions, s.external_calls,
        s.barrier_arrivals, s.divergent_replays, s.global_sectors,
        s.ideal_sectors, s.l1_hits, s.l1_misses, s.l2_hits, s.l2_misses,
        s.dram_bytes, s.dram_row_hits, s.dram_row_misses, s.smem_accesses,
        s.smem_bank_conflicts, s.dram_queue_cycles, s.l2_queue_cycles,
        s.barrier_stall_cycles, s.compute_cycles_issued, s.elapsed_cycles,
        s.blocks_launched, s.memcheck_findings, s.lane_traps,
        s.watchdog_traps}) {
    digest.Add(v);
  }
}

// ---------------------------------------------------------------------------
// Spans

/// Spans recorded around dgc-bench's calls into the libraries: name,
/// start, end, parent and op id. Kept in memory and written at exit. When
/// disabled every call returns at once, so untraced runs pay a branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string detail;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  /// Opens a span under the calling thread's innermost open span; a child
  /// inherits its parent's op id. Returns the span id, -1 when disabled.
  int Begin(const char* name, std::uint64_t op) {
    if (!enabled_) return -1;
    std::vector<int>& open = OpenSpans();
    const int parent = open.empty() ? -1 : open.back();
    const std::int64_t now = Now();
    int id;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (parent >= 0) op = spans_[std::size_t(parent)].op;
      spans_.push_back({name, {}, now, now, parent, op});
      id = int(spans_.size() - 1);
    }
    open.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    const std::int64_t now = Now();
    OpenSpans().pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[std::size_t(id)].end_ns = now;
  }

  /// Records a span timed elsewhere (sweep points, which run on pool
  /// workers) under an explicit parent.
  void Add(const char* name, std::string detail, std::int64_t start,
           std::int64_t end, int parent) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t op = parent >= 0 ? spans_[std::size_t(parent)].op : 0;
    spans_.push_back({name, std::move(detail), start, end, parent, op});
  }

  /// Durations in ms of every span named `name`.
  std::vector<double> DurationsMs(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(double(s.end_ns - s.start_ns) / 1e6);
    }
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Total and self time (duration minus the union of its children's
  /// intervals) per span name, in ms.
  struct NameTotals {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, NameTotals> Totals() const;

  bool Write(const std::string& path) const;

 private:
  /// The calling thread's open spans, innermost last.
  static std::vector<int>& OpenSpans() {
    static thread_local std::vector<int> open;
    return open;
  }

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[std::size_t(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, reach = spans_[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    NameTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ms += double(duration) / 1e6;
    t.self_ms += double(duration - covered) / 1e6;
  }
  return totals;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"schema\": \"dgc-bench-spans-v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << StrFormat(
        "  {\"id\": %zu, \"name\": \"%s\", \"detail\": \"%s\", "
        "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, \"op\": %llu}%s\n",
        i, s.name.c_str(), s.detail.c_str(), (long long)s.start_ns,
        (long long)s.end_ns, s.parent, (unsigned long long)s.op,
        i + 1 == spans_.size() ? "" : ",");
  }
  out << "]}\n";
  return bool(out);
}

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op = 0)
      : tracer_(tracer), id_(tracer.Begin(name, op)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

// ---------------------------------------------------------------------------
// Run options and results

struct Options {
  std::uint64_t seed = 1;
  double seconds = 0;
  bool smoke = false;
  /// Operations the measured phase runs regardless of the time budget.
  std::size_t min_ops = 1;
};

/// Whether the measured phase starts another operation: always until
/// `min_ops` ran, then only while one more, as long as the last, still fits
/// the budget.
bool Continue(const Options& opt, std::size_t done, double elapsed,
              double last) {
  return done < opt.min_ops || elapsed + last <= opt.seconds;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed output checks
  std::uint64_t digest = 0;
  unsigned host_threads = 1;
  std::vector<double> setup_s;  ///< one per set-up
  std::vector<double> op_ms;    ///< host latency of each measured operation
  double measured_s = 0;        ///< wall time of the measured phase
  double ops_per_s = 0;         ///< operations completed per second
  std::map<std::string, double> exact;  ///< deterministic model outputs
  std::map<std::string, double> host;   ///< per-layer host costs (traced)
};

/// The per-layer metrics, in output order. A workload that does not
/// exercise a layer reports 0 for it.
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kLayerMetrics[] = {
    {"gpusim.host_ns_per_sector", "ns"},
    {"gpusim.host_ns_per_warp_instr", "ns"},
    {"gpusim.minstr_per_s", "Minstr/s"},
    {"gpusim.device_init_ms", "ms"},
    {"apps.reference_ms", "ms"},
    {"ensemble.argfile_parse_us", "us"},
    {"ensemble.run_ms_p50", "ms"},
    {"dgcf.single_ms", "ms"},
    {"ensemble.sweep_s", "s"},
    {"ensemble.sweep.point_s_max", "s"},
    {"ensemble.sweep.pool_util", "ratio"},
    {"ensemble.sweep.point_s.xsbench", "s"},
    {"ensemble.sweep.point_s.rsbench", "s"},
    {"ensemble.sweep.point_s.amgmk", "s"},
    {"ensemble.sweep.point_s.pagerank", "s"},
    {"ensemble.sweep.points_ran", "count"},
    {"ensemble.paper_err_pct", "%"},
    {"ensemble.speedup64.xsbench.tl32", "x"},
    {"ensemble.speedup64.xsbench.tl1024", "x"},
    {"ensemble.speedup64.rsbench.tl32", "x"},
    {"ensemble.speedup64.rsbench.tl1024", "x"},
    {"ensemble.speedup64.amgmk.tl32", "x"},
    {"ensemble.speedup64.amgmk.tl1024", "x"},
    {"dgcf.device_mem_peak_mib", "MiB"},
    {"serve.parse_ms", "ms"},
    {"serve.init_ms", "ms"},
    {"serve.run_s", "s"},
    {"serve.host_ms_per_launch", "ms"},
    {"serve.job_host_ms_p50", "ms"},
    {"serve.job_host_ms_p90", "ms"},
    {"serve.launches", "count"},
    {"serve.jobs_per_launch", "count"},
    {"serve.device_busy_frac", "ratio"},
    {"serve.peak_queue_depth", "count"},
    {"serve.shared_attaches", "count"},
    {"serve.wait_kcycles_p50", "kcycles"},
    {"serve.wait_kcycles_p99", "kcycles"},
    {"serve.service_kcycles_p50", "kcycles"},
    {"serve.service_kcycles_p99", "kcycles"},
    {"serve.turnaround_kcycles_p50", "kcycles"},
    {"serve.turnaround_kcycles_p99", "kcycles"},
    {"gpusim.warp_instr", "count"},
    {"gpusim.sectors_per_mem_instr", "ratio"},
    {"gpusim.coalescing_eff", "ratio"},
    {"gpusim.l1_hit_rate", "ratio"},
    {"gpusim.l2_hit_rate", "ratio"},
    {"gpusim.dram_row_hit_rate", "ratio"},
    {"gpusim.dram_mib", "MiB"},
    {"gpusim.dram_queue_kcycles", "kcycles"},
    {"gpusim.l2_queue_kcycles", "kcycles"},
    {"gpusim.barrier_stall_kcycles", "kcycles"},
    {"gpusim.divergent_replays", "count"},
    {"gpusim.smem_bank_conflicts", "count"},
    {"gpusim.kernel_kcycles_p50", "kcycles"},
    {"trace_overhead_pct", "%"},
};

/// Exact model counts per launch (per sweep point), from summed stats.
void AddModelCounts(std::map<std::string, double>& m,
                    const sim::LaunchStats& total, double launches) {
  const double mem_instr = double(total.load_instructions +
                                  total.store_instructions +
                                  total.atomic_instructions);
  m["gpusim.warp_instr"] = Ratio(double(total.warp_instructions), launches);
  m["gpusim.sectors_per_mem_instr"] =
      Ratio(double(total.global_sectors), mem_instr);
  m["gpusim.coalescing_eff"] = total.CoalescingEfficiency();
  m["gpusim.l1_hit_rate"] = total.L1HitRate();
  m["gpusim.l2_hit_rate"] = total.L2HitRate();
  m["gpusim.dram_row_hit_rate"] = total.DramRowHitRate();
  m["gpusim.dram_mib"] = Ratio(double(total.dram_bytes) / kMiB, launches);
  m["gpusim.dram_queue_kcycles"] =
      Ratio(double(total.dram_queue_cycles) / 1e3, launches);
  m["gpusim.l2_queue_kcycles"] =
      Ratio(double(total.l2_queue_cycles) / 1e3, launches);
  m["gpusim.barrier_stall_kcycles"] =
      Ratio(double(total.barrier_stall_cycles) / 1e3, launches);
  m["gpusim.divergent_replays"] =
      Ratio(double(total.divergent_replays), launches);
  m["gpusim.smem_bank_conflicts"] =
      Ratio(double(total.smem_bank_conflicts), launches);
}

// The paper's testbed at the harness scale (bench/fig6_common.h), which is
// also dgc-run's and dgc-serve's default device.
sim::DeviceSpec Spec() { return sim::DeviceSpec::A100_40GB(512); }

/// One device with its RPC host and libc, as every loader run needs.
struct DeviceEnv {
  explicit DeviceEnv(const sim::DeviceSpec& spec)
      : device(spec), rpc(device), libc(device) {}
  sim::Device device;
  dgcf::RpcHost rpc;
  dgcf::DeviceLibc libc;
  dgcf::AppEnv env{&device, &rpc, &libc};
};

std::unique_ptr<DeviceEnv> BuildDevice(Tracer& tracer) {
  ScopedSpan span(tracer, "gpusim.device_init");
  return std::make_unique<DeviceEnv>(Spec());
}

/// Returns freed heap memory to the system after an operation. Pool and
/// replica threads allocate from per-thread heaps, so without this the
/// memory one operation freed on one thread stays resident while the next
/// allocates on another, and peak_rss_mib would measure allocator history
/// rather than one operation's footprint.
void ReleaseFreeMemory() { malloc_trim(0); }

std::vector<std::string> AppArgs(const char* flags, std::uint64_t seed) {
  std::vector<std::string> args;
  for (std::string_view token : SplitWhitespace(flags)) {
    args.emplace_back(token);
  }
  args.push_back("-s");
  args.push_back(StrFormat("%llu", (unsigned long long)seed));
  return args;
}

std::string FirstFailure(const dgcf::RunResult& run) {
  if (!run.failures.empty()) return run.failures[0];
  for (std::size_t i = 0; i < run.instances.size(); ++i) {
    const dgcf::InstanceResult& r = run.instances[i];
    if (!r.completed || r.exit_code != 0) {
      return StrFormat("instance %zu: %s exit=%d", i,
                       std::string(dgcf::ToString(r.reason)).c_str(),
                       r.exit_code);
    }
  }
  return "no instances";
}

// ---------------------------------------------------------------------------
// launch-*: closed loop, `dgc-run`-style launches back to back.

struct LaunchShape {
  const char* app;
  const char* flags;  ///< instance flags before `-s <seed>`
  std::uint32_t instances;
  std::uint32_t thread_limit;
};

/// Argument file of launch `index`: every instance of every launch gets a
/// seed of its own, so host-reference verification is paid on each launch.
std::string Argfile(const LaunchShape& shape, std::uint64_t base,
                    std::uint64_t index) {
  std::string text;
  for (std::uint32_t i = 0; i < shape.instances; ++i) {
    text += StrFormat("%s -s %llu\n", shape.flags,
                      (unsigned long long)(base + index * shape.instances +
                                           i + 1));
  }
  return text;
}

/// One launch: parse the argument file, build a fresh device, run the
/// ensemble.
StatusOr<dgcf::RunResult> LaunchOnce(const LaunchShape& shape,
                                     const std::string& argfile,
                                     const char* run_span, Tracer& tracer) {
  StatusOr<std::vector<std::vector<std::string>>> args = [&] {
    ScopedSpan span(tracer, "ensemble.ParseArgumentLines");
    return ensemble::ParseArgumentLines(argfile);
  }();
  if (!args.ok()) return args.status();
  const std::unique_ptr<DeviceEnv> dev = BuildDevice(tracer);
  ensemble::EnsembleOptions options;
  options.app = shape.app;
  options.instance_args = std::move(*args);
  options.thread_limit = shape.thread_limit;
  ScopedSpan span(tracer, run_span);
  return ensemble::RunEnsemble(dev->env, options);
}

/// What one measured launch left behind.
struct LaunchOp {
  std::uint64_t index = 0;  ///< fresh-seed launch index; 0 = warm-up seeds
  double ms = 0;            ///< host latency
  std::string problem;      ///< failed check, if any
  sim::LaunchStats stats;
  std::uint64_t kernel_cycles = 0;
  std::uint64_t mem_peak = 0;
};

LaunchOp RunLaunchOp(const LaunchShape& shape, std::uint64_t base,
                     std::size_t k, std::uint64_t index, Tracer& tracer) {
  LaunchOp op;
  op.index = index;
  const auto t = Clock::now();
  ScopedSpan span(tracer, "op", k);
  auto run = LaunchOnce(shape, Argfile(shape, base, index),
                        index == 0 ? "ensemble.RunEnsemble.repeat"
                                   : "ensemble.RunEnsemble",
                        tracer);
  if (!run.ok() || !run->all_ok()) {
    op.problem = StrFormat(
        "launch %zu: %s", k,
        (run.ok() ? FirstFailure(*run) : run.status().ToString()).c_str());
  } else {
    op.stats = run->stats;
    op.kernel_cycles = run->kernel_cycles;
    op.mem_peak = run->device_mem.peak_bytes;
  }
  if (tracer.enabled() && index != 0) {
    // The single-instance loader on instance 0's input (the paper's T1).
    const std::unique_ptr<DeviceEnv> dev = BuildDevice(tracer);
    dgcf::SingleRunOptions single;
    single.app = shape.app;
    single.args = AppArgs(shape.flags, base + index * shape.instances + 1);
    single.thread_limit = shape.thread_limit;
    ScopedSpan single_span(tracer, "dgcf.RunSingleInstance");
    auto one = dgcf::RunSingleInstance(dev->env, single);
    if (op.problem.empty() && (!one.ok() || !one->all_ok())) {
      op.problem = StrFormat("single instance of launch %zu failed", k);
    }
  }
  op.ms = SecondsSince(t) * 1e3;
  return op;
}

Outcome RunLaunch(const Options& opt, const LaunchShape& shape,
                  Tracer& tracer) {
  Outcome out;
  const std::uint64_t base = (opt.seed - 1) * kSeedStride;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    ScopedSpan setup(tracer, "setup", std::uint64_t(i));
    auto run = LaunchOnce(shape, Argfile(shape, base, 0),
                          "ensemble.RunEnsemble.warmup", tracer);
    if (!run.ok() || !run->all_ok()) {
      out.problems.push_back(
          "warm-up launch failed: " +
          (run.ok() ? FirstFailure(*run) : run.status().ToString()));
    }
    out.setup_s.push_back(SecondsSince(t0));
  }

  // Closed loop with one client per core (up to 4), each running launches
  // back to back. One client would measure whichever core the scheduler
  // gave it; on a shared host those differ by up to 1.5x, so a run's
  // median would depend on placement more than on the code.
  const unsigned clients =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  out.host_threads = clients;
  std::mutex mutex;
  std::vector<LaunchOp> ops;  // guarded by mutex
  std::atomic<std::size_t> started{0};
  std::atomic<std::uint64_t> fresh{0};
  const auto t0 = Clock::now();
  auto client = [&] {
    double last = 0;
    for (;;) {
      const std::size_t k = started.fetch_add(1);
      if (!Continue(opt, k, SecondsSince(t0), last)) return;
      // Traced runs interleave launches that repeat the warm-up's seeds:
      // their host references are memoized, so the gap between the two
      // medians is what the reference check costs.
      const bool repeat = tracer.enabled() && k % 2 == 1;
      const std::uint64_t index = repeat ? 0 : fresh.fetch_add(1) + 1;
      LaunchOp op = RunLaunchOp(shape, base, k, index, tracer);
      last = op.ms / 1e3;
      std::lock_guard<std::mutex> lock(mutex);
      ops.push_back(std::move(op));
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  out.measured_s = SecondsSince(t0);
  out.ops_per_s = Ratio(double(ops.size()), out.measured_s);

  // Fold results in launch-index order, so the digest and the exact counts
  // do not depend on which client ran which launch.
  std::sort(ops.begin(), ops.end(), [](const LaunchOp& a, const LaunchOp& b) {
    return a.index < b.index;
  });
  Digest digest;
  sim::LaunchStats digest_stats;  // the launches folded into the digest
  sim::LaunchStats fresh_stats;   // every fresh-seed launch
  std::vector<double> kernel_kcycles;
  double mem_peak = 0;
  for (const LaunchOp& op : ops) {
    ++out.attempted;
    out.op_ms.push_back(op.ms);
    if (!op.problem.empty()) {
      ++out.failed;
      out.problems.push_back(op.problem);
      continue;
    }
    if (op.index == 0) continue;
    fresh_stats.AccumulateSequential(op.stats);
    if (op.index > kDigestLaunches) continue;
    AddStats(digest, op.stats);
    digest.Add(op.kernel_cycles);
    digest_stats.AccumulateSequential(op.stats);
    kernel_kcycles.push_back(double(op.kernel_cycles) / 1e3);
    mem_peak = std::max(mem_peak, double(op.mem_peak));
  }
  out.digest = digest.value();

  AddModelCounts(out.exact, digest_stats, double(kernel_kcycles.size()));
  out.exact["gpusim.kernel_kcycles_p50"] = Median(kernel_kcycles);
  out.exact["dgcf.device_mem_peak_mib"] = mem_peak / kMiB;

  if (tracer.enabled()) {
    const std::vector<double> fresh_ms =
        tracer.DurationsMs("ensemble.RunEnsemble");
    const double fresh_ns = Sum(fresh_ms) * 1e6;
    out.host["ensemble.run_ms_p50"] = Median(fresh_ms);
    out.host["apps.reference_ms"] =
        Median(fresh_ms) -
        Median(tracer.DurationsMs("ensemble.RunEnsemble.repeat"));
    out.host["gpusim.host_ns_per_sector"] =
        Ratio(fresh_ns, double(fresh_stats.global_sectors));
    out.host["gpusim.host_ns_per_warp_instr"] =
        Ratio(fresh_ns, double(fresh_stats.warp_instructions));
    out.host["gpusim.minstr_per_s"] =
        Ratio(double(fresh_stats.warp_instructions) / 1e3, fresh_ns / 1e6);
    out.host["gpusim.device_init_ms"] =
        Median(tracer.DurationsMs("gpusim.device_init"));
    out.host["ensemble.argfile_parse_us"] =
        Median(tracer.DurationsMs("ensemble.ParseArgumentLines")) * 1e3;
    out.host["dgcf.single_ms"] =
        Median(tracer.DurationsMs("dgcf.RunSingleInstance"));
  }
  return out;
}

// ---------------------------------------------------------------------------
// sweep-fig6: both Fig. 6 panels as one RunSweeps pool (bench/fig6*).

struct SweepSeries {
  const char* app;
  const char* flags;
  std::vector<std::uint32_t> counts;
};

/// Series in descending host cost of their largest point. The pool takes
/// points in this order and each series runs its counts in ascending order,
/// so the expensive points start first and the sweep ends on cheap ones: its
/// wall time then follows the total work spread over every worker, not one
/// big point that started late on whichever core it got.
std::vector<SweepSeries> Fig6Series(bool smoke) {
  if (smoke) {
    return {{"rsbench", "-u 6 -w 4 -l 64", {1, 2, 4}},
            {"pagerank", "-g 20000 -d 8", {1, 2}},
            {"xsbench", "-i 6 -g 32 -l 64", {1, 2, 4}},
            {"amgmk", "-x 6 -y 6 -z 6", {1, 2, 4}}};
  }
  return {{"rsbench", "-u 24 -w 16 -p 8 -l 2048", {1, 2, 4, 8, 16, 32, 64}},
          {"pagerank", "-g 200000 -d 10", {1, 2, 4, 8}},
          {"xsbench", "-i 24 -g 256 -l 2048", {1, 2, 4, 8, 16, 32, 64}},
          {"amgmk", "-x 14 -y 14 -z 14", {1, 2, 4, 8, 16, 32, 64}}};
}

/// Seed S gives instance i the seed (S-1)*1000+i+1, so S=1 is exactly the
/// committed fig6a/fig6b harness (same points; the series come in cost
/// order, thread limit 1024 first). `baseline_only` keeps just the
/// 1-instance points (the set-up's warm-up sweep).
std::vector<ensemble::ExperimentConfig> SweepConfigs(const Options& opt,
                                                     bool baseline_only) {
  const std::uint64_t base = (opt.seed - 1) * 1000;
  std::vector<ensemble::ExperimentConfig> configs;
  for (std::uint32_t tl : {1024u, 32u}) {
    for (const SweepSeries& s : Fig6Series(opt.smoke)) {
      ensemble::ExperimentConfig cfg;
      cfg.app = s.app;
      const char* flags = s.flags;
      cfg.args_for_instance = [flags, base](std::uint32_t i) {
        return AppArgs(flags, base + i + 1);
      };
      cfg.instance_counts =
          baseline_only ? std::vector<std::uint32_t>{1} : s.counts;
      cfg.thread_limit = tl;
      cfg.spec = Spec();
      configs.push_back(std::move(cfg));
    }
  }
  return configs;
}

/// Speedup at the series' largest instance count (64 at fig6 scale).
double TopSpeedup(const ensemble::SpeedupSeries& s) {
  return s.points.empty() ? 0.0 : s.points.back().speedup;
}

/// Fills the sweep's exact metrics; returns the stats summed over the
/// points that ran.
sim::LaunchStats AddSweepExact(std::map<std::string, double>& m,
                               const std::vector<ensemble::SpeedupSeries>& all) {
  sim::LaunchStats total;
  std::vector<double> kernel_kcycles;
  double ran = 0, mem_peak = 0, best32 = 0, amgmk1024 = 0;
  for (const ensemble::SpeedupSeries& s : all) {
    for (const ensemble::SpeedupPoint& p : s.points) {
      if (!p.ran) continue;
      ++ran;
      total.AccumulateSequential(p.stats);
      kernel_kcycles.push_back(double(p.cycles) / 1e3);
      mem_peak = std::max(mem_peak, double(p.peak_mem_bytes));
    }
    if (s.app != "pagerank") {
      m[StrFormat("ensemble.speedup64.%s.tl%u", s.app.c_str(),
                  s.thread_limit)] = TopSpeedup(s);
    }
    if (s.thread_limit == 32) best32 = std::max(best32, TopSpeedup(s));
    if (s.thread_limit == 1024 && s.app == "amgmk") amgmk1024 = TopSpeedup(s);
  }
  AddModelCounts(m, total, ran);
  m["gpusim.kernel_kcycles_p50"] = Median(kernel_kcycles);
  m["ensemble.sweep.points_ran"] = ran;
  m["dgcf.device_mem_peak_mib"] = mem_peak / kMiB;
  // The paper's two anchors: up to 51X at thread limit 32 (Fig. 6a) and
  // AMGmk's 21X at thread limit 1024 (Fig. 6b).
  m["ensemble.paper_err_pct"] =
      50.0 * (std::fabs(best32 - 51.0) / 51.0 +
              std::fabs(amgmk1024 - 21.0) / 21.0);
  return total;
}

Outcome RunSweep(const Options& opt, Tracer& tracer) {
  Outcome out;
  const unsigned jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  out.host_threads = jobs;
  std::vector<ensemble::ExperimentConfig> configs;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    ScopedSpan setup(tracer, "setup", std::uint64_t(i));
    configs = SweepConfigs(opt, /*baseline_only=*/false);
    BuildDevice(tracer);  // the device-construction probe
    ensemble::SweepOptions warm;
    warm.jobs = jobs;
    ScopedSpan span(tracer, "ensemble.RunSweeps.warmup");
    if (!ensemble::RunSweeps(SweepConfigs(opt, true), warm).ok()) {
      out.problems.push_back("warm-up sweep failed");
    }
    out.setup_s.push_back(SecondsSince(t0));
  }

  std::string first_csv;
  sim::LaunchStats sweep_stats;  // one sweep's points that ran
  std::map<std::string, double> app_wall_s;
  std::vector<double> point_ms;  // as timed by RunSweeps
  std::size_t sweeps = 0;
  const auto t0 = Clock::now();
  double last = 0;
  for (; Continue(opt, sweeps, SecondsSince(t0), last); ++sweeps) {
    const auto t = Clock::now();
    ScopedSpan op(tracer, "op", sweeps);
    StatusOr<std::vector<ensemble::SpeedupSeries>> series = [&] {
      ScopedSpan span(tracer, "ensemble.RunSweeps");
      std::map<std::string, std::int64_t> started;
      ensemble::SweepOptions options;
      options.jobs = jobs;
      // Invocations are serialized; this thread waits inside RunSweeps.
      options.progress = [&](const ensemble::SweepPointEvent& e) {
        const std::string key = StrFormat("%s tl=%u n=%u", e.app.c_str(),
                                          e.thread_limit, e.instances);
        if (e.kind == ensemble::SweepPointEvent::Kind::kStarted) {
          started[key] = tracer.Now();
          return;
        }
        point_ms.push_back(e.wall_seconds * 1e3);
        app_wall_s[e.app] += e.wall_seconds;
        tracer.Add("ensemble.sweep.point", key, started[key], tracer.Now(),
                   span.id());
      };
      return ensemble::RunSweeps(configs, options);
    }();
    last = SecondsSince(t);
    out.op_ms.push_back(last * 1e3);
    ReleaseFreeMemory();
    if (!series.ok()) {
      out.problems.push_back("sweep failed: " + series.status().ToString());
      continue;
    }
    for (const ensemble::SpeedupSeries& s : *series) {
      for (const ensemble::SpeedupPoint& p : s.points) {
        ++out.attempted;
        // Page-Rank past 4 instances exceeds device memory (§4.3); every
        // other point must run with every instance verified.
        const bool expect = !(s.app == "pagerank" && p.instances > 4);
        if (p.ran != expect) {
          ++out.failed;
          out.problems.push_back(StrFormat(
              "%s tl=%u n=%u: ran=%d, expected %d (%s)", s.app.c_str(),
              s.thread_limit, p.instances, p.ran, expect, p.note.c_str()));
        }
      }
    }
    const std::string csv = ensemble::FormatSpeedupCsv(*series);
    if (first_csv.empty()) {
      first_csv = csv;
      Digest digest;
      digest.Add(csv);
      out.digest = digest.value();
      sweep_stats = AddSweepExact(out.exact, *series);
    } else if (csv != first_csv) {
      out.problems.push_back("sweep output differs between repeats");
    }
  }
  out.measured_s = SecondsSince(t0);
  out.ops_per_s = Ratio(double(sweeps), out.measured_s);

  if (tracer.enabled() && !point_ms.empty()) {
    const std::vector<double> sweep_ms = tracer.DurationsMs("ensemble.RunSweeps");
    const double point_ns = Sum(point_ms) * 1e6;
    const double n = double(sweeps);
    out.host["ensemble.sweep_s"] = Median(sweep_ms) / 1e3;
    out.host["ensemble.sweep.point_s_max"] =
        *std::max_element(point_ms.begin(), point_ms.end()) / 1e3;
    out.host["ensemble.sweep.pool_util"] =
        Ratio(Sum(point_ms), double(jobs) * Sum(sweep_ms));
    for (const char* app : {"xsbench", "rsbench", "amgmk", "pagerank"}) {
      out.host[StrFormat("ensemble.sweep.point_s.%s", app)] =
          app_wall_s[app] / n;
    }
    out.host["ensemble.run_ms_p50"] = Median(point_ms);
    // Point wall time covers device set-up, the launch and the reference
    // check, like one launch of the launch-* workloads.
    const double instr = double(sweep_stats.warp_instructions) * n;
    out.host["gpusim.host_ns_per_sector"] =
        Ratio(point_ns, double(sweep_stats.global_sectors) * n);
    out.host["gpusim.host_ns_per_warp_instr"] = Ratio(point_ns, instr);
    out.host["gpusim.minstr_per_s"] = Ratio(instr / 1e3, point_ns / 1e6);
    out.host["gpusim.device_init_ms"] =
        Median(tracer.DurationsMs("gpusim.device_init"));
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve-mixed: an open-loop job stream in virtual time through dgc-serve's
// scheduler, replayed with a fresh Scheduler until the budget is spent.

struct ServeApp {
  const char* app;
  const char* flags;
};
constexpr ServeApp kServeApps[] = {{"xsbench", "-i 6 -g 32 -l 64"},
                                   {"rsbench", "-u 6 -w 4 -l 64"},
                                   {"amgmk", "-x 6 -y 6 -z 6"},
                                   {"pagerank", "-g 2000 -d 8"}};
constexpr std::uint64_t kServeMeanGap = 20000;     ///< cycles between arrivals
constexpr std::uint64_t kServeDeadline = 1000000;  ///< @deadline budget

std::uint32_t ServeJobs(const Options& opt) { return opt.smoke ? 40 : 1500; }
std::uint32_t ServeWarmupJobs(const Options& opt) {
  return opt.smoke ? 8 : 64;
}

/// Poisson arrivals; apps drawn uniformly at small sizes with seeds from a
/// pool of 8 per app (repeats exercise shared-segment attach); 20% of jobs
/// carry a deadline, 10% a raised priority.
std::string ServeStream(const Options& opt) {
  Rng rng(opt.seed);
  std::string text;
  std::uint64_t at = 0;
  for (std::uint32_t j = 0; j < ServeJobs(opt); ++j) {
    at += std::uint64_t(-double(kServeMeanGap) * std::log(1.0 - rng.NextDouble()));
    const ServeApp& app = kServeApps[rng.NextBounded(4)];
    const std::uint64_t seed = (opt.seed - 1) * 1000 + rng.NextBounded(8) + 1;
    const bool deadline = rng.NextBool(0.2);
    const bool prio = rng.NextBool(0.1);
    text += StrFormat("@at=%llu%s%s %s %s -s %llu\n", (unsigned long long)at,
                      deadline ? StrFormat(" @deadline=%llu",
                                           (unsigned long long)kServeDeadline)
                                     .c_str()
                               : "",
                      prio ? " @prio=5" : "", app.app, app.flags,
                      (unsigned long long)seed);
  }
  return text;
}

/// dgc-serve's defaults except two device slots and a 64-deep queue.
serve::ServeConfig ServeBaseConfig(unsigned jobs) {
  serve::ServeConfig config;
  config.spec = Spec();
  config.thread_limit = 128;
  config.devices = 2;
  config.jobs = jobs;
  config.queue_capacity = 64;
  config.share_data = true;
  return config;
}

/// Outcome-log sink that stamps each line with the host time it was
/// written: a job's host latency is the gap between its submit and done
/// lines, as a client following the log would see it.
class StampedLog : public std::streambuf {
 public:
  struct Line {
    Clock::time_point at;
    std::string text;
  };
  std::vector<Line>& lines() { return lines_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    Put(traits_type::to_char_type(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) Put(s[i]);
    return n;
  }

 private:
  void Put(char c) {
    if (c != '\n') {
      partial_ += c;
      return;
    }
    lines_.push_back({Clock::now(), std::move(partial_)});
    partial_.clear();
  }
  std::vector<Line> lines_;
  std::string partial_;
};

struct Replay {
  Status status = Status::Ok();
  serve::ServeReport report;
  std::vector<serve::JobRecord> records;
  std::vector<StampedLog::Line> log;
};

Replay RunReplay(const serve::ServeConfig& base,
                 const std::vector<serve::JobRequest>& requests, bool warmup,
                 Tracer& tracer) {
  Replay replay;
  StampedLog sink;
  std::ostream log(&sink);
  serve::ServeConfig config = base;
  config.log = &log;
  serve::Scheduler scheduler(std::move(config));
  {
    ScopedSpan span(tracer, warmup ? "serve.Init.warmup" : "serve.Init");
    replay.status = scheduler.Init();
  }
  if (replay.status.ok()) {
    scheduler.EnqueueStream(requests);
    ScopedSpan span(tracer, warmup ? "serve.Run.warmup" : "serve.Run");
    replay.status = scheduler.Run();
  }
  replay.report = scheduler.WriteReport();
  replay.records = scheduler.records();
  replay.log = std::move(sink.lines());
  return replay;
}

/// Value of `key=` among a log line's tokens ("" when absent).
std::string_view Field(const std::vector<std::string_view>& tokens,
                       std::string_view key) {
  for (std::string_view t : tokens) {
    if (t.size() > key.size() && StartsWith(t, key) && t[key.size()] == '=') {
      return t.substr(key.size() + 1);
    }
  }
  return {};
}

std::uint64_t ParseU64(std::string_view s) {
  const auto v = ParseInt(s);
  return v.ok() && *v >= 0 ? std::uint64_t(*v) : 0;
}

/// What one replay's outcome log and records say about each job.
struct ServeTimes {
  std::vector<double> host_ms;  ///< submit line to done line, per job
  std::vector<double> wait_kcycles, service_kcycles, turnaround_kcycles;
  std::vector<double> launch_kcycles;
  std::uint64_t launches = 0;
  std::uint64_t attaches = 0;  ///< jobs packed beside an identical argv
  std::uint64_t succeeded = 0;
};

ServeTimes AnalyzeReplay(const Replay& replay) {
  ServeTimes t;
  const std::size_t n = replay.records.size();
  std::vector<Clock::time_point> submit(n), done(n);
  std::vector<std::uint64_t> launched(n, 0);
  std::vector<char> has_launch(n, 0);
  for (const StampedLog::Line& line : replay.log) {
    const std::vector<std::string_view> tokens = SplitWhitespace(line.text);
    if (tokens.size() < 2 || !StartsWith(tokens[0], "@")) continue;
    const std::uint64_t cycle = ParseU64(tokens[0].substr(1));
    const std::string_view verb = tokens[1];
    if (verb == "submit" || verb == "done") {
      const std::uint64_t job = ParseU64(Field(tokens, "job"));
      if (job >= n) continue;
      (verb == "submit" ? submit : done)[job] = line.at;
    } else if (verb == "launch") {
      ++t.launches;
      std::string_view list = Field(tokens, "jobs");
      if (list.size() >= 2) list = list.substr(1, list.size() - 2);
      std::map<std::string, int> seen;
      for (std::string_view id : SplitChar(list, ',')) {
        const std::uint64_t job = ParseU64(id);
        if (job >= n) continue;
        if (seen[Join(replay.records[job].job.args, " ")]++ > 0) ++t.attaches;
        if (!has_launch[job]) {
          has_launch[job] = 1;
          launched[job] = cycle;
        }
      }
    } else if (verb == "free") {
      t.launch_kcycles.push_back(double(ParseU64(Field(tokens, "cycles"))) / 1e3);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const serve::JobRecord& r = replay.records[j];
    const bool ok = r.outcome == serve::JobOutcome::kSucceeded && has_launch[j];
    t.succeeded += ok ? 1 : 0;
    t.host_ms.push_back(
        std::chrono::duration<double, std::milli>(done[j] - submit[j]).count());
    t.turnaround_kcycles.push_back(
        ok ? double(r.finish_cycle - r.job.arrival) / 1e3 : kMissedKcycles);
    if (!ok) continue;
    t.wait_kcycles.push_back(double(launched[j] - r.job.arrival) / 1e3);
    t.service_kcycles.push_back(double(r.finish_cycle - launched[j]) / 1e3);
  }
  return t;
}

std::string LogText(const Replay& replay) {
  std::string text;
  for (const StampedLog::Line& line : replay.log) text += line.text + "\n";
  return text;
}

void AddServeExact(std::map<std::string, double>& m,
                   const serve::ServeReport& report, const ServeTimes& times,
                   std::uint32_t devices) {
  m["serve.launches"] = double(times.launches);
  m["serve.jobs_per_launch"] =
      Ratio(double(report.admitted), double(times.launches));
  m["serve.device_busy_frac"] =
      Ratio(Sum(times.launch_kcycles) * 1e3,
            double(devices) * double(report.final_cycle));
  m["serve.peak_queue_depth"] = double(report.peak_queue_depth);
  m["serve.shared_attaches"] = double(times.attaches);
  m["serve.wait_kcycles_p50"] = Quantile(times.wait_kcycles, 0.5);
  m["serve.wait_kcycles_p99"] = Quantile(times.wait_kcycles, 0.99);
  m["serve.service_kcycles_p50"] = Quantile(times.service_kcycles, 0.5);
  m["serve.service_kcycles_p99"] = Quantile(times.service_kcycles, 0.99);
  m["serve.turnaround_kcycles_p50"] = Quantile(times.turnaround_kcycles, 0.5);
  m["serve.turnaround_kcycles_p99"] = Quantile(times.turnaround_kcycles, 0.99);
  m["gpusim.kernel_kcycles_p50"] = Median(times.launch_kcycles);
}

Outcome RunServe(const Options& opt, Tracer& tracer) {
  Outcome out;
  const unsigned jobs = std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
  out.host_threads = jobs;
  const serve::ServeConfig config = ServeBaseConfig(jobs);
  std::vector<serve::JobRequest> requests;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    ScopedSpan setup(tracer, "setup", std::uint64_t(i));
    const std::string text = ServeStream(opt);
    auto parsed = [&] {
      ScopedSpan span(tracer, "serve.ParseJobStream");
      return serve::ParseJobStream(text);
    }();
    if (!parsed.ok()) {
      out.problems.push_back("stream parse failed: " +
                             parsed.status().ToString());
      return out;
    }
    requests = std::move(*parsed);
    BuildDevice(tracer);  // the device-construction probe
    const std::vector<serve::JobRequest> warm(
        requests.begin(), requests.begin() + ServeWarmupJobs(opt));
    const Replay replay = RunReplay(config, warm, /*warmup=*/true, tracer);
    if (!replay.status.ok() || replay.report.succeeded != warm.size()) {
      out.problems.push_back("warm-up replay did not succeed");
    }
    out.setup_s.push_back(SecondsSince(t0));
  }

  // `replicas` independent services replay the stream back to back, so the
  // two-thread service covers every core (up to 4); as for the launch
  // clients, one service alone would measure its core placement. Every
  // replay must write the same outcome log.
  const unsigned replicas = std::max(
      1u, std::min(4u, std::max(1u, std::thread::hardware_concurrency())) /
              jobs);
  out.host_threads = jobs * replicas;
  std::mutex mutex;
  std::string first_log;  // guarded by mutex, as are out and the two below
  std::uint64_t launches = 0;
  std::vector<double> job_host_ms;  // submit line to done line, per job
  std::atomic<std::size_t> next_op{0};
  const auto t0 = Clock::now();
  auto replica = [&] {
    std::size_t done = 0;
    double last = 0;
    for (; Continue(opt, done, SecondsSince(t0), last); ++done) {
      const auto t = Clock::now();
      Replay replay;
      {
        ScopedSpan op(tracer, "op", next_op.fetch_add(1));
        replay = RunReplay(config, requests, /*warmup=*/false, tracer);
      }
      last = SecondsSince(t);
      ReleaseFreeMemory();
      const ServeTimes times = AnalyzeReplay(replay);
      const std::string text = LogText(replay);
      std::lock_guard<std::mutex> lock(mutex);
      out.attempted += requests.size();
      out.failed += requests.size() - times.succeeded;
      if (!replay.status.ok()) {
        out.problems.push_back("scheduler: " + replay.status.ToString());
      }
      out.op_ms.push_back(last * 1e3);
      job_host_ms.insert(job_host_ms.end(), times.host_ms.begin(),
                         times.host_ms.end());
      launches += times.launches;
      if (first_log.empty()) {
        first_log = text;
        Digest digest;
        digest.Add(text);
        out.digest = digest.value();
        AddServeExact(out.exact, replay.report, times, config.devices);
      } else if (text != first_log) {
        out.problems.push_back("outcome log differs between replays");
      }
    }
    // Each replica's own rate, so one replica's last replay running past
    // the other's does not count as idle time.
    const double rate = Ratio(double(done), SecondsSince(t0));
    std::lock_guard<std::mutex> lock(mutex);
    out.ops_per_s += rate;
  };
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < replicas; ++r) threads.emplace_back(replica);
  for (std::thread& thread : threads) thread.join();
  out.measured_s = SecondsSince(t0);

  if (tracer.enabled()) {
    const std::vector<double> run_ms = tracer.DurationsMs("serve.Run");
    out.host["serve.parse_ms"] =
        Median(tracer.DurationsMs("serve.ParseJobStream"));
    out.host["serve.init_ms"] = Median(tracer.DurationsMs("serve.Init"));
    out.host["serve.run_s"] = Median(run_ms) / 1e3;
    out.host["serve.host_ms_per_launch"] = Ratio(Sum(run_ms), double(launches));
    out.host["serve.job_host_ms_p50"] = Quantile(job_host_ms, 0.5);
    out.host["serve.job_host_ms_p90"] = Quantile(job_host_ms, 0.9);
    out.host["gpusim.device_init_ms"] =
        Median(tracer.DurationsMs("gpusim.device_init"));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMib() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Host cost of one span, measured on a throwaway tracer.
double SpanCostNs() {
  Tracer probe(true);
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) ScopedSpan span(probe, "probe");
  return SecondsSince(t0) * 1e9 / kSpans;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(),
                     metrics[i].value, metrics[i].unit.c_str());
  }
  return out + "}";
}

std::vector<Metric> EndToEndMetrics(const Outcome& out) {
  return {{"setup_s", Median(out.setup_s), "s"},
          {"op_ms_p50", Quantile(out.op_ms, 0.5), "ms"},
          {"ops_per_s", out.ops_per_s, "1/s"},
          {"peak_rss_mib", PeakRssMib(), "MiB"}};
}

std::vector<Metric> LayerMetrics(const Outcome& out, const Tracer& tracer,
                                 double traced_s) {
  std::vector<Metric> metrics;
  for (const MetricSpec& spec : kLayerMetrics) {
    double value = 0;
    if (auto it = out.exact.find(spec.name); it != out.exact.end()) {
      value = it->second;
    } else if (auto h = out.host.find(spec.name); h != out.host.end()) {
      value = h->second;
    } else if (std::string_view(spec.name) == "trace_overhead_pct") {
      value = Ratio(double(tracer.size()) * SpanCostNs(), traced_s * 1e9) * 100;
    }
    metrics.push_back({spec.name, value, spec.unit});
  }
  return metrics;
}

std::string ExactJson(const std::map<std::string, double>& exact) {
  std::string out = "{";
  for (const auto& [name, value] : exact) {
    out += StrFormat("%s\"%s\": %.17g", out.size() == 1 ? "" : ", ",
                     name.c_str(), value);
  }
  return out + "}";
}

using WorkloadFn = Outcome (*)(const Options&, Tracer&);

Outcome LaunchXsbench(const Options& opt, Tracer& tracer) {
  return RunLaunch(opt,
                   opt.smoke ? LaunchShape{"xsbench", "-i 6 -g 32 -l 64", 4, 32}
                             : LaunchShape{"xsbench", "-i 12 -g 128 -l 512", 32, 32},
                   tracer);
}

Outcome LaunchRsbench(const Options& opt, Tracer& tracer) {
  return RunLaunch(
      opt,
      opt.smoke ? LaunchShape{"rsbench", "-u 6 -w 4 -l 64", 4, 32}
                : LaunchShape{"rsbench", "-u 12 -w 8 -p 8 -l 128", 32, 32},
      tracer);
}

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"launch-xsbench", LaunchXsbench},
      {"launch-rsbench", LaunchRsbench},
      {"sweep-fig6", RunSweep},
      {"serve-mixed", RunServe}};
  return workloads;
}

int Usage(const ArgParser& parser, int code) {
  std::fprintf(code == 0 ? stdout : stderr, "%s",
               parser.Usage("dgc-bench").c_str());
  std::fprintf(code == 0 ? stdout : stderr,
               "workloads: launch-xsbench launch-rsbench sweep-fig6 "
               "serve-mixed\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  apps::RegisterAllApps();
  std::string workload, out_path, spans_path;
  std::int64_t seed = 1, seconds = 30, trace = 0;
  bool smoke = false, help = false;
  ArgParser parser("dgc-bench: end-to-end benchmark of the ensemble stack");
  parser
      .AddString("workload", 0, "workload to run", &workload)
      .AddInt("seed", 0, "input seed >= 0 (1 default, 2 held out)",
              &seed)
      .AddInt("seconds", 0, "host seconds of measured operations", &seconds)
      .AddInt("trace", 0, "0: end-to-end metrics; 1: per-layer metrics",
              &trace)
      .AddFlag("smoke", 0, "tiny inputs and fixed op counts, untimed",
               &smoke)
      .AddString("out", 0, "write the result JSON to this path", &out_path)
      .AddString("spans", 0, "write the recorded spans to this path",
                 &spans_path)
      .AddFlag("help", 'h', "print this help", &help);
  const Status parsed = parser.Parse(argc - 1, argv + 1);
  if (help) return Usage(parser, 0);
  const auto fn = Workloads().find(workload);
  if (!parsed.ok() || fn == Workloads().end() || seed < 0 || seconds < 1 ||
      seconds > 600 || (trace != 0 && trace != 1)) {
    if (!parsed.ok()) std::fprintf(stderr, "dgc-bench: %s\n", parsed.ToString().c_str());
    return Usage(parser, 2);
  }
  const std::string build_type = DGC_BENCH_BUILD_TYPE;
  if (!smoke && build_type != "Release") {
    std::fprintf(stderr,
                 "dgc-bench: timed runs need a Release build (this is '%s'); "
                 "only --smoke runs here\n",
                 build_type.c_str());
    return 2;
  }

  Options opt;
  opt.seed = SeedIndex(seed);
  opt.seconds = smoke ? 0.0 : double(seconds);
  opt.smoke = smoke;
  opt.min_ops = smoke && StartsWith(workload, "launch-") ? 4 : 1;

  Tracer tracer(trace == 1);
  const Outcome out = fn->second(opt, tracer);
  const double traced_s = double(tracer.Now()) / 1e9;
  const bool correct = out.problems.empty() && out.failed == 0;
  const std::vector<Metric> metrics =
      trace == 1 ? LayerMetrics(out, tracer, traced_s) : EndToEndMetrics(out);

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("dgc-bench %s seed=%llu trace=%lld%s nproc=%u host_threads=%u "
              "build=%s compiler=%s\n",
              workload.c_str(), (unsigned long long)opt.seed,
              (long long)trace, smoke ? " smoke" : "", nproc,
              out.host_threads, build_type.c_str(), DGC_BENCH_COMPILER);
  for (const std::string& problem : out.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("ops %zu in %.3f s (p90 %.3f ms), setups %zu, sim_digest %016llx\n",
              out.op_ms.size(), out.measured_s, Quantile(out.op_ms, 0.9),
              out.setup_s.size(), (unsigned long long)out.digest);
  if (trace == 1) {
    std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, t] : tracer.Totals()) {
      std::printf("%-34s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                  t.total_ms, t.self_ms);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const std::string result = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}",
      correct ? "true" : "false", (unsigned long long)out.attempted,
      (unsigned long long)out.failed, MetricsJson(metrics).c_str());
  int code = correct ? 0 : 1;
  if (!out_path.empty()) {
    std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
    file << StrFormat(
        "{\"schema\": \"dgc-bench-result-v1\", \"workload\": \"%s\", "
        "\"seed\": %llu, \"trace\": %lld, \"smoke\": %s, \"seconds\": %lld, "
        "\"nproc\": %u, \"host_threads\": %u, \"build_type\": \"%s\", "
        "\"compiler\": \"%s\", \"sim_digest\": \"%016llx\", \"correct\": %s, "
        "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
        "\"exact\": %s}\n",
        workload.c_str(), (unsigned long long)opt.seed, (long long)trace,
        smoke ? "true" : "false", (long long)seconds, nproc, out.host_threads,
        build_type.c_str(), DGC_BENCH_COMPILER, (unsigned long long)out.digest,
        correct ? "true" : "false", (unsigned long long)out.attempted,
        (unsigned long long)out.failed, MetricsJson(metrics).c_str(),
        ExactJson(out.exact).c_str());
    if (!file) {
      std::fprintf(stderr, "dgc-bench: cannot write %s\n", out_path.c_str());
      code = 1;
    }
  }
  if (!spans_path.empty() && !tracer.Write(spans_path)) {
    std::fprintf(stderr, "dgc-bench: cannot write %s\n", spans_path.c_str());
    code = 1;
  }
  std::printf("%s\n", result.c_str());
  return code;
}
