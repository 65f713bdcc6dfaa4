// The enhanced (ensemble) loader — the paper's core contribution (§3).
//
// Extends the single-instance main wrapper to launch NI instances of the
// application inside ONE kernel: instance I's command line comes from line
// I of the argument file; each instance is mapped to a team via
// `target teams distribute num_teams(N) thread_limit(T)` (Fig. 4), and the
// per-instance exit codes are mapped back (`map(from:Ret[:NI])`). The
// single-instance wrapper itself is this launch with NI = 1
// (dgcf::RunSingleInstance, at the end of this header).
//
// The loader's own command line mirrors Fig. 5c:
//   user_app_gpu -f arguments.txt -n 4 -t 128
// plus two extensions: -m (teams per block, §3.1's multi-dimensional
// mapping) and --teams (decouple N from NI; instances distribute
// round-robin over teams, exactly the Fig. 4 loop).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dgcf/app.h"
#include "dgcf/loader.h"
#include "support/argparse.h"
#include "support/status.h"

namespace dgc::ensemble {

/// Watchdogs, retries and input sharing: the policy every front end (CLI,
/// sweep harness, job-stream scheduler) hands the loader in one assignment.
struct LaunchPolicy {
  /// Launch watchdog: cycle budget for each kernel launch, after which
  /// every still-running lane traps (kWatchdog) and the launch drains.
  /// 0 derives DeviceSpec::DefaultWatchdogCycles().
  std::uint64_t watchdog_cycles = 0;
  /// Per-instance watchdog: cycles one instance may run before its team's
  /// lanes trap. 0 (default) disables; the launch budget still applies.
  std::uint64_t instance_watchdog_cycles = 0;
  /// Total launch waves an abnormally-terminated instance may consume
  /// (first run + retries). 1 = no retry. Instances that *returned* with a
  /// nonzero exit code completed execution and are never retried.
  std::uint32_t max_attempts = 1;
  /// When >= 2, each retry wave divides the team cap by this factor
  /// (min 1 team): relaunching failed instances on a smaller wave relieves
  /// the memory/contention pressure that commonly caused the failure.
  /// 0 or 1 = retries reuse the original team count.
  std::uint32_t retry_shrink = 2;
  /// Share content-identical read-only inputs across instances: apps
  /// acquire them via content-keyed shared segments, so identical instances
  /// map one physical copy (flagged read-only to the §3.3 race detector).
  /// Off by default — the duplicated layout is the paper's baseline.
  bool share_data = false;
};

struct EnsembleOptions : LaunchPolicy {
  std::string app;  ///< registered application name
  /// Per-instance argv[1..] (from -f, an arg script, or built directly).
  std::vector<std::vector<std::string>> instance_args;
  /// Instances to launch (-n). 0 → one per argument line. Must not exceed
  /// the number of argument lines.
  std::uint32_t num_instances = 0;
  /// Thread limit per instance (-t).
  std::uint32_t thread_limit = 1024;
  /// Teams (N in Fig. 4). 0 → equal to the instance count (the paper's
  /// evaluation configuration, §4.2).
  std::uint32_t num_teams = 0;
  /// M instances per thread block (§3.1); 1 = the paper's implementation.
  std::uint32_t teams_per_block = 1;
  /// Optional instruction trace of the ensemble kernel (gpusim/trace.h).
  sim::Trace* trace = nullptr;
  /// Optional shadow-memory sanitizer (gpusim/memcheck.h). The loader
  /// attaches it to the device memory and returns its findings in
  /// RunResult::memcheck; the launch's team→instance table feeds its §3.3
  /// cross-instance checker.
  sim::Memcheck* memcheck = nullptr;
  /// Optional deterministic fault-injection plan (gpusim/faults.h). The
  /// loader forwards it to every launch wave and attaches it to the AppEnv's
  /// DeviceLibc/RpcHost for heap/RPC faults for the duration of the run. The
  /// same plan object persists across retries, so count-based faults fire
  /// exactly once and a retry can recover the instance they hit.
  sim::FaultPlan* faults = nullptr;
  /// Optional per-instance overrides of the watchdog budget, indexed by
  /// instance id: entry I (when nonzero) replaces instance_watchdog_cycles
  /// for instance I. Must be empty or have one entry per instance. A
  /// job-stream scheduler uses this to layer per-job deadline budgets on
  /// the watchdog machinery — each packed job gets its own remaining
  /// budget instead of the batch minimum.
  std::vector<std::uint64_t> instance_watchdogs;
  /// Optional launch profiler (gpusim/profiler.h); null = off. The loader
  /// forwards it to every wave, so one timeline covers all waves.
  /// RunResult::instance_stats is filled with or without it.
  sim::Profiler* profiler = nullptr;
};

/// Runs the ensemble. Instance I's exit code lands in result.instances[I].
///
/// Failure semantics: an instance that traps (OOM, abort, injected fault,
/// watchdog) or throws is *contained* — its InstanceResult records the
/// TerminationReason and detail while sibling instances run to completion.
/// With max_attempts > 1, instances that did not complete execution are
/// relaunched in follow-up waves (see EnsembleOptions::retry_shrink).
StatusOr<dgcf::RunResult> RunEnsemble(dgcf::AppEnv& env,
                                      const EnsembleOptions& options);

/// A loader command line: the options with the argument lines loaded, plus
/// the validated --inject spec ("" = none), kept as text so each run parses
/// a fresh FaultPlan. `file`, `script` and `seed` say where the argument
/// lines come from.
struct EnsembleCli {
  EnsembleOptions options;
  std::string inject;
  std::string file;        ///< -f: argument file (or script)
  bool script = false;     ///< --script: `file` is an argument script
  std::int64_t seed = 0;   ///< --seed: the script's random seed
};

/// Fig. 5c front end, parse step: registers `-f <file> -n <instances>
/// -t <threads>` plus -m/--teams/--script/--seed, `--share-data on|off`
/// (default on) and --inject/--watchdog/--instance-watchdog/--retry/
/// --retry-shrink on `parser`, bound to `cli`, and parses `argv` with it;
/// a caller's own flags on `parser` are parsed in the same pass. Then it
/// checks --inject and loads the argument lines (flags are checked before
/// the file is read). `parser` keeps pointers into `cli`.
Status ParseEnsembleCli(const std::vector<std::string>& argv,
                        ArgParser& parser, EnsembleCli& cli);

/// Run step: runs `cli.options` under a FaultPlan parsed from `cli.inject`.
StatusOr<dgcf::RunResult> RunEnsembleCli(dgcf::AppEnv& env, EnsembleCli cli);

/// Parse step, then run step.
StatusOr<dgcf::RunResult> RunEnsembleCli(dgcf::AppEnv& env,
                                         const std::string& app,
                                         const std::vector<std::string>& argv);

}  // namespace dgc::ensemble

namespace dgc::dgcf {

/// The single-instance loader — the main wrapper of the original direct GPU
/// compilation framework ([26], §2.2) and the paper's T1 baseline: ONE team
/// runs `__user_main` (single-team semantics keep host behaviour). Fields
/// mean what their EnsembleOptions namesakes do.
struct SingleRunOptions {
  std::string app;                 ///< registered application name
  std::vector<std::string> args;   ///< argv[1..]; argv[0] is the app name
  std::uint32_t thread_limit = 1024;
  sim::Memcheck* memcheck = nullptr;
  sim::FaultPlan* faults = nullptr;
  std::uint64_t watchdog_cycles = 0;  ///< 0 = device-spec default
  sim::Profiler* profiler = nullptr;
  /// Moot for a single instance but honored, so T1 baselines measure the
  /// same code path as the ensemble.
  bool share_data = false;
};

/// Runs one instance on one team: RunEnsemble with a single argument row.
StatusOr<RunResult> RunSingleInstance(AppEnv& env,
                                      const SingleRunOptions& options);

}  // namespace dgc::dgcf
