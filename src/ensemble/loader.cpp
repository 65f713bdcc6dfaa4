#include "ensemble/loader.h"

#include <fstream>
#include <numeric>
#include <sstream>

#include "dgcf/argv.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/argfile.h"
#include "ensemble/argscript.h"
#include "gpusim/device.h"
#include "gpusim/trace.h"
#include "ompx/league.h"
#include "support/argparse.h"
#include "support/str.h"

namespace dgc::ensemble {

namespace {

/// True when the team is back in its pristine state after a contained trap:
/// every worker alive and parked at the team barrier, no parallel region in
/// flight. Only then can the team safely pick up another instance — a trap
/// that killed workers or unwound rank 0 out of a parallel region leaves
/// the worker state machine desynchronized.
bool TeamIntact(const ompx::TeamCtx& team) {
  if (team.team_size == 1) return true;
  return team.barrier->expected() == team.team_size &&
         team.state->phase == ompx::TeamState::Phase::kIdle;
}

/// Points a DeviceLibc's or RpcHost's fault plan at `plan` for the guard's
/// lifetime and restores the previous plan on destruction. A null plan or
/// target leaves the target untouched.
template <typename Target>
class ScopedFaultPlan {
 public:
  ScopedFaultPlan(Target* target, sim::FaultPlan* plan)
      : target_(plan != nullptr ? target : nullptr) {
    if (target_ == nullptr) return;
    previous_ = target_->fault_plan();
    target_->set_fault_plan(plan);
  }
  ~ScopedFaultPlan() {
    if (target_ != nullptr) target_->set_fault_plan(previous_);
  }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  Target* target_;
  sim::FaultPlan* previous_ = nullptr;
};

/// Narrows a parsed integer flag to its uint32 field: a value below `min`
/// or above UINT32_MAX is a usage error, never a silent wrap.
StatusOr<std::uint32_t> FlagU32(const char* flag, std::int64_t value,
                                std::int64_t min) {
  if (value < min || value > std::int64_t(UINT32_MAX)) {
    return Status(ErrorCode::kInvalidArgument,
                  StrFormat("%s must be in %lld..%u, got %lld", flag,
                            (long long)min, UINT32_MAX, (long long)value));
  }
  return std::uint32_t(value);
}

}  // namespace

StatusOr<dgcf::RunResult> RunEnsemble(dgcf::AppEnv& env,
                                      const EnsembleOptions& options) {
  DGC_CHECK(env.device != nullptr);
  DGC_ASSIGN_OR_RETURN(const dgcf::AppInfo* app,
                       dgcf::AppRegistry::Instance().Find(options.app));
  if (options.instance_args.empty()) {
    return Status(ErrorCode::kInvalidArgument, "no instance argument lines");
  }
  // Validate library-caller options up front (the CLI front end performs the
  // same checks on its raw flags); a zero would otherwise reach the launch
  // path and fail with a message that names no EnsembleOptions field.
  if (options.thread_limit == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "EnsembleOptions::thread_limit must be positive");
  }
  if (options.teams_per_block == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "EnsembleOptions::teams_per_block must be positive");
  }
  if (options.max_attempts == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "EnsembleOptions::max_attempts must be positive");
  }
  const std::uint32_t available = std::uint32_t(options.instance_args.size());
  const std::uint32_t ni =
      options.num_instances == 0 ? available : options.num_instances;
  if (ni > available) {
    return Status(
        ErrorCode::kInvalidArgument,
        StrFormat("requested %u instances but the argument file provides "
                  "only %u lines",
                  ni, available));
  }
  if (!options.instance_watchdogs.empty() &&
      options.instance_watchdogs.size() != ni) {
    return Status(ErrorCode::kInvalidArgument,
                  "EnsembleOptions::instance_watchdogs must be empty or have "
                  "one entry per instance");
  }
  const std::uint32_t teams = options.num_teams == 0 ? ni : options.num_teams;
  if (teams > ni) {
    return Status(ErrorCode::kInvalidArgument,
                  "more teams than instances is wasteful; reduce --teams");
  }

  // Heap and RPC faults come from the same plan as trap sites; the guards
  // restore the previous plans however the run ends.
  ScopedFaultPlan libc_faults(env.libc, options.faults);
  ScopedFaultPlan rpc_faults(env.rpc, options.faults);

  // Attach the sanitizer before any device state is built so the argument
  // block and app buffers enter the shadow map with exact bounds.
  if (options.memcheck != nullptr) {
    options.memcheck->Attach(env.device->memory());
  }

  // Build the device-side argument block (Fig. 4's StringCache/Argc/Argv),
  // prepending argv[0] = app name to every line. Built once; retry waves
  // reuse it.
  std::vector<std::vector<std::string>> rows;
  rows.reserve(ni);
  for (std::uint32_t i = 0; i < ni; ++i) {
    std::vector<std::string> row;
    row.reserve(options.instance_args[i].size() + 1);
    row.push_back(options.app);
    row.insert(row.end(), options.instance_args[i].begin(),
               options.instance_args[i].end());
    rows.push_back(std::move(row));
  }
  DGC_ASSIGN_OR_RETURN(dgcf::ArgvBlock argv,
                       dgcf::ArgvBlock::Build(*env.device, rows));

  dgcf::RunResult run;
  run.instances.resize(ni);
  // Entry 0 is the unattributed bucket, entry i + 1 instance i.
  run.instance_stats.resize(ni + 1);
  for (std::uint32_t b = 0; b <= ni; ++b) {
    run.instance_stats[b].instance = std::int32_t(b) - 1;
  }
  run.transfer_cycles = argv.transfer_cycles();
  env.share_data = options.share_data;

  const std::uint64_t launch_watchdog =
      options.watchdog_cycles != 0 ? options.watchdog_cycles
                                   : env.device->spec().DefaultWatchdogCycles();
  const std::uint32_t shrink =
      options.retry_shrink >= 2 ? options.retry_shrink : 1;

  // Wave 0 runs every instance; retry waves run only the instances that did
  // not complete execution (a returned nonzero exit *is* a completed
  // execution and is never retried).
  std::vector<std::uint32_t> pending(ni);
  std::iota(pending.begin(), pending.end(), 0u);
  std::uint32_t team_cap = teams;

  for (std::uint32_t wave = 0; wave < options.max_attempts && !pending.empty();
       ++wave) {
    if (wave > 0) {
      team_cap = std::max(1u, team_cap / shrink);
      // Retry waves reuse block ids; a fresh trace wave keeps their rows
      // (and Perfetto tids) distinct from the previous launch's.
      if (options.trace != nullptr) options.trace->BeginWave();
    }
    const std::uint32_t wave_teams =
        std::min<std::uint32_t>(team_cap, std::uint32_t(pending.size()));

    // Which instance each wave-local team is currently executing (-1
    // between instances): the launch's row table, through which counters,
    // failure lines, allocation owners and memcheck findings are attributed.
    std::vector<std::int32_t> current(wave_teams, -1);
    std::vector<char> started(ni, 0);

    ompx::TeamsConfig cfg;
    cfg.num_teams = wave_teams;
    cfg.thread_limit = options.thread_limit;
    cfg.teams_per_block = options.teams_per_block;
    cfg.name = wave == 0 ? "ensemble" : "ensemble-retry";
    cfg.trace = options.trace;
    cfg.memcheck = options.memcheck;
    cfg.faults = options.faults;
    cfg.profiler = options.profiler;
    cfg.watchdog_cycles = launch_watchdog;
    cfg.team_instances = current;

    // The Fig. 4 kernel:  #pragma omp target teams distribute
    //                     for (I = 0; I < NI; ++I)
    //                       Ret[I] = __user_main(Argc[I], &Argv[I][0]);
    // distribute → team t executes iterations t, t+N, t+2N, ... of the
    // pending list. Each instance runs under try/catch: a trap is contained
    // to the instance, and the team moves on to its next instance as long
    // as the trap left it intact.
    auto result = ompx::LaunchTeams(
        *env.device, cfg, [&](ompx::TeamCtx& team) -> sim::DeviceTask<void> {
          for (std::uint32_t idx = team.team_id; idx < pending.size();
               idx += wave_teams) {
            const std::uint32_t i = pending[idx];
            dgcf::InstanceResult& inst = run.instances[i];
            current[team.team_id] = std::int32_t(i);
            started[i] = 1;
            ++inst.attempts;
            inst.reason = dgcf::TerminationReason::kNotStarted;
            inst.detail.clear();
            const std::uint64_t t0 = team.hw->Now();
            const std::uint64_t inst_budget =
                i < options.instance_watchdogs.size() &&
                        options.instance_watchdogs[i] != 0
                    ? options.instance_watchdogs[i]
                    : options.instance_watchdog_cycles;
            if (inst_budget != 0) {
              team.hw->ArmRowWatchdog(inst_budget);
            }
            bool contained = false;
            try {
              inst.exit_code = co_await app->user_main(
                  env, team, argv.argc(i), argv.argv(i));
              inst.completed = true;
              inst.reason = dgcf::TerminationReason::kReturned;
            } catch (const sim::DeviceTrap& trap) {
              inst.reason = dgcf::ReasonForTrap(trap.kind());
              inst.detail = trap.what();
              contained = true;
            } catch (const std::exception& e) {
              inst.reason = dgcf::TerminationReason::kException;
              inst.detail = e.what();
              contained = true;
            }
            if (inst_budget != 0) {
              team.hw->ArmRowWatchdog(0);  // disarm for the next instance
            }
            inst.cycles += team.hw->Now() - t0;
            current[team.team_id] = -1;
            if (contained && !TeamIntact(team)) {
              // The trap degraded the team (dead workers or a parallel
              // region left in flight): running another instance on it
              // would corrupt the worker state machine. Remaining
              // iterations stay kNotStarted and fall to the retry waves.
              co_return;
            }
          }
        });
    DGC_RETURN_IF_ERROR(result.status());

    run.waves = wave + 1;
    run.kernel_cycles += result->cycles;
    // Waves run back-to-back on the device, so their elapsed cycles and
    // each instance's counters add — the sequential merge.
    run.stats.AccumulateSequential(result->stats);
    for (std::size_t b = 0; b < result->instance_stats.size(); ++b) {
      run.instance_stats[b].stats.AccumulateSequential(
          result->instance_stats[b]);
    }
    for (std::string& f : result->failures) run.failures.push_back(std::move(f));
    // The sanitizer report is cumulative since Attach; the latest wave's
    // snapshot covers all waves so far.
    run.memcheck = std::move(result->memcheck);

    // Post-wave attribution and containment log.
    std::vector<std::uint32_t> next;
    for (std::uint32_t i : pending) {
      dgcf::InstanceResult& inst = run.instances[i];
      if (inst.completed) continue;
      if (started[i] &&
          inst.reason == dgcf::TerminationReason::kNotStarted) {
        // Started but never terminated: its lanes were still parked when
        // the launch drained (deadlock) or the launch ended around it.
        inst.reason = dgcf::TerminationReason::kDeadlock;
        inst.detail = StrFormat("launch %s while the instance was running",
                                result->outcome == sim::LaunchOutcome::kDeadlocked
                                    ? "deadlocked"
                                    : "ended");
      }
      if (started[i] &&
          inst.reason != dgcf::TerminationReason::kNotStarted) {
        run.failures.push_back(StrFormat(
            "instance=%u contained: %s (%s)", i,
            std::string(dgcf::ToString(inst.reason)).c_str(),
            inst.detail.c_str()));
        // Contained traps never reach the launch's lane-death counters, so
        // fold them in here: the run's stats report every trap that fired,
        // whether the loader caught it or a lane died of it.
        if (inst.reason == dgcf::TerminationReason::kWatchdog) {
          ++run.stats.watchdog_traps;
        } else if (inst.reason != dgcf::TerminationReason::kException) {
          ++run.stats.lane_traps;
        }
      }
      next.push_back(i);
    }
    pending = std::move(next);
  }

  // map(from:Ret[:NI])
  run.transfer_cycles +=
      sim::TransferCycles(env.device->spec(), std::uint64_t(ni) * sizeof(int));
  for (std::uint32_t i = 0; i < ni; ++i) {
    run.instance_stats[i + 1].stats.elapsed_cycles = run.instances[i].cycles;
  }
  run.device_mem = env.device->memory().Snapshot();
  const auto& owner_stats = env.device->memory().owner_stats();
  for (std::uint32_t i = 0; i < ni; ++i) {
    if (auto it = owner_stats.find(std::int32_t(i)); it != owner_stats.end()) {
      run.instances[i].mem_peak_bytes = it->second.peak_bytes;
      run.instances[i].mem_allocations = it->second.total_allocations;
    }
  }
  return run;
}

StatusOr<EnsembleCli> ParseEnsembleCli(const std::string& app,
                                       const std::vector<std::string>& argv,
                                       bool with_counts) {
  std::string file;
  std::int64_t instances = 0, threads = 1024, teams = 0, per_block = 1;
  std::int64_t seed = 0;
  bool script = false;
  std::string inject;
  std::int64_t watchdog = 0, instance_watchdog = 0;
  std::int64_t retry = 1, retry_shrink = 2;
  std::string share_data = "on";
  ArgParser parser("GPU ensemble loader (paper Fig. 5c)");
  parser.AddString("file", 'f', "command line arguments file", &file,
                   /*required=*/true);
  if (with_counts) {
    parser
        .AddInt("num-instances", 'n', "instances to launch simultaneously",
                &instances)
        .AddInt("teams", 0, "teams (default: one per instance)", &teams);
  }
  parser.AddInt("thread-limit", 't', "max threads per instance", &threads)
      .AddInt("teams-per-block", 'm', "instances per thread block (§3.1)",
              &per_block)
      .AddFlag("script", 0, "treat the file as an argument script", &script)
      .AddInt("seed", 0, "argument-script random seed", &seed)
      .AddString("inject", 0, "deterministic fault-injection spec", &inject)
      .AddInt("watchdog", 0, "launch cycle budget (0 = device default)",
              &watchdog)
      .AddInt("instance-watchdog", 0,
              "per-instance cycle budget (0 = off)", &instance_watchdog)
      .AddInt("retry", 0, "max launch attempts per failed instance",
              &retry)
      .AddInt("retry-shrink", 0, "team-cap divisor per retry wave",
              &retry_shrink)
      .AddString("share-data", 0,
                 "share read-only input data across identical instances "
                 "(on|off, default on)",
                 &share_data);
  DGC_RETURN_IF_ERROR(parser.Parse(argv));
  if (share_data != "on" && share_data != "off") {
    return Status(ErrorCode::kInvalidArgument,
                  "--share-data must be 'on' or 'off'");
  }
  if (watchdog < 0 || instance_watchdog < 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "--watchdog/--instance-watchdog must be >= 0");
  }

  EnsembleCli cli;
  EnsembleOptions& options = cli.options;
  options.app = app;
  DGC_ASSIGN_OR_RETURN(options.num_instances, FlagU32("-n", instances, 0));
  DGC_ASSIGN_OR_RETURN(options.thread_limit, FlagU32("-t", threads, 1));
  DGC_ASSIGN_OR_RETURN(options.num_teams, FlagU32("--teams", teams, 0));
  DGC_ASSIGN_OR_RETURN(options.teams_per_block, FlagU32("-m", per_block, 1));
  DGC_ASSIGN_OR_RETURN(options.max_attempts, FlagU32("--retry", retry, 1));
  DGC_ASSIGN_OR_RETURN(options.retry_shrink,
                       FlagU32("--retry-shrink", retry_shrink, 0));
  options.watchdog_cycles = std::uint64_t(watchdog);
  options.instance_watchdog_cycles = std::uint64_t(instance_watchdog);
  options.share_data = share_data == "on";

  // A bad --inject spec must fail before any work, the file read included.
  if (auto plan = sim::FaultPlan::Parse(inject); !plan.ok()) {
    return Status(ErrorCode::kInvalidArgument,
                  "bad --inject spec: " + plan.status().message() +
                      " (see docs/MODEL.md, Failure semantics)");
  }
  cli.inject = inject;

  if (script) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return Status(ErrorCode::kNotFound, "cannot open script file: " + file);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    DGC_ASSIGN_OR_RETURN(options.instance_args,
                         ExpandScriptToArgs(buffer.str(), std::uint64_t(seed)));
  } else {
    DGC_ASSIGN_OR_RETURN(options.instance_args, LoadArgumentFile(file));
  }
  return cli;
}

StatusOr<dgcf::RunResult> RunEnsembleCli(dgcf::AppEnv& env, EnsembleCli cli) {
  // A fresh plan per run keeps count-based faults deterministic.
  sim::FaultPlan plan;
  if (!cli.inject.empty()) {
    DGC_ASSIGN_OR_RETURN(plan, sim::FaultPlan::Parse(cli.inject));
    cli.options.faults = &plan;
  }
  return RunEnsemble(env, cli.options);
}

StatusOr<dgcf::RunResult> RunEnsembleCli(dgcf::AppEnv& env,
                                         const std::string& app,
                                         const std::vector<std::string>& argv) {
  DGC_ASSIGN_OR_RETURN(EnsembleCli cli, ParseEnsembleCli(app, argv));
  return RunEnsembleCli(env, std::move(cli));
}

}  // namespace dgc::ensemble

namespace dgc::dgcf {

StatusOr<RunResult> RunSingleInstance(AppEnv& env,
                                      const SingleRunOptions& options) {
  ensemble::EnsembleOptions one;
  one.app = options.app;
  one.instance_args = {options.args};
  one.thread_limit = options.thread_limit;
  one.memcheck = options.memcheck;
  one.faults = options.faults;
  one.watchdog_cycles = options.watchdog_cycles;
  one.profiler = options.profiler;
  one.share_data = options.share_data;
  return ensemble::RunEnsemble(env, one);
}

}  // namespace dgc::dgcf
