#include "serve/scheduler.h"

#include <algorithm>

#include "dgcf/app.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "ensemble/metrics.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"
#include "gpusim/profiler.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace dgc::serve {

/// One independent device: its own memory, RPC ring, and libc, reused
/// across launches (launch-local state — the argv block, app buffers — is
/// freed between launches; leaks persist and shrink future admission
/// budgets, which is the graceful-degradation story).
struct Scheduler::DeviceSlot {
  explicit DeviceSlot(const sim::DeviceSpec& spec)
      : device(spec), rpc(device), libc(device) {}

  sim::Device device;
  dgcf::RpcHost rpc;
  dgcf::DeviceLibc libc;
  bool busy = false;
  std::uint32_t launch_id = 0;  ///< valid while busy
};

/// One launch started on a device slot. ResolveInFlight simulates it and
/// folds its completion back into the event stream at deterministic virtual
/// times; the launch is retired once the loop has handled all of those
/// events.
struct Scheduler::InFlight {
  std::uint32_t id = 0;
  std::uint32_t slot = 0;
  std::uint64_t start = 0;  ///< service cycle the launch began
  std::string app;
  std::vector<JobId> jobs;          ///< slot-in-batch → job id
  std::vector<char> is_duplicate;   ///< slot had an identical argv earlier
  std::vector<char> deadline_slot;  ///< slot's watchdog is deadline-derived
  bool probe = false;               ///< half-open circuit-breaker probe
  std::unique_ptr<sim::FaultPlan> plan;      ///< compiled chaos (may be null)
  std::unique_ptr<sim::Profiler> profiler;   ///< metrics sidecar (may be null)
  ensemble::EnsembleOptions options;

  bool resolved = false;        ///< simulated and its events pushed
  std::size_t events_left = 0;  ///< kJobDone + kDeviceFree not yet handled
  bool launch_error = false;  ///< RunEnsemble itself returned a Status error
  std::string error_detail;
  dgcf::RunResult run;
};

Scheduler::Scheduler(ServeConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity),
      admission_(config_.admission) {}

Scheduler::~Scheduler() = default;

Status Scheduler::Init() {
  if (initialized_) return Status::Ok();
  if (config_.devices == 0 || config_.thread_limit == 0 ||
      config_.teams_per_block == 0 || config_.queue_capacity == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "devices, thread-limit, teams-per-block and queue capacity "
                  "must be positive");
  }
  DGC_RETURN_IF_ERROR(admission_.Init(config_.spec, config_.thread_limit,
                                      config_.teams_per_block));
  slots_.reserve(config_.devices);
  for (std::uint32_t d = 0; d < config_.devices; ++d) {
    slots_.push_back(std::make_unique<DeviceSlot>(config_.spec));
  }
  if (config_.drain_at != 0) {
    PushEvent(Event{config_.drain_at, EventKind::kDrain, 0, 0, 0, {}});
  }
  initialized_ = true;
  return Status::Ok();
}

void Scheduler::PushEvent(Event event) {
  event.seq = event_seq_++;
  events_.push(std::move(event));
}

void Scheduler::Log(const std::string& line) {
  if (config_.log != nullptr) *config_.log << line << "\n";
}

CircuitBreaker& Scheduler::BreakerFor(const std::string& app) {
  auto it = breakers_.find(app);
  if (it == breakers_.end()) {
    it = breakers_.emplace(app, CircuitBreaker(config_.breaker)).first;
  }
  return it->second;
}

void Scheduler::EnqueueStream(const std::vector<JobRequest>& requests) {
  for (const JobRequest& request : requests) {
    arrival_floor_ = std::max({arrival_floor_, now_, request.at});
    JobRecord record;
    record.job.id = JobId(records_.size());
    record.job.ordinal = ++next_ordinal_;
    record.job.app = request.app;
    record.job.args = request.args;
    record.job.priority = request.priority;
    record.job.arrival = arrival_floor_;
    record.job.deadline = request.deadline_budget == 0
                              ? 0
                              : arrival_floor_ + request.deadline_budget;
    const ChaosPlan::Decision chaos = config_.chaos.Decide(record.job.ordinal);
    record.job.chaos_trap = chaos.trap;
    record.job.chaos_slow = chaos.slow_factor;
    PushEvent(Event{record.job.arrival, EventKind::kArrival, 0, record.job.id,
                    /*b=*/0, {}});
    records_.push_back(std::move(record));
  }
}

void Scheduler::RequestDrain() {
  if (initialized_) BeginDrain("request");
}

Status Scheduler::Run() {
  if (!initialized_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "Scheduler::Init must succeed before Run");
  }
  while (true) {
    if (config_.drain_poll && !draining_ && config_.drain_poll()) {
      BeginDrain("signal");
    }
    // Simulate every launch the last packing pass started and fold its
    // completion into the event stream (launch-id order ⇒ deterministic).
    ResolveInFlight();
    if (events_.empty()) {
      if (!queue_.Empty()) {
        // No event will ever arrive, yet jobs are queued: nothing can
        // start them (estimates too big for a dirtied device, every
        // tenant quarantined with no probe pending, ...). Never hang —
        // fail the backlog deterministically.
        FailStalledQueue();
        continue;
      }
      break;
    }
    // Process every event at the earliest pending cycle, then let the
    // packing pass see the post-event world (freed devices, new queue
    // entries) before time advances further.
    const std::uint64_t cycle = events_.top().cycle;
    now_ = std::max(now_, cycle);
    while (!events_.empty() && events_.top().cycle == cycle) {
      const Event event = events_.top();
      events_.pop();
      switch (event.kind) {
        case EventKind::kJobDone:
          HandleJobDone(event);
          LaunchEventHandled(event.a);
          break;
        case EventKind::kDeviceFree:
          HandleDeviceFree(event);
          LaunchEventHandled(event.a);
          break;
        case EventKind::kBreakerProbe: HandleBreakerProbe(event); break;
        case EventKind::kDrain: BeginDrain("drain-at"); break;
        case EventKind::kArrival: HandleArrival(event); break;
      }
    }
    StartLaunches();
  }
  return Status::Ok();
}

void Scheduler::HandleArrival(const Event& event) {
  JobRecord& record = records_[event.a];
  const bool retry = event.b != 0;
  if (retry) {
    // A backed-off retry re-enters the queue. Drain and overflow make the
    // failure permanent — the job was admitted, so it counts against the
    // exit code either way.
    if (draining_) {
      FinalizeJob(event.a, JobOutcome::kFailed, "drain during retry backoff");
      return;
    }
    if (!queue_.Push(event.a, record.job.priority).ok()) {
      FinalizeJob(event.a, JobOutcome::kFailed, "queue full on retry");
      return;
    }
    Log(StrFormat("@%llu requeue job=%u attempt=%u queue=%zu",
                  (unsigned long long)now_, record.job.id, record.attempts,
                  queue_.size()));
    return;
  }

  ++tally_.submitted;
  Log(StrFormat("@%llu submit job=%u app=%s prio=%lld deadline=%llu",
                (unsigned long long)now_, record.job.id,
                record.job.app.c_str(), (long long)record.job.priority,
                (unsigned long long)record.job.deadline));
  const bool chaos_malformed =
      config_.chaos.Decide(record.job.ordinal).malformed;
  if (chaos_malformed ||
      !dgcf::AppRegistry::Instance().Find(record.job.app).ok()) {
    record.detail = chaos_malformed ? "chaos: malformed submission"
                                    : "unregistered app";
    FinalizeReject(event.a, RejectReason::kMalformed);
    return;
  }
  if (draining_) {
    FinalizeReject(event.a, RejectReason::kDraining);
    return;
  }
  if (BreakerFor(record.job.app).Rejecting()) {
    FinalizeReject(event.a, RejectReason::kQuarantined);
    return;
  }
  if (!queue_.Push(record.job.id, record.job.priority).ok()) {
    FinalizeReject(event.a, RejectReason::kQueueFull);
    return;
  }
  record.admitted = true;
  ++tally_.admitted;
  Log(StrFormat("@%llu admit job=%u queue=%zu", (unsigned long long)now_,
                record.job.id, queue_.size()));
}

void Scheduler::HandleJobDone(const Event& event) {
  InFlight& fl = *in_flight_.at(event.a);
  const JobId id = fl.jobs[event.b];
  JobRecord& record = records_[id];
  CircuitBreaker& breaker = BreakerFor(fl.app);

  std::string detail;
  bool completed = false;
  int exit_code = 0;
  bool deadline_watchdog = false;
  if (fl.launch_error) {
    detail = StrFormat("launch failed: %s", fl.error_detail.c_str());
  } else {
    const dgcf::InstanceResult& inst = fl.run.instances[event.b];
    record.cycles += inst.cycles;
    completed = inst.completed;
    exit_code = inst.exit_code;
    detail = inst.detail.empty() ? std::string(dgcf::ToString(inst.reason))
                                 : inst.detail;
    // Feed the measured footprint back into admission (PR 5 per-owner
    // accounting): estimates tighten as the service observes the app.
    if (inst.mem_peak_bytes != 0) {
      if (fl.is_duplicate[event.b] && config_.share_data) {
        admission_.ObserveAttach(fl.app, inst.mem_peak_bytes);
      } else {
        admission_.Observe(fl.app, inst.mem_peak_bytes);
      }
    }
    deadline_watchdog = fl.deadline_slot[event.b] &&
                        inst.reason == dgcf::TerminationReason::kWatchdog &&
                        event.cycle >= record.job.deadline;
  }

  if (completed) {
    record.exit_code = exit_code;
    breaker.RecordSuccess();
    FinalizeJob(id, exit_code == 0 ? JobOutcome::kSucceeded
                                   : JobOutcome::kAppError,
                detail);
    return;
  }
  if (deadline_watchdog) {
    // The deadline budget armed this watchdog: a missed deadline, not an
    // app failure — it neither trips the breaker nor earns a retry.
    FinalizeJob(id, JobOutcome::kDeadlineMissed, "deadline budget exhausted");
    return;
  }
  // Abnormal termination: trips the breaker and may retry with backoff.
  if (breaker.RecordFailure(now_)) {
    ++tally_.quarantines;
    Log(StrFormat("@%llu quarantine app=%s until=%llu",
                  (unsigned long long)now_, fl.app.c_str(),
                  (unsigned long long)breaker.open_until()));
    PushEvent(Event{breaker.open_until(), EventKind::kBreakerProbe, 0, 0, 0,
                    fl.app});
  }
  if (record.attempts < config_.retry.job_attempts && !draining_) {
    const std::uint64_t delay =
        config_.retry.BackoffDelay(record.attempts);
    ++tally_.retries;
    Log(StrFormat("@%llu retry job=%u attempt=%u at=%llu",
                  (unsigned long long)now_, id, record.attempts + 1,
                  (unsigned long long)(now_ + delay)));
    record.detail = detail;
    PushEvent(Event{now_ + delay, EventKind::kArrival, 0, id, /*b=*/1, {}});
    return;
  }
  FinalizeJob(id, JobOutcome::kFailed, detail);
}

void Scheduler::HandleDeviceFree(const Event& event) {
  InFlight& fl = *in_flight_.at(event.a);
  DeviceSlot& slot = *slots_[fl.slot];
  slot.busy = false;
  Log(StrFormat("@%llu free device=%u launch=%u cycles=%llu",
                (unsigned long long)now_, fl.slot, fl.id,
                (unsigned long long)(event.cycle - fl.start)));
}

void Scheduler::LaunchEventHandled(std::uint32_t launch_id) {
  auto it = in_flight_.find(launch_id);
  if (--it->second->events_left == 0) in_flight_.erase(it);
}

void Scheduler::HandleBreakerProbe(const Event& event) {
  if (draining_) return;
  CircuitBreaker& breaker = BreakerFor(event.app);
  if (breaker.state() == CircuitBreaker::State::kOpen &&
      now_ >= breaker.open_until()) {
    breaker.HalfOpen();
    Log(StrFormat("@%llu probe app=%s", (unsigned long long)now_,
                  event.app.c_str()));
  }
}

void Scheduler::BeginDrain(const char* reason) {
  if (draining_) return;
  draining_ = true;
  tally_.drained = true;
  Log(StrFormat("@%llu drain reason=%s", (unsigned long long)now_, reason));
  for (JobId id : queue_.TakeAll()) {
    FinalizeJob(id, JobOutcome::kCancelled, "drain");
  }
}

void Scheduler::FinalizeReject(JobId id, RejectReason reason) {
  JobRecord& record = records_[id];
  record.outcome = JobOutcome::kRejected;
  record.reject = reason;
  record.finish_cycle = now_;
  switch (reason) {
    case RejectReason::kQueueFull: ++tally_.rejected_full; break;
    case RejectReason::kMalformed: ++tally_.rejected_malformed; break;
    case RejectReason::kQuarantined: ++tally_.rejected_quarantined; break;
    case RejectReason::kDraining: ++tally_.rejected_draining; break;
    case RejectReason::kNone: break;
  }
  Log(StrFormat("@%llu reject job=%u app=%s reason=%s",
                (unsigned long long)now_, id, record.job.app.c_str(),
                std::string(ToString(reason)).c_str()));
}

void Scheduler::FinalizeJob(JobId id, JobOutcome outcome,
                            const std::string& detail) {
  JobRecord& record = records_[id];
  record.outcome = outcome;
  if (!detail.empty()) record.detail = detail;
  record.finish_cycle = now_;
  switch (outcome) {
    case JobOutcome::kSucceeded: ++tally_.succeeded; break;
    case JobOutcome::kAppError: ++tally_.app_error; break;
    case JobOutcome::kFailed: ++tally_.failed; break;
    case JobOutcome::kDeadlineMissed: ++tally_.deadline_missed; break;
    case JobOutcome::kCancelled: ++tally_.cancelled; break;
    case JobOutcome::kPending:
    case JobOutcome::kRejected: break;
  }
  std::string line = StrFormat(
      "@%llu done job=%u outcome=%s exit=%d attempts=%u cycles=%llu",
      (unsigned long long)now_, id,
      std::string(ToString(outcome)).c_str(), record.exit_code,
      record.attempts, (unsigned long long)record.cycles);
  if (outcome != JobOutcome::kSucceeded && !record.detail.empty()) {
    line += StrFormat(" detail=\"%s\"", record.detail.c_str());
  }
  Log(line);
}

void Scheduler::ExpireQueuedDeadlines() {
  for (JobId id : queue_.OrderedIds()) {
    const JobRecord& record = records_[id];
    if (record.job.deadline != 0 && now_ >= record.job.deadline) {
      queue_.Remove(id);
      FinalizeJob(id, JobOutcome::kDeadlineMissed,
                  "deadline expired in queue");
    }
  }
}

void Scheduler::StartLaunches() {
  if (draining_) return;
  ExpireQueuedDeadlines();
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    // A pass may fail an unschedulable job without starting anything —
    // keep trying the slot until it launches or nothing is packable.
    while (!slots_[s]->busy && StartOneLaunch(s)) {
    }
  }
}

bool Scheduler::ProbeInFlight(const std::string& app) const {
  for (const auto& [id, fl] : in_flight_) {
    if (fl->probe && fl->app == app && slots_[fl->slot]->busy &&
        slots_[fl->slot]->launch_id == fl->id) {
      return true;
    }
  }
  return false;
}

bool Scheduler::StartOneLaunch(std::uint32_t s) {
  const std::vector<JobId> ordered = queue_.OrderedIds();
  if (ordered.empty()) return false;
  DeviceSlot& slot = *slots_[s];
  const std::uint64_t capacity = slot.device.memory().capacity();
  const std::uint64_t in_use = slot.device.memory().bytes_in_use();
  const std::uint64_t budget = admission_.MemoryBudget(capacity, in_use);

  for (std::size_t p = 0; p < ordered.size(); ++p) {
    JobRecord& anchor = records_[ordered[p]];
    const std::string& app = anchor.job.app;
    CircuitBreaker& breaker = BreakerFor(app);
    if (breaker.state() == CircuitBreaker::State::kOpen) continue;
    const bool probe = breaker.state() == CircuitBreaker::State::kHalfOpen;
    if (probe && ProbeInFlight(app)) continue;
    const std::uint64_t estimate = admission_.EstimateFor(app);
    if (estimate > budget) {
      if (in_use == 0) {
        // The cleanest device this service will ever have cannot hold the
        // job: admission failure, not a wait.
        queue_.Remove(ordered[p]);
        FinalizeJob(ordered[p], JobOutcome::kFailed,
                    "estimated footprint exceeds the device memory budget");
        return true;
      }
      continue;  // a leaner job may still fit this (dirtied) device
    }

    // Pack same-app jobs behind the anchor while the occupancy team cap
    // and the memory budget allow. With shared data on, a job whose argv
    // already appears in the batch re-attaches instead of materializing —
    // charge it the attach estimate.
    std::vector<JobId> batch;
    std::vector<char> duplicates;
    std::map<std::string, char> seen_argv;
    std::uint64_t mem = 0;
    for (std::size_t q = p;
         q < ordered.size() && batch.size() < admission_.batch_cap(); ++q) {
      JobRecord& candidate = records_[ordered[q]];
      if (candidate.job.app != app) continue;
      const std::string signature = Join(candidate.job.args, "\x1f");
      const bool duplicate = seen_argv.count(signature) != 0;
      const std::uint64_t charge =
          duplicate && config_.share_data
              ? admission_.AttachEstimateFor(app)
              : estimate;
      if (mem + charge > budget) break;
      mem += charge;
      seen_argv[signature] = 1;
      batch.push_back(ordered[q]);
      duplicates.push_back(duplicate ? 1 : 0);
      if (probe) break;  // a half-open app gets exactly one probe job
    }
    if (batch.empty()) continue;

    auto fl = std::make_unique<InFlight>();
    fl->id = next_launch_++;
    fl->slot = s;
    fl->start = now_;
    fl->app = app;
    fl->jobs = batch;
    fl->is_duplicate = std::move(duplicates);
    fl->probe = probe;

    ensemble::EnsembleOptions& options = fl->options;
    static_cast<ensemble::LaunchPolicy&>(options) = config_;
    options.app = app;
    options.thread_limit = config_.thread_limit;
    options.teams_per_block = config_.teams_per_block;

    std::vector<std::uint64_t> budgets(batch.size(), 0);
    bool any_budget = false;
    auto chaos_plan = std::make_unique<sim::FaultPlan>();
    std::string jobs_list;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      JobRecord& record = records_[batch[i]];
      queue_.Remove(batch[i]);
      ++record.attempts;
      options.instance_args.push_back(record.job.args);
      fl->deadline_slot.push_back(record.job.deadline != 0 ? 1 : 0);
      if (record.job.deadline != 0) {
        // Remaining budget becomes this instance's watchdog (the queue
        // sweep guarantees deadline > now). The configured per-instance
        // cap still applies when it is tighter.
        std::uint64_t remaining = record.job.deadline - now_;
        if (config_.instance_watchdog_cycles != 0) {
          remaining = std::min(remaining, config_.instance_watchdog_cycles);
        }
        budgets[i] = remaining;
        any_budget = true;
      }
      // Compile chaos decisions down to launch-level injection. Block
      // granularity: with teams_per_block > 1 a trapped/slowed job takes
      // its block-mates along — the blast radius the §3.1 mapping trades
      // for occupancy.
      const std::uint32_t block =
          std::uint32_t(i) / config_.teams_per_block;
      if (record.job.chaos_trap) chaos_plan->AddTrap(block, 0, 0);
      if (record.job.chaos_slow > 1) {
        chaos_plan->AddSlowdown(block, record.job.chaos_slow);
      }
      jobs_list += StrFormat(i == 0 ? "%u" : ",%u", batch[i]);
    }
    if (any_budget) options.instance_watchdogs = std::move(budgets);
    if (!chaos_plan->empty()) {
      fl->plan = std::move(chaos_plan);
      options.faults = fl->plan.get();
    }
    if (!config_.metrics_prefix.empty()) {
      fl->profiler = std::make_unique<sim::Profiler>();
      options.profiler = fl->profiler.get();
    }

    ++tally_.launches;
    Log(StrFormat("@%llu launch id=%u device=%u app=%s jobs=[%s] teams=%zu%s",
                  (unsigned long long)now_, fl->id, s, app.c_str(),
                  jobs_list.c_str(), batch.size(), probe ? " probe" : ""));
    slot.busy = true;
    slot.launch_id = fl->id;
    in_flight_.emplace(fl->id, std::move(fl));
    return true;
  }
  return false;
}

void Scheduler::ResolveInFlight() {
  std::vector<InFlight*> started;
  for (auto& [id, fl] : in_flight_) {
    if (!fl->resolved) started.push_back(fl.get());
  }
  if (started.empty()) return;
  // Launches started in one pass occupy distinct slots, so their
  // simulations share no state. One launch runs on this thread.
  const unsigned threads = config_.jobs == 0 ? DefaultThreads() : config_.jobs;
  const Status simulated =
      ParallelFor(started.size(), threads, [&](std::size_t i) {
        InFlight& fl = *started[i];
        DeviceSlot& slot = *slots_[fl.slot];
        dgcf::AppEnv env{&slot.device, &slot.rpc, &slot.libc};
        auto result = ensemble::RunEnsemble(env, fl.options);
        if (result.ok()) {
          fl.run = std::move(*result);
        } else {
          fl.launch_error = true;
          fl.error_detail = result.status().message();
        }
      });
  DGC_CHECK(simulated.ok());  // rejects only an empty range or null body
  for (InFlight* fl_ptr : started) {
    InFlight& fl = *fl_ptr;
    fl.resolved = true;
    fl.events_left = fl.jobs.size() + 1;
    const std::uint64_t duration =
        fl.launch_error ? 1 : fl.run.total_cycles();
    const std::uint64_t free_cycle = fl.start + duration;
    for (std::size_t b = 0; b < fl.jobs.size(); ++b) {
      std::uint64_t finish = free_cycle;
      if (!fl.launch_error) {
        finish = std::min(fl.start + fl.run.instances[b].cycles, free_cycle);
        finish = std::max(finish, fl.start + 1);
      }
      PushEvent(Event{finish, EventKind::kJobDone, 0, fl.id,
                      std::uint32_t(b), {}});
    }
    PushEvent(Event{free_cycle, EventKind::kDeviceFree, 0, fl.id, 0, {}});
    if (!config_.metrics_prefix.empty() && !fl.launch_error) {
      ensemble::MetricsInfo info;
      info.app = fl.app;
      info.device = config_.spec.name;
      info.thread_limit = config_.thread_limit;
      info.instances = std::uint32_t(fl.jobs.size());
      info.teams_per_block = config_.teams_per_block;
      const std::string path =
          StrFormat("%s.launch%u.json", config_.metrics_prefix.c_str(),
                    fl.id);
      const Status written =
          ensemble::WriteMetricsJson(path, info, fl.run, fl.profiler.get());
      if (!written.ok()) {
        Log(StrFormat("@%llu metrics-error launch=%u %s",
                      (unsigned long long)now_, fl.id,
                      written.message().c_str()));
      }
    }
    // App stdout stays in the slot's RPC buffer; clear it between
    // launches so a long-lived service does not accumulate it.
    slots_[fl.slot]->rpc.ClearStdout();
  }
}

void Scheduler::FailStalledQueue() {
  for (JobId id : queue_.TakeAll()) {
    FinalizeJob(id, JobOutcome::kFailed,
                "unschedulable: no device can ever serve this job");
  }
}

ServeReport Scheduler::report() const {
  ServeReport report = tally_;
  report.peak_queue_depth = queue_.peak_depth();
  report.final_cycle = now_;
  return report;
}

ServeReport Scheduler::WriteReport() {
  const ServeReport report_out = report();
  Log(StrFormat(
      "report: submitted=%llu admitted=%llu succeeded=%llu app-error=%llu "
      "failed=%llu deadline-missed=%llu cancelled=%llu",
      (unsigned long long)report_out.submitted,
      (unsigned long long)report_out.admitted,
      (unsigned long long)report_out.succeeded,
      (unsigned long long)report_out.app_error,
      (unsigned long long)report_out.failed,
      (unsigned long long)report_out.deadline_missed,
      (unsigned long long)report_out.cancelled));
  Log(StrFormat(
      "report: rejected queue-full=%llu malformed=%llu quarantined=%llu "
      "draining=%llu",
      (unsigned long long)report_out.rejected_full,
      (unsigned long long)report_out.rejected_malformed,
      (unsigned long long)report_out.rejected_quarantined,
      (unsigned long long)report_out.rejected_draining));
  Log(StrFormat(
      "report: launches=%llu retries=%llu quarantines=%llu peak-queue=%llu "
      "final-cycle=%llu drained=%d exit=%d",
      (unsigned long long)report_out.launches,
      (unsigned long long)report_out.retries,
      (unsigned long long)report_out.quarantines,
      (unsigned long long)report_out.peak_queue_depth,
      (unsigned long long)report_out.final_cycle, report_out.drained ? 1 : 0,
      report_out.ok() ? 0 : 1));
  return report_out;
}

}  // namespace dgc::serve
