// The ensemble service scheduler: a simulated-time event loop that packs a
// job stream into ensemble launches.
//
// Where a batch loader runs once and exits, the service runs an event loop
// in *virtual device time*: arrivals, launch completions, retry backoffs,
// quarantine probes, and the drain point are all events on one totally
// ordered queue (cycle, kind, sequence). Launch durations come from the
// simulator itself — a launch started at cycle T whose simulation reports
// C cycles completes at T+C — so the loop is driven by completions, not by
// wall-clock. The loop thread simulates each launch; launches that start
// in the same packing pass (on different device slots) may be simulated on
// up to `jobs` host threads at once. Every scheduling decision happens on
// the loop thread at a deterministic virtual time. Same seed + same job
// stream ⇒ byte-identical outcome log and metrics sidecars for any --jobs
// value.
//
// Robustness mechanisms (see docs/MODEL.md "Failure semantics"):
//   admission   occupancy team cap + learned memory estimates (admission.h)
//   backpressure bounded queue, reject-with-reason (queue.h)
//   deadlines   per-job budgets lowered onto instance watchdogs
//   retry       exponential backoff + per-wave team-cap shrink (policy.h)
//   quarantine  per-app circuit breaker with half-open probes (policy.h)
//   drain       finish in-flight, cancel queued, reject new, final report
//   chaos       seeded service-level fault schedule (chaos.h)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <queue>
#include <string>
#include <vector>

#include "ensemble/loader.h"
#include "serve/admission.h"
#include "serve/chaos.h"
#include "serve/job.h"
#include "serve/policy.h"
#include "serve/queue.h"
#include "gpusim/device_spec.h"
#include "support/status.h"

namespace dgc::serve {

/// The LaunchPolicy base is every launch's policy (its retries are waves
/// within a launch; `retry` is the service-level policy).
struct ServeConfig : ensemble::LaunchPolicy {
  sim::DeviceSpec spec;            ///< one spec shared by every device slot
  std::uint32_t thread_limit = 128;
  std::uint32_t teams_per_block = 1;
  std::uint32_t devices = 1;       ///< independent device slots
  /// Host threads simulating launches started in one pass (0 = hardware).
  unsigned jobs = 1;
  std::size_t queue_capacity = 16;
  AdmissionConfig admission;
  RetryPolicy retry;
  CircuitBreaker::Config breaker;
  ChaosPlan chaos;
  /// Deterministic drain point in service cycles (0 = none): the scripted
  /// stand-in for SIGTERM in replayable runs.
  std::uint64_t drain_at = 0;
  /// Polled once per loop iteration; returning true begins the drain. The
  /// CLI wires its SIGTERM flag here — the scheduler itself stays
  /// signal-free and testable.
  std::function<bool()> drain_poll;
  std::ostream* log = nullptr;     ///< outcome log sink (null = silent)
  /// When non-empty, each launch writes `<prefix>.launch<N>.json`
  /// (dgc-metrics-v1, profiled).
  std::string metrics_prefix;
};

/// The final report — also serialized as the log's trailing lines.
struct ServeReport {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_quarantined = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t app_error = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t retries = 0;
  std::uint64_t launches = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t final_cycle = 0;
  bool drained = false;

  /// Service success: no *admitted* job ended abnormally. Rejections are
  /// backpressure doing its job; cancellations are the drain's.
  bool ok() const {
    return app_error == 0 && failed == 0 && deadline_missed == 0;
  }
};

class Scheduler {
 public:
  explicit Scheduler(ServeConfig config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Builds device slots and the admission caps. Call once before Run.
  Status Init();

  /// Appends parsed requests as arrival events (arrival cycle = the later
  /// of the request's @at and the current virtual time).
  void EnqueueStream(const std::vector<JobRequest>& requests);

  /// Runs the event loop until no events remain and every device is idle
  /// (or the drain finished). Re-entrant: a follow-mode front end may
  /// alternate EnqueueStream and Run. Never hangs: a queue the devices can
  /// never serve fails deterministically instead of stalling.
  Status Run();

  /// Begins a graceful drain (idempotent): in-flight launches finish,
  /// queued jobs are cancelled, new work is rejected.
  void RequestDrain();
  bool draining() const { return draining_; }

  /// Writes the `report:` block to the log and returns the report.
  ServeReport WriteReport();

  const std::vector<JobRecord>& records() const { return records_; }
  ServeReport report() const;
  std::uint64_t now() const { return now_; }
  /// Launches started and not yet retired; 0 whenever Run has returned.
  std::size_t live_launches() const { return in_flight_.size(); }

 private:
  struct DeviceSlot;
  struct InFlight;

  enum class EventKind : std::uint8_t {
    // Completion events sort before arrivals at the same cycle: freed
    // capacity and queue slots are visible to same-cycle admissions.
    kJobDone = 0,
    kDeviceFree,
    kBreakerProbe,
    kDrain,
    kArrival,
  };

  struct Event {
    std::uint64_t cycle = 0;
    EventKind kind = EventKind::kArrival;
    std::uint64_t seq = 0;  ///< tiebreak: creation order
    std::uint32_t a = 0;    ///< job id / launch id / slot
    std::uint32_t b = 0;    ///< slot-in-batch / flags
    std::string app;        ///< breaker-probe target

    bool operator>(const Event& other) const {
      if (cycle != other.cycle) return cycle > other.cycle;
      if (kind != other.kind) return kind > other.kind;
      return seq > other.seq;
    }
  };

  void PushEvent(Event event);
  void Log(const std::string& line);
  CircuitBreaker& BreakerFor(const std::string& app);

  void HandleArrival(const Event& event);
  void HandleJobDone(const Event& event);
  void HandleDeviceFree(const Event& event);
  void LaunchEventHandled(std::uint32_t launch_id);
  void HandleBreakerProbe(const Event& event);
  void BeginDrain(const char* reason);
  void FinalizeReject(JobId id, RejectReason reason);
  void FinalizeJob(JobId id, JobOutcome outcome, const std::string& detail);
  void ExpireQueuedDeadlines();
  void StartLaunches();
  bool StartOneLaunch(std::uint32_t slot);
  bool ProbeInFlight(const std::string& app) const;
  void ResolveInFlight();
  void FailStalledQueue();

  ServeConfig config_;
  bool initialized_ = false;
  bool draining_ = false;
  std::uint64_t now_ = 0;
  std::uint64_t event_seq_ = 0;
  std::uint64_t arrival_floor_ = 0;   ///< arrivals never go backwards
  std::uint64_t next_ordinal_ = 0;    ///< submission ordinals (chaos key)
  std::uint32_t next_launch_ = 0;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::vector<JobRecord> records_;    ///< indexed by JobId
  BoundedJobQueue queue_;
  AdmissionController admission_;
  std::map<std::string, CircuitBreaker> breakers_;
  std::vector<std::unique_ptr<DeviceSlot>> slots_;
  /// Live launches by id: started and not yet retired (see InFlight).
  std::map<std::uint32_t, std::unique_ptr<InFlight>> in_flight_;
  ServeReport tally_;                 ///< counters not derivable from records
};

}  // namespace dgc::serve
