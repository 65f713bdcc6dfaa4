// The service-level robustness contract, end to end: bounded-queue
// backpressure, occupancy/memory admission, per-job deadlines, retry with
// backoff, per-app circuit breaking, graceful drain, seeded chaos — and
// byte-identical replay of the outcome log for any host-thread count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "dgcf/app.h"
#include "dgcf/libc.h"
#include "dgcf/loader.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "ompx/team.h"
#include "serve/admission.h"
#include "serve/chaos.h"
#include "serve/policy.h"
#include "serve/queue.h"
#include "serve/scheduler.h"
#include "serve/stream.h"

namespace dgc::serve {
namespace {

using dgcf::AppEnv;
using dgcf::DeviceArgv;
using dgcf::DeviceLibc;
using ompx::TeamCtx;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::ThreadCtx;

// A service probe app, one behavior per flag:
//   -x <code>  return <code>
//   -h         hang until a watchdog fires
//   -a         abort()
//   -w <n>     n units of well-behaved compute
//   -b <n>     allocate and free an <n>-byte buffer (footprint probe)
DeviceTask<int> ServeProbeMain(AppEnv& env, TeamCtx& team, int argc,
                               DeviceArgv argv) {
  ThreadCtx& ctx = *team.hw;
  for (int i = 1; i < argc; ++i) {
    if (DeviceLibc::StrCmp(argv[i], "-x") == 0 && i + 1 < argc) {
      co_return int(std::strtol(DeviceLibc::ToString(argv[++i]).c_str(),
                                nullptr, 10));
    } else if (DeviceLibc::StrCmp(argv[i], "-h") == 0) {
      while (true) co_await ctx.Work(100);
    } else if (DeviceLibc::StrCmp(argv[i], "-a") == 0) {
      DeviceLibc::Abort();
    } else if (DeviceLibc::StrCmp(argv[i], "-w") == 0 && i + 1 < argc) {
      const long reps =
          std::strtol(DeviceLibc::ToString(argv[++i]).c_str(), nullptr, 10);
      for (long r = 0; r < reps; ++r) co_await ctx.Work(50);
    } else if (DeviceLibc::StrCmp(argv[i], "-b") == 0 && i + 1 < argc) {
      const long bytes =
          std::strtol(DeviceLibc::ToString(argv[++i]).c_str(), nullptr, 10);
      auto buf = co_await env.libc->MallocOrTrap(ctx, std::uint64_t(bytes));
      co_await env.libc->Free(ctx, buf.addr);
    } else {
      co_return dgcf::kExitUsage;
    }
  }
  co_return 0;
}

DGC_REGISTER_APP(serveprobe, "service probe", ServeProbeMain)
DGC_REGISTER_APP(servealt, "second tenant probe", ServeProbeMain)

JobRequest Req(const char* app, std::vector<std::string> args,
               std::uint64_t at = 0, std::uint64_t deadline = 0,
               std::int64_t prio = 0) {
  JobRequest r;
  r.app = app;
  r.args = std::move(args);
  r.at = at;
  r.deadline_budget = deadline;
  r.priority = prio;
  return r;
}

ServeConfig BaseConfig() {
  ServeConfig config;
  config.spec = DeviceSpec::TestDevice();
  config.thread_limit = 4;
  config.queue_capacity = 16;
  config.jobs = 1;
  return config;
}

// ---------------------------------------------------------------------------
// Stream parsing

TEST(JobStream, ParsesDirectivesAndArgv) {
  auto requests = ParseJobStream(
      "# comment\n"
      "serveprobe -w 2\n"
      "@at=100 @deadline=5000 @prio=3 serveprobe -x 1 \"a b\"\n");
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 2u);
  EXPECT_EQ((*requests)[0].app, "serveprobe");
  EXPECT_EQ((*requests)[0].args, (std::vector<std::string>{"-w", "2"}));
  EXPECT_EQ((*requests)[1].at, 100u);
  EXPECT_EQ((*requests)[1].deadline_budget, 5000u);
  EXPECT_EQ((*requests)[1].priority, 3);
  EXPECT_EQ((*requests)[1].args,
            (std::vector<std::string>{"-x", "1", "a b"}));
}

TEST(JobStream, ArrivalsNeverGoBackwards) {
  auto requests = ParseJobStream(
      "@at=500 serveprobe -w 1\n"
      "serveprobe -w 1\n"
      "@at=100 serveprobe -w 1\n");
  ASSERT_TRUE(requests.ok());
  EXPECT_EQ((*requests)[0].at, 500u);
  EXPECT_EQ((*requests)[1].at, 500u);  // inherits
  EXPECT_EQ((*requests)[2].at, 500u);  // clamped
}

TEST(JobStream, RejectsBadDirectivesAndEmptyApp) {
  EXPECT_FALSE(ParseJobStream("@bogus=1 serveprobe\n").ok());
  EXPECT_FALSE(ParseJobStream("@at=x serveprobe\n").ok());
  EXPECT_FALSE(ParseJobStream("@at=5\n").ok());  // directives, no app
}

// ---------------------------------------------------------------------------
// Bounded queue

TEST(BoundedQueue, RejectsAtCapacityAndTracksPeak) {
  BoundedJobQueue queue(2);
  EXPECT_TRUE(queue.Push(0, 0).ok());
  EXPECT_TRUE(queue.Push(1, 0).ok());
  EXPECT_FALSE(queue.Push(2, 0).ok());
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.peak_depth(), 2u);
  EXPECT_TRUE(queue.Remove(0));
  EXPECT_FALSE(queue.Remove(0));
  EXPECT_TRUE(queue.Push(2, 0).ok());
}

TEST(BoundedQueue, OrdersByPriorityThenFifo) {
  BoundedJobQueue queue(8);
  ASSERT_TRUE(queue.Push(0, 0).ok());
  ASSERT_TRUE(queue.Push(1, 5).ok());
  ASSERT_TRUE(queue.Push(2, 0).ok());
  ASSERT_TRUE(queue.Push(3, 5).ok());
  EXPECT_EQ(queue.OrderedIds(), (std::vector<JobId>{1, 3, 0, 2}));
}

// ---------------------------------------------------------------------------
// Policy

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  config.cooldown = 1000;
  CircuitBreaker breaker(config);
  EXPECT_FALSE(breaker.RecordFailure(10));
  EXPECT_FALSE(breaker.RecordFailure(20));
  breaker.RecordSuccess();  // resets the streak
  EXPECT_FALSE(breaker.RecordFailure(30));
  EXPECT_FALSE(breaker.RecordFailure(40));
  EXPECT_TRUE(breaker.RecordFailure(50));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_until(), 1050u);
  EXPECT_TRUE(breaker.Rejecting());
}

TEST(CircuitBreaker, ProbeFailureDoublesCooldownProbeSuccessCloses) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.cooldown = 1000;
  config.max_cooldown_multiplier = 4;
  CircuitBreaker breaker(config);
  EXPECT_TRUE(breaker.RecordFailure(0));
  breaker.HalfOpen();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Rejecting());  // the probe may run
  // Escalation kicks in from the second failed probe: each reopen applies
  // the current multiplier, then doubles it (capped).
  EXPECT_TRUE(breaker.RecordFailure(2000));  // probe failed: reopen
  EXPECT_EQ(breaker.open_until(), 2000u + 1000u);
  breaker.HalfOpen();
  EXPECT_TRUE(breaker.RecordFailure(5000));
  EXPECT_EQ(breaker.open_until(), 5000u + 1000u * 2u);
  breaker.HalfOpen();
  EXPECT_TRUE(breaker.RecordFailure(9000));
  EXPECT_EQ(breaker.open_until(), 9000u + 1000u * 4u);  // capped at 4x
  breaker.HalfOpen();
  EXPECT_TRUE(breaker.RecordFailure(20000));
  EXPECT_EQ(breaker.open_until(), 20000u + 1000u * 4u);
  breaker.HalfOpen();
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(breaker.Rejecting());
}

TEST(RetryPolicy, BackoffDoublesPerAttempt) {
  RetryPolicy policy;
  policy.backoff_base = 100;
  EXPECT_EQ(policy.BackoffDelay(1), 100u);
  EXPECT_EQ(policy.BackoffDelay(2), 200u);
  EXPECT_EQ(policy.BackoffDelay(3), 400u);
}

// ---------------------------------------------------------------------------
// Chaos

TEST(Chaos, ParseRoundTripAndOrdinalDecisions) {
  auto plan = ChaosPlan::Parse("seed@9;malformed@2;trap@3,4;slow@5.x8");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->ToString(), "seed@9;malformed@2;trap@3,4;slow@5.x8");
  EXPECT_TRUE(plan->Decide(2).malformed);
  EXPECT_FALSE(plan->Decide(1).malformed);
  EXPECT_TRUE(plan->Decide(3).trap);
  EXPECT_TRUE(plan->Decide(4).trap);
  EXPECT_EQ(plan->Decide(5).slow_factor, 8u);
  EXPECT_EQ(plan->Decide(3).slow_factor, 1u);
}

TEST(Chaos, ProbabilisticDecisionsAreSeededAndStateless) {
  auto plan = ChaosPlan::Parse("seed@11;trap@p50");
  ASSERT_TRUE(plan.ok());
  // Stateless: the same ordinal always decides the same way, regardless of
  // evaluation order; ~half the ordinals trap.
  int traps = 0;
  for (std::uint64_t n = 1; n <= 100; ++n) {
    const bool first = plan->Decide(n).trap;
    EXPECT_EQ(first, plan->Decide(n).trap);
    traps += first ? 1 : 0;
  }
  EXPECT_GT(traps, 25);
  EXPECT_LT(traps, 75);
}

TEST(Chaos, ParseErrors) {
  EXPECT_FALSE(ChaosPlan::Parse("trap@").ok());
  EXPECT_FALSE(ChaosPlan::Parse("slow@2").ok());        // missing .x factor
  EXPECT_FALSE(ChaosPlan::Parse("slow@2.x0").ok());     // factor < 1
  EXPECT_FALSE(ChaosPlan::Parse("nonsense@1").ok());
  EXPECT_FALSE(ChaosPlan::Parse("malformed@p200").ok());
}

// ---------------------------------------------------------------------------
// Admission

TEST(Admission, OccupancyTeamCapAndMemoryBudget) {
  AdmissionConfig config;
  config.default_estimate = 1000;
  config.headroom = 0.5;
  AdmissionController admission(config);
  ASSERT_TRUE(admission.Init(DeviceSpec::TestDevice(), 4, 1).ok());
  // TestDevice: 2 SMs x 4 block slots = 8 resident blocks at tiny shapes.
  EXPECT_EQ(admission.team_cap(), 8u);
  EXPECT_EQ(admission.batch_cap(), 8u);
  EXPECT_EQ(admission.MemoryBudget(1000, 0), 500u);
  EXPECT_EQ(admission.MemoryBudget(1000, 400), 100u);
  EXPECT_EQ(admission.MemoryBudget(1000, 600), 0u);
}

TEST(Admission, EstimatesLearnFromObservation) {
  AdmissionConfig config;
  config.default_estimate = 1000;
  AdmissionController admission(config);
  EXPECT_EQ(admission.EstimateFor("app"), 1000u);
  EXPECT_EQ(admission.AttachEstimateFor("app"), 250u);  // default/4
  admission.Observe("app", 8000);
  EXPECT_EQ(admission.EstimateFor("app"), 9000u);  // peak + peak/8
  admission.Observe("app", 4000);                  // never shrinks
  EXPECT_EQ(admission.EstimateFor("app"), 9000u);
  admission.ObserveAttach("app", 800);
  EXPECT_EQ(admission.AttachEstimateFor("app"), 900u);
}

TEST(Admission, BatchCapHonorsMaxBatch) {
  AdmissionConfig config;
  config.max_batch = 3;
  AdmissionController admission(config);
  ASSERT_TRUE(admission.Init(DeviceSpec::TestDevice(), 4, 1).ok());
  EXPECT_EQ(admission.batch_cap(), 3u);
}

// ---------------------------------------------------------------------------
// Scheduler end to end

TEST(Scheduler, PacksJobsAndCompletesThem) {
  ServeConfig config = BaseConfig();
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({Req("serveprobe", {"-w", "2"}),
                           Req("serveprobe", {"-w", "3"}),
                           Req("serveprobe", {"-w", "1"})});
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_EQ(report.submitted, 3u);
  EXPECT_EQ(report.succeeded, 3u);
  EXPECT_EQ(report.launches, 1u);  // one packed launch — the paper's point
  EXPECT_TRUE(report.ok());
}

TEST(Scheduler, FullQueueRejectsInsteadOfHanging) {
  ServeConfig config = BaseConfig();
  config.queue_capacity = 2;
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  std::vector<JobRequest> burst;
  for (int i = 0; i < 5; ++i) burst.push_back(Req("serveprobe", {"-w", "1"}));
  scheduler.EnqueueStream(burst);
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_EQ(report.admitted, 2u);
  EXPECT_EQ(report.rejected_full, 3u);
  EXPECT_EQ(report.succeeded, 2u);
  // Backpressure is not failure: the service itself is healthy.
  EXPECT_TRUE(report.ok());
  for (JobId id = 2; id < 5; ++id) {
    EXPECT_EQ(scheduler.records()[id].outcome, JobOutcome::kRejected);
    EXPECT_EQ(scheduler.records()[id].reject, RejectReason::kQueueFull);
  }
}

TEST(Scheduler, AppErrorCountsAgainstExitButCompletes) {
  ServeConfig config = BaseConfig();
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream(
      {Req("serveprobe", {"-x", "3"}), Req("serveprobe", {"-w", "1"})});
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_EQ(report.app_error, 1u);
  EXPECT_EQ(report.succeeded, 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(scheduler.records()[0].exit_code, 3);
}

TEST(Scheduler, UnregisteredAppIsMalformed) {
  ServeConfig config = BaseConfig();
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({Req("ghost", {"-w", "1"})});
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.report().rejected_malformed, 1u);
  EXPECT_TRUE(scheduler.report().ok());  // never admitted
}

TEST(Scheduler, QuarantineStopsBadTenantWhileOthersComplete) {
  ServeConfig config = BaseConfig();
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown = 1 << 20;  // stay quarantined for the test
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({
      Req("serveprobe", {"-a"}),            // abort
      Req("serveprobe", {"-a"}),            // abort → breaker opens
      Req("servealt", {"-w", "2"}),         // healthy tenant
      Req("serveprobe", {"-w", "1"}, 60000),  // arrives while quarantined
      Req("servealt", {"-w", "2"}, 60000),  // healthy tenant keeps flowing
  });
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_EQ(report.quarantines, 1u);
  EXPECT_EQ(report.failed, 2u);
  EXPECT_EQ(report.rejected_quarantined, 1u);
  EXPECT_EQ(report.succeeded, 2u);  // both servealt jobs
  EXPECT_EQ(scheduler.records()[3].reject, RejectReason::kQuarantined);
  EXPECT_EQ(scheduler.records()[2].outcome, JobOutcome::kSucceeded);
  EXPECT_EQ(scheduler.records()[4].outcome, JobOutcome::kSucceeded);
}

TEST(Scheduler, HalfOpenProbeClosesBreakerAgain) {
  ServeConfig config = BaseConfig();
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown = 10000;
  config.chaos = *ChaosPlan::Parse("trap@1");  // only the first job traps
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({
      Req("serveprobe", {"-w", "1"}),           // chaos-trapped → quarantine
      Req("serveprobe", {"-w", "1"}, 200000),   // after cooldown: the probe
      Req("serveprobe", {"-w", "1"}, 200000),   // runs once probe succeeds
  });
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_EQ(report.quarantines, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.succeeded, 2u);
}

TEST(Scheduler, DeadlineMissedInQueueAndAtRuntime) {
  ServeConfig config = BaseConfig();
  config.retry.job_attempts = 3;  // deadline misses must NOT retry
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({
      Req("serveprobe", {"-h"}, 0, 5000),     // hang: watchdog = deadline
      Req("servealt", {"-w", "2"}, 10, 1),    // expires while queued
  });
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_EQ(report.deadline_missed, 2u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(scheduler.records()[0].outcome, JobOutcome::kDeadlineMissed);
  EXPECT_EQ(scheduler.records()[0].attempts, 1u);
  EXPECT_EQ(scheduler.records()[1].outcome, JobOutcome::kDeadlineMissed);
  EXPECT_EQ(scheduler.records()[1].attempts, 0u);
  EXPECT_FALSE(report.ok());
}

TEST(Scheduler, RetryWithBackoffThenPermanentFailure) {
  ServeConfig config = BaseConfig();
  config.instance_watchdog_cycles = 4000;  // config watchdog, not deadline
  config.retry.job_attempts = 2;
  config.retry.backoff_base = 1000;
  config.breaker.failure_threshold = 0;  // isolate retry from quarantine
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({Req("serveprobe", {"-h"})});
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(scheduler.records()[0].attempts, 2u);
  EXPECT_EQ(scheduler.records()[0].outcome, JobOutcome::kFailed);
}

TEST(Scheduler, ChaosTrapAndSlowCompileToLaunchFaults) {
  ServeConfig config = BaseConfig();
  config.chaos = *ChaosPlan::Parse("trap@1;slow@2.x4");
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({Req("serveprobe", {"-w", "4"}),
                           Req("serveprobe", {"-w", "4"}),
                           Req("serveprobe", {"-w", "4"})});
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.report().failed, 1u);
  EXPECT_EQ(scheduler.report().succeeded, 2u);
  EXPECT_EQ(scheduler.records()[0].outcome, JobOutcome::kFailed);
  // The slowed job burns ~4x the cycles of its identical sibling.
  EXPECT_GT(scheduler.records()[1].cycles,
            scheduler.records()[2].cycles * 2);
}

TEST(Scheduler, ChaosMalformedRejectsAtSubmit) {
  ServeConfig config = BaseConfig();
  config.chaos = *ChaosPlan::Parse("malformed@2");
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream(
      {Req("serveprobe", {"-w", "1"}), Req("serveprobe", {"-w", "1"})});
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.report().rejected_malformed, 1u);
  EXPECT_EQ(scheduler.report().succeeded, 1u);
  EXPECT_TRUE(scheduler.report().ok());
}

TEST(Scheduler, DrainFinishesInFlightCancelsQueuedRejectsNew) {
  ServeConfig config = BaseConfig();
  config.drain_at = 1000;
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({
      Req("serveprobe", {"-w", "50"}),        // in flight at the drain point
      Req("servealt", {"-w", "2"}),           // still queued (other app)
      Req("serveprobe", {"-w", "1"}, 2000),   // arrives after the drain
  });
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.succeeded, 1u);  // the in-flight launch completed
  EXPECT_EQ(report.cancelled, 1u);
  EXPECT_EQ(report.rejected_draining, 1u);
  EXPECT_EQ(scheduler.records()[0].outcome, JobOutcome::kSucceeded);
  EXPECT_EQ(scheduler.records()[1].outcome, JobOutcome::kCancelled);
  EXPECT_EQ(scheduler.records()[2].reject, RejectReason::kDraining);
  EXPECT_TRUE(report.ok());  // cancelled/rejected are not failures
}

TEST(Scheduler, RequestDrainIsTheSignalPath) {
  ServeConfig config = BaseConfig();
  bool want_drain = false;
  config.drain_poll = [&want_drain] { return want_drain; };
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({Req("serveprobe", {"-w", "1"})});
  ASSERT_TRUE(scheduler.Run().ok());
  want_drain = true;
  scheduler.EnqueueStream({Req("serveprobe", {"-w", "1"})});
  ASSERT_TRUE(scheduler.Run().ok());
  const ServeReport report = scheduler.report();
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.succeeded, 1u);
  EXPECT_EQ(report.rejected_draining, 1u);
}

TEST(Scheduler, OversizedJobFailsInsteadOfStalling) {
  ServeConfig config = BaseConfig();
  // TestDevice has 64 MiB; an estimate beyond headroom can never fit.
  config.admission.default_estimate = std::uint64_t(1) << 40;
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({Req("serveprobe", {"-w", "1"})});
  ASSERT_TRUE(scheduler.Run().ok());  // terminates — never hangs
  EXPECT_EQ(scheduler.report().failed, 1u);
  EXPECT_EQ(scheduler.records()[0].outcome, JobOutcome::kFailed);
}

TEST(Scheduler, PriorityJobsDispatchFirst) {
  ServeConfig config = BaseConfig();
  config.admission.max_batch = 1;  // serialize launches to expose order
  Scheduler scheduler(std::move(config));
  ASSERT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({Req("serveprobe", {"-w", "2"}, 0, 0, 0),
                           Req("serveprobe", {"-w", "2"}, 0, 0, 7)});
  ASSERT_TRUE(scheduler.Run().ok());
  // The high-priority job launched first, so it finished first.
  EXPECT_LT(scheduler.records()[1].finish_cycle,
            scheduler.records()[0].finish_cycle);
}

std::string RunLogged(unsigned jobs, std::uint32_t devices) {
  ServeConfig config = BaseConfig();
  config.jobs = jobs;
  config.devices = devices;
  config.retry.job_attempts = 2;
  config.breaker.failure_threshold = 2;
  config.chaos = *ChaosPlan::Parse("seed@5;trap@p20;slow@p10.x4");
  std::ostringstream log;
  config.log = &log;
  Scheduler scheduler(std::move(config));
  EXPECT_TRUE(scheduler.Init().ok());
  std::vector<JobRequest> stream;
  for (int i = 0; i < 12; ++i) {
    stream.push_back(Req(i % 3 == 0 ? "servealt" : "serveprobe",
                         {"-w", i % 2 == 0 ? "2" : "5"},
                         std::uint64_t(i) * 700));
  }
  stream.push_back(Req("serveprobe", {"-h"}, 9000, 6000));
  EXPECT_TRUE(scheduler.Run().ok());
  scheduler.EnqueueStream(stream);
  EXPECT_TRUE(scheduler.Run().ok());
  // Every launch is retired once its completion events are handled.
  EXPECT_EQ(scheduler.live_launches(), 0u);
  scheduler.WriteReport();
  return log.str();
}

TEST(Scheduler, OutcomeLogIsByteIdenticalAcrossJobsAndReplay) {
  const std::string serial = RunLogged(1, 2);
  const std::string threaded = RunLogged(4, 2);
  const std::string replay = RunLogged(1, 2);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(serial, replay);
}

// Two tenants arriving at one cycle on two device slots: one packing pass
// starts both launches, so ResolveInFlight simulates them together on up to
// `jobs` threads. Their work is identical, so their completions also tie
// on cycle and the log pins the order their events were pushed in.
std::string RunSameCycleLaunches(unsigned jobs) {
  ServeConfig config = BaseConfig();
  config.jobs = jobs;
  config.devices = 2;
  std::ostringstream log;
  config.log = &log;
  Scheduler scheduler(std::move(config));
  EXPECT_TRUE(scheduler.Init().ok());
  scheduler.EnqueueStream({Req("serveprobe", {"-w", "4"}, 500),
                           Req("servealt", {"-w", "4"}, 500)});
  EXPECT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.report().launches, 2u);
  EXPECT_EQ(scheduler.report().succeeded, 2u);
  EXPECT_EQ(scheduler.records()[0].finish_cycle,
            scheduler.records()[1].finish_cycle);
  scheduler.WriteReport();
  return log.str();
}

TEST(Scheduler, SameCycleLaunchesFanOutWithIdenticalLog) {
  const std::string serial = RunSameCycleLaunches(1);
  std::vector<std::string> launches;
  std::istringstream lines(serial);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" launch ") != std::string::npos) launches.push_back(line);
  }
  ASSERT_EQ(launches.size(), 2u) << serial;
  EXPECT_EQ(launches[0].substr(0, launches[0].find(' ')), "@500");
  EXPECT_EQ(launches[1].substr(0, launches[1].find(' ')), "@500");
  EXPECT_NE(launches[0].find("device=0"), std::string::npos);
  EXPECT_NE(launches[1].find("device=1"), std::string::npos);
  EXPECT_EQ(RunSameCycleLaunches(2), serial);
  EXPECT_EQ(RunSameCycleLaunches(4), serial);
}

// ---------------------------------------------------------------------------
// Loader support: per-instance watchdog budgets

TEST(InstanceWatchdogs, PerInstanceBudgetsOverrideTheGlobal) {
  sim::Device device{DeviceSpec::TestDevice()};
  dgcf::RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv env{&device, &rpc, &libc};
  ensemble::EnsembleOptions options;
  options.app = "serveprobe";
  options.instance_args = {{"-h"}, {"-w", "2"}, {"-h"}};
  options.thread_limit = 4;
  // Global budget generous; instance 0 gets a tight personal budget.
  options.instance_watchdog_cycles = 500000;
  options.instance_watchdogs = {3000, 0, 0};
  auto run = ensemble::RunEnsemble(env, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->instances[0].reason, dgcf::TerminationReason::kWatchdog);
  EXPECT_EQ(run->instances[1].reason, dgcf::TerminationReason::kReturned);
  EXPECT_EQ(run->instances[2].reason, dgcf::TerminationReason::kWatchdog);
  // Instance 0's tight budget fires far earlier than instance 2's global.
  EXPECT_LT(run->instances[0].cycles, run->instances[2].cycles);
}

TEST(InstanceWatchdogs, SizeMismatchIsRejected) {
  sim::Device device{DeviceSpec::TestDevice()};
  dgcf::RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv env{&device, &rpc, &libc};
  ensemble::EnsembleOptions options;
  options.app = "serveprobe";
  options.instance_args = {{"-w", "1"}, {"-w", "1"}};
  options.thread_limit = 4;
  options.instance_watchdogs = {100};  // 1 entry, 2 instances
  EXPECT_FALSE(ensemble::RunEnsemble(env, options).ok());
}

}  // namespace
}  // namespace dgc::serve
