// Failure policy: service-level retry backoff and per-app circuit breaking.
//
// PR 3's loader already retries *within* a launch (waves with team-cap
// shrink). The service layers two more mechanisms on top:
//
//  - RetryPolicy: a job whose launch attempt terminated abnormally is
//    re-enqueued after an exponential backoff delay, up to a per-job
//    attempt budget. Backoff is in simulated cycles, so retries interleave
//    deterministically with the rest of the event stream.
//
//  - CircuitBreaker (one per app): an app whose jobs trap K times in a row
//    would otherwise poison every wave it is packed into. After K
//    consecutive abnormal terminations the breaker opens — new submissions
//    for the app are rejected (kQuarantined) and queued jobs wait — for a
//    cooldown period. It then half-opens: the scheduler launches a single
//    probe job; success closes the breaker, failure re-opens it with a
//    doubled cooldown (capped). Classic closed → open → half-open.
#pragma once

#include <cstdint>

namespace dgc::serve {

struct RetryPolicy {
  /// Total service-level launch attempts per job (1 = no retry). Distinct
  /// from EnsembleOptions::max_attempts, which retries *within* a launch.
  std::uint32_t job_attempts = 1;
  /// Backoff before attempt N+1 = backoff_base << (N-1) cycles.
  std::uint64_t backoff_base = 4096;

  /// Delay after `attempts` consumed attempts (>= 1). Shift-saturated.
  std::uint64_t BackoffDelay(std::uint32_t attempts) const {
    const std::uint32_t shift = attempts >= 1 ? attempts - 1 : 0;
    if (shift >= 32) return backoff_base << 32;
    return backoff_base << shift;
  }
};

class CircuitBreaker {
 public:
  struct Config {
    /// Consecutive abnormal terminations that open the breaker.
    /// 0 disables circuit breaking entirely.
    std::uint32_t failure_threshold = 3;
    /// Cooldown cycles while open before the half-open probe.
    std::uint64_t cooldown = 65536;
    /// Cap on the cooldown multiplier doubled by each failed probe.
    std::uint64_t max_cooldown_multiplier = 8;
  };

  enum class State : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

  explicit CircuitBreaker(const Config& config) : config_(config) {}

  State state() const { return state_; }
  /// Cycle at which an open breaker half-opens for its probe.
  std::uint64_t open_until() const { return open_until_; }

  /// A job of this app completed execution: closes the breaker and resets
  /// the failure streak and cooldown.
  void RecordSuccess();

  /// A job of this app terminated abnormally at `now`. Returns true when
  /// this failure (re)opened the breaker — the caller quarantines the app
  /// and schedules a probe at open_until(). A failure while half-open
  /// re-opens immediately with a doubled cooldown.
  bool RecordFailure(std::uint64_t now);

  /// The cooldown elapsed: the breaker admits exactly one probe job.
  void HalfOpen();

  /// True when new submissions for this app are turned away.
  bool Rejecting() const { return state_ == State::kOpen; }

 private:
  Config config_;
  State state_ = State::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  std::uint64_t open_until_ = 0;
  std::uint64_t cooldown_multiplier_ = 1;
};

}  // namespace dgc::serve
