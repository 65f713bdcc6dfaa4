#include "serve/policy.h"

#include <algorithm>

namespace dgc::serve {

void CircuitBreaker::RecordSuccess() {
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  cooldown_multiplier_ = 1;
  open_until_ = 0;
}

bool CircuitBreaker::RecordFailure(std::uint64_t now) {
  if (config_.failure_threshold == 0) return false;
  ++consecutive_failures_;
  const bool trip = state_ == State::kHalfOpen ||
                    consecutive_failures_ >= config_.failure_threshold;
  if (!trip) return false;
  const bool reopening = state_ != State::kClosed;
  state_ = State::kOpen;
  open_until_ = now + config_.cooldown * cooldown_multiplier_;
  if (reopening) {
    // Each failed probe doubles the cooldown (capped): a persistently bad
    // app consumes geometrically less probe capacity.
    cooldown_multiplier_ =
        std::min(cooldown_multiplier_ * 2, config_.max_cooldown_multiplier);
  }
  return true;
}

void CircuitBreaker::HalfOpen() {
  if (state_ == State::kOpen) state_ = State::kHalfOpen;
}

}  // namespace dgc::serve
