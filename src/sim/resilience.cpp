#include "sim/resilience.h"

#include <algorithm>

namespace dauth::sim {

Time backoff_delay(const RetryPolicy& policy, int completed_attempts,
                   Xoshiro256StarStar& rng) {
  double base = static_cast<double>(policy.initial_backoff);
  for (int i = 1; i < completed_attempts; ++i) base *= policy.multiplier;
  base = std::min(base, static_cast<double>(policy.max_backoff));
  // Uniform factor in [1 - jitter, 1 + jitter]; the draw comes from the sim
  // RNG at scheduling time, so the schedule is a pure function of the seed
  // and the event order.
  const double factor = 1.0 + policy.jitter * (2.0 * rng.next_double() - 1.0);
  const double delay = std::max(0.0, base * factor);
  return static_cast<Time>(delay);
}

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

CircuitBreaker::Admit CircuitBreaker::admit(Time now) {
  if (!open_) return {true, false};
  if (probing_) return {false, false};  // a probe is already in flight
  if (now - opened_at_ >= config_.cooldown) {
    probing_ = true;
    return {true, true};
  }
  return {false, false};
}

bool CircuitBreaker::available(Time now) const {
  if (!open_) return true;
  return now - opened_at_ >= config_.cooldown;
}

bool CircuitBreaker::on_failure(Time now) {
  if (config_.failure_threshold <= 0) return false;  // breakers off
  if (probing_) {
    // The half-open probe failed: reopen and restart the cooldown clock.
    probing_ = false;
    opened_at_ = now;
    return true;
  }
  if (open_) return false;  // a straggler from before the circuit opened
  if (++consecutive_failures_ >= config_.failure_threshold) {
    open_ = true;
    probing_ = false;
    opened_at_ = now;
    return true;
  }
  return false;
}

void CircuitBreaker::on_success() {
  open_ = false;
  probing_ = false;
  consecutive_failures_ = 0;
}

void CircuitBreaker::force_open(Time now) {
  open_ = true;
  probing_ = false;
  opened_at_ = now;
}

BreakerState CircuitBreaker::state(Time now) const {
  if (!open_) return BreakerState::kClosed;
  if (probing_ || now - opened_at_ >= config_.cooldown) return BreakerState::kHalfOpen;
  return BreakerState::kOpen;
}

CircuitBreaker& CircuitBreakerSet::breaker(NodeIndex from, NodeIndex to) {
  auto [it, inserted] = breakers_.try_emplace({from, to}, config_);
  if (inserted) {
    // A liveness hint for `to` may predate this circuit: honor it.
    if (const auto hint = known_down_.find(to); hint != known_down_.end()) {
      it->second.force_open(hint->second);
    }
  }
  return it->second;
}

CircuitBreaker::Admit CircuitBreakerSet::admit(NodeIndex from, NodeIndex to, Time now) {
  return breaker(from, to).admit(now);
}

bool CircuitBreakerSet::available(NodeIndex from, NodeIndex to, Time now) const {
  if (const auto it = breakers_.find({from, to}); it != breakers_.end()) {
    return it->second.available(now);
  }
  // No circuit yet: only the hint map can speak against the peer.
  if (const auto hint = known_down_.find(to); hint != known_down_.end()) {
    return now - hint->second >= config_.cooldown;
  }
  return true;
}

bool CircuitBreakerSet::on_failure(NodeIndex from, NodeIndex to, Time now) {
  return breaker(from, to).on_failure(now);
}

void CircuitBreakerSet::on_success(NodeIndex from, NodeIndex to) {
  breaker(from, to).on_success();
  known_down_.erase(to);  // the peer demonstrably answers again
}

void CircuitBreakerSet::abandon_probe(NodeIndex from, NodeIndex to) {
  if (const auto it = breakers_.find({from, to}); it != breakers_.end()) {
    it->second.abandon_probe();
  }
}

void CircuitBreakerSet::force_open_peer(NodeIndex to, Time now) {
  if (config_.failure_threshold <= 0) return;  // breakers off: drop the hint
  known_down_[to] = now;
  for (auto& [route, circuit] : breakers_) {
    if (route.second == to) circuit.force_open(now);
  }
}

BreakerState CircuitBreakerSet::state(NodeIndex from, NodeIndex to, Time now) const {
  if (const auto it = breakers_.find({from, to}); it != breakers_.end()) {
    return it->second.state(now);
  }
  if (const auto hint = known_down_.find(to); hint != known_down_.end()) {
    return now - hint->second >= config_.cooldown ? BreakerState::kHalfOpen
                                                  : BreakerState::kOpen;
  }
  return BreakerState::kClosed;
}

}  // namespace dauth::sim
