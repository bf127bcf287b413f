// Resilience primitives for the RPC substrate: retry policies with
// deterministic jittered backoff, and per-peer circuit breakers.
//
// Table 1 of the paper shows SCN sites living at 87-99% availability; the
// federation protocol (Algorithm 1) is explicitly designed to authenticate
// *through* those failures. This header holds the policy vocabulary that
// Rpc::call and the serving network's hedged fan-out speak:
//
//  - RetryPolicy: how many attempts, how the backoff between them grows,
//    and how much jitter to apply. Jitter is drawn from the *simulation*
//    RNG so identical seeds still produce byte-identical runs.
//  - CircuitBreaker: classic closed -> open -> half-open automaton per
//    (caller, callee) pair. After `failure_threshold` consecutive transport
//    failures the pair is skipped instantly; after `cooldown` a single
//    probe is admitted and its outcome decides reopen vs close.
//  - CircuitBreakerSet: the per-Rpc collection, plus a "known down" hint
//    channel fed by the FailureInjector (an operator's liveness feed) so a
//    peer that just dropped is excluded from backup selection immediately,
//    before any caller has burned a timeout on it.
#pragma once

#include <map>
#include <utility>

#include "common/rng.h"
#include "common/time.h"
#include "sim/node.h"

namespace dauth::sim {

/// Retry schedule for idempotent-safe RPCs (kTimeout / kUnreachable only —
/// an application-level rejection is authoritative and never retried).
struct RetryPolicy {
  int max_attempts = 3;
  Time initial_backoff = ms(50);
  double multiplier = 2.0;
  Time max_backoff = ms(800);
  /// Fractional jitter applied to each backoff: the delay is scaled by a
  /// factor uniform in [1 - jitter, 1 + jitter], drawn from the sim RNG.
  double jitter = 0.2;

  /// Single attempt, no backoff — the pre-resilience behavior.
  static RetryPolicy none() {
    RetryPolicy policy;
    policy.max_attempts = 1;
    return policy;
  }
};

/// Backoff before retry number `completed_attempts` + 1 (so pass 1 after the
/// first failure). Exponential in the attempt index, clamped to
/// `max_backoff`, then jittered via `rng`. Deterministic given RNG state.
Time backoff_delay(const RetryPolicy& policy, int completed_attempts,
                   Xoshiro256StarStar& rng);

struct CircuitBreakerConfig {
  /// Consecutive transport failures before the circuit opens. 0 turns the
  /// breakers off: no circuit ever trips and liveness hints are dropped.
  int failure_threshold = 3;
  /// How long an open circuit waits before admitting a half-open probe.
  Time cooldown = sec(10);
};

enum class BreakerState {
  kClosed,    // traffic flows normally
  kOpen,      // all calls fail fast until the cooldown elapses
  kHalfOpen,  // cooldown elapsed: one probe decides close vs reopen
};

const char* to_string(BreakerState state) noexcept;

/// One (caller, callee) circuit. Time is always passed in explicitly so the
/// breaker itself stays trivially testable outside a simulator.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {}) : config_(config) {}

  struct Admit {
    bool allowed;  // may this call proceed?
    bool probe;    // ...and is it the half-open probe?
  };

  /// Gate for an outgoing call. While open, denies; once the cooldown has
  /// elapsed, admits exactly one probe at a time (kHalfOpen).
  Admit admit(Time now);

  /// Would admit() allow a call now? (Ignores the single-probe-in-flight
  /// restriction — used for backup-selection ordering and fast-fail counts.)
  bool available(Time now) const;

  /// Records a transport failure. Returns true when this transition *opened*
  /// the circuit (closed -> open, or a failed half-open probe reopening it).
  bool on_failure(Time now);

  /// Records a transport success (an application-level rejection counts: the
  /// peer is reachable). Closes the circuit and clears the failure streak.
  void on_success();

  /// Operator hint (FailureInjector): open immediately regardless of streak.
  void force_open(Time now);

  /// The in-flight half-open probe was cancelled (e.g. a hedged call was
  /// abandoned): allow the next caller to probe instead.
  void abandon_probe() { probing_ = false; }

  BreakerState state(Time now) const;

 private:
  CircuitBreakerConfig config_;
  int consecutive_failures_ = 0;
  bool open_ = false;
  bool probing_ = false;
  Time opened_at_ = 0;
};

/// All breakers owned by one Rpc instance, keyed by (caller, callee).
/// Breakers are created lazily on first use; the `known_down_` hint map
/// makes force_open_peer() reach pairs that have never called the peer yet.
class CircuitBreakerSet {
 public:
  explicit CircuitBreakerSet(CircuitBreakerConfig config = {}) : config_(config) {}

  const CircuitBreakerConfig& config() const noexcept { return config_; }

  CircuitBreaker::Admit admit(NodeIndex from, NodeIndex to, Time now);
  bool available(NodeIndex from, NodeIndex to, Time now) const;

  /// Returns true when the failure opened the circuit.
  bool on_failure(NodeIndex from, NodeIndex to, Time now);
  void on_success(NodeIndex from, NodeIndex to);
  void abandon_probe(NodeIndex from, NodeIndex to);

  /// FailureInjector hook: peer `to` is known down — open every existing
  /// circuit toward it and remember the hint for circuits not created yet.
  /// Recovery is discovered the honest way: a successful half-open probe.
  void force_open_peer(NodeIndex to, Time now);

  BreakerState state(NodeIndex from, NodeIndex to, Time now) const;

 private:
  CircuitBreaker& breaker(NodeIndex from, NodeIndex to);

  CircuitBreakerConfig config_;
  std::map<std::pair<NodeIndex, NodeIndex>, CircuitBreaker> breakers_;
  std::map<NodeIndex, Time> known_down_;  // peer -> time the hint arrived
};

}  // namespace dauth::sim
