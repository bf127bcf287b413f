// Resilience substrate tests: deterministic jittered backoff, circuit
// breaker state machine (including the half-open probe protocol), and the
// retry / deadline-budget / breaker semantics of Rpc::call.
#include "sim/resilience.h"

#include <gtest/gtest.h>

#include "sim/failure.h"
#include "sim/rpc.h"

namespace dauth::sim {
namespace {

// ---- backoff_delay ---------------------------------------------------------

TEST(Backoff, DeterministicGivenRngState) {
  RetryPolicy policy;
  Xoshiro256StarStar a(42), b(42);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(backoff_delay(policy, attempt, a), backoff_delay(policy, attempt, b));
  }
}

TEST(Backoff, ExponentialGrowthWithinJitterBounds) {
  RetryPolicy policy;
  policy.initial_backoff = ms(100);
  policy.multiplier = 2.0;
  policy.max_backoff = ms(400);
  policy.jitter = 0.2;
  Xoshiro256StarStar rng(7);

  // Expected bases: 100ms, 200ms, then clamped at 400ms.
  const Time bases[] = {ms(100), ms(200), ms(400), ms(400)};
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const Time delay = backoff_delay(policy, attempt, rng);
    const double base = static_cast<double>(bases[attempt - 1]);
    EXPECT_GE(delay, static_cast<Time>(base * 0.8)) << "attempt " << attempt;
    EXPECT_LE(delay, static_cast<Time>(base * 1.2)) << "attempt " << attempt;
  }
}

TEST(Backoff, ZeroJitterIsExact) {
  RetryPolicy policy;
  policy.initial_backoff = ms(50);
  policy.multiplier = 3.0;
  policy.max_backoff = sec(10);
  policy.jitter = 0.0;
  Xoshiro256StarStar rng(1);
  EXPECT_EQ(backoff_delay(policy, 1, rng), ms(50));
  EXPECT_EQ(backoff_delay(policy, 2, rng), ms(150));
  EXPECT_EQ(backoff_delay(policy, 3, rng), ms(450));
}

// ---- CircuitBreaker --------------------------------------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown = sec(10);
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  EXPECT_FALSE(breaker.on_failure(ms(1)));
  EXPECT_FALSE(breaker.on_failure(ms(2)));
  EXPECT_EQ(breaker.state(ms(2)), BreakerState::kClosed);
  EXPECT_TRUE(breaker.on_failure(ms(3)));  // third strike opens
  EXPECT_EQ(breaker.state(ms(3)), BreakerState::kOpen);
  EXPECT_FALSE(breaker.admit(ms(4)).allowed);
  EXPECT_FALSE(breaker.available(ms(4)));
}

TEST(CircuitBreaker, SuccessResetsTheStreak) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);

  breaker.on_failure(1);
  breaker.on_failure(2);
  breaker.on_success();  // streak cleared
  EXPECT_FALSE(breaker.on_failure(3));
  EXPECT_FALSE(breaker.on_failure(4));
  EXPECT_EQ(breaker.state(4), BreakerState::kClosed);
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneProbe) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = sec(10);
  CircuitBreaker breaker(config);
  breaker.on_failure(0);

  // Before the cooldown: nothing passes.
  EXPECT_FALSE(breaker.admit(sec(5)).allowed);
  // After: exactly one probe, concurrent callers are still denied.
  const auto probe = breaker.admit(sec(10));
  EXPECT_TRUE(probe.allowed);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(breaker.state(sec(10)), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.admit(sec(10)).allowed);

  // Probe succeeds: circuit closes, traffic flows.
  breaker.on_success();
  EXPECT_EQ(breaker.state(sec(11)), BreakerState::kClosed);
  EXPECT_TRUE(breaker.admit(sec(11)).allowed);
}

TEST(CircuitBreaker, FailedProbeReopensAndRestartsCooldown) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = sec(10);
  CircuitBreaker breaker(config);
  breaker.on_failure(0);

  ASSERT_TRUE(breaker.admit(sec(10)).probe);
  EXPECT_TRUE(breaker.on_failure(sec(11)));  // probe failed -> reopened
  EXPECT_EQ(breaker.state(sec(12)), BreakerState::kOpen);
  // The cooldown clock restarted at the failed probe, not the first open.
  EXPECT_FALSE(breaker.admit(sec(20)).allowed);
  EXPECT_TRUE(breaker.admit(sec(21)).allowed);
}

TEST(CircuitBreaker, AbandonedProbeLetsTheNextCallerProbe) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = sec(1);
  CircuitBreaker breaker(config);
  breaker.on_failure(0);

  ASSERT_TRUE(breaker.admit(sec(2)).probe);
  EXPECT_FALSE(breaker.admit(sec(2)).allowed);  // probe in flight
  breaker.abandon_probe();                      // e.g. hedged loser cancelled
  EXPECT_TRUE(breaker.admit(sec(2)).probe);
}

TEST(CircuitBreaker, ForceOpenSkipsTheStreak) {
  CircuitBreaker breaker;  // threshold 3
  breaker.force_open(sec(1));
  EXPECT_EQ(breaker.state(sec(1)), BreakerState::kOpen);
  EXPECT_FALSE(breaker.admit(sec(2)).allowed);
}

TEST(CircuitBreakerSet, ForceOpenPeerReachesUncreatedCircuits) {
  CircuitBreakerSet set;
  // No circuit (1 -> 9) exists yet; the known-down hint must still apply.
  set.force_open_peer(9, sec(1));
  EXPECT_FALSE(set.admit(1, 9, sec(2)).allowed);
  EXPECT_FALSE(set.available(1, 9, sec(2)));
  // Other peers are unaffected.
  EXPECT_TRUE(set.admit(1, 8, sec(2)).allowed);
}

TEST(CircuitBreakerSet, ZeroThresholdTurnsTheBreakersOff) {
  CircuitBreakerSet set(CircuitBreakerConfig{.failure_threshold = 0});
  for (int i = 1; i <= 10; ++i) EXPECT_FALSE(set.on_failure(1, 9, sec(i)));
  // The liveness hint is dropped, for an existing circuit (1 -> 9) and for
  // one not created yet (1 -> 8).
  set.force_open_peer(9, sec(11));
  set.force_open_peer(8, sec(11));
  for (const NodeIndex peer : {NodeIndex{8}, NodeIndex{9}}) {
    EXPECT_EQ(set.state(1, peer, sec(12)), BreakerState::kClosed);
    EXPECT_TRUE(set.available(1, peer, sec(12)));
    EXPECT_TRUE(set.admit(1, peer, sec(12)).allowed);
  }
  EXPECT_FALSE(set.on_failure(1, 8, sec(13)));
  // Nothing opened and nothing is skipped, on either circuit.
  for (const NodeIndex peer : {NodeIndex{8}, NodeIndex{9}}) {
    EXPECT_EQ(set.state(1, peer, sec(13)), BreakerState::kClosed);
    EXPECT_TRUE(set.admit(1, peer, sec(13)).allowed);
  }
}

// ---- call ------------------------------------------------------

struct PolicyFixture {
  Simulator s{1};
  Network net{s};
  NodeIndex client;
  NodeIndex server;
  Rpc rpc{net};

  PolicyFixture() {
    NodeConfig c;
    c.name = "client";
    c.access.base = ms(5);
    c.access_mbps = 0.0;
    client = net.add_node(c);
    c.name = "server";
    server = net.add_node(c);
    rpc.register_service(server, "echo", [](ByteView req, Responder r) {
      r.reply(to_bytes(req));
    });
    rpc.register_service(server, "deny", [](ByteView, Responder r) {
      r.fail(AppErrorCode::kUnauthorized, "not for you");
    });
  }
};

TEST(CallWithPolicy, RetriesThroughAnOutage) {
  PolicyFixture f;
  f.net.node(f.server).set_online(false);
  f.s.at(sec(3), [&] { f.net.node(f.server).set_online(true); });

  RetryPolicy retry;
  retry.max_attempts = 4;
  int retries_seen = 0;
  bool ok = false;
  f.rpc.call(
      f.client, f.server, "echo", {}, RpcOptions::durable(sec(8), retry),
      [&](Bytes) { ok = true; }, [&](RpcError) {},
      [&](ResilienceEvent e) { retries_seen += e == ResilienceEvent::kRetry; });
  f.s.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(retries_seen, 1);
  EXPECT_EQ(f.rpc.retries(), static_cast<std::uint64_t>(retries_seen));
}

TEST(CallWithPolicy, NeverRetriesAnApplicationRejection) {
  PolicyFixture f;
  RetryPolicy retry;
  retry.max_attempts = 5;
  std::optional<RpcError> error;
  f.rpc.call(f.client, f.server, "deny", {},
                         RpcOptions::durable(sec(10), retry), nullptr,
                         [&](RpcError e) { error = std::move(e); });
  f.s.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, RpcErrorCode::kRejected);
  ASSERT_TRUE(error->app.has_value());
  EXPECT_EQ(error->app->code, AppErrorCode::kUnauthorized);
  EXPECT_EQ(f.rpc.retries(), 0u);  // authoritative answer, not a retry case
}

TEST(CallWithPolicy, RespectsTheDeadlineBudget) {
  PolicyFixture f;
  f.net.node(f.server).set_online(false);  // never comes back

  RetryPolicy retry;
  retry.max_attempts = 3;
  std::optional<RpcError> error;
  Time error_at = -1;
  f.rpc.call(f.client, f.server, "echo", {},
                         RpcOptions::durable(sec(3), retry), nullptr, [&](RpcError e) {
                           error = std::move(e);
                           error_at = f.s.now();
                         });
  f.s.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, RpcErrorCode::kTimeout);
  // Attempt timeouts are carved from the remaining budget, so the overall
  // failure lands at (not after) the deadline.
  EXPECT_LE(error_at, sec(3));
  EXPECT_GE(error_at, sec(2));
}

TEST(CallWithPolicy, OpenBreakerFailsFastWithoutTouchingTheWire) {
  PolicyFixture f;
  f.rpc.breakers().force_open_peer(f.server, f.s.now());

  std::optional<RpcError> error;
  bool skipped = false;
  const std::uint64_t started_before = f.rpc.calls_started();
  f.rpc.call(
      f.client, f.server, "echo", {}, RpcOptions::oneshot(sec(2)), nullptr,
      [&](RpcError e) { error = std::move(e); },
      [&](ResilienceEvent e) { skipped |= e == ResilienceEvent::kBreakerSkip; });
  f.s.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, RpcErrorCode::kCircuitOpen);
  EXPECT_TRUE(skipped);
  EXPECT_EQ(f.rpc.calls_started(), started_before);  // no attempt was issued
}

TEST(CallWithPolicy, HalfOpenProbeRecoversTheCircuit) {
  RpcConfig config;
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown = sec(5);
  Simulator s(1);
  Network net(s);
  NodeConfig nc;
  nc.name = "client";
  nc.access.base = ms(5);
  const NodeIndex client = net.add_node(nc);
  nc.name = "server";
  const NodeIndex server = net.add_node(nc);
  Rpc rpc(net, config);
  rpc.register_service(server, "echo", [](ByteView req, Responder r) {
    r.reply(to_bytes(req));
  });

  rpc.breakers().force_open_peer(server, s.now());
  ASSERT_EQ(rpc.breakers().state(client, server, s.now()), BreakerState::kOpen);

  // After the cooldown a policy call is admitted as the probe; its success
  // closes the circuit for everyone.
  bool ok = false;
  bool probed = false;
  s.at(sec(6), [&] {
    rpc.call(
        client, server, "echo", {}, RpcOptions::oneshot(sec(2)),
        [&](Bytes) { ok = true; }, nullptr,
        [&](ResilienceEvent e) { probed |= e == ResilienceEvent::kHalfOpenProbe; });
  });
  s.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(probed);
  EXPECT_EQ(rpc.breakers().state(client, server, s.now()), BreakerState::kClosed);
}

TEST(CallWithPolicy, CancelSuppressesCallbacksAndRetries) {
  PolicyFixture f;
  f.net.node(f.server).set_online(false);

  RetryPolicy retry;
  retry.max_attempts = 5;
  bool any_callback = false;
  const CallHandle handle = f.rpc.call(
      f.client, f.server, "echo", {}, RpcOptions::durable(sec(10), retry),
      [&](Bytes) { any_callback = true; }, [&](RpcError) { any_callback = true; });
  f.s.at(ms(100), [&] { handle.cancel(); });
  f.s.run();
  EXPECT_FALSE(any_callback);
  EXPECT_EQ(f.rpc.retries(), 0u);  // cancellation stops the retry ladder
}

TEST(CallWithPolicy, CancellingTheHalfOpenProbeLetsTheNextCallerProbe) {
  RpcConfig config;
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown = sec(5);
  Simulator s(1);
  Network net(s);
  NodeConfig nc;
  nc.name = "client";
  nc.access.base = ms(5);
  const NodeIndex client = net.add_node(nc);
  nc.name = "server";
  const NodeIndex server = net.add_node(nc);
  Rpc rpc(net, config);
  rpc.register_service(server, "echo", [](ByteView req, Responder r) {
    r.reply(to_bytes(req));
  });
  rpc.breakers().force_open_peer(server, s.now());

  std::vector<ResilienceEvent> first_events;
  std::vector<ResilienceEvent> second_events;
  bool first_callback = false;
  bool second_ok = false;
  CallHandle probe;
  s.at(sec(6), [&] {
    probe = rpc.call(
        client, server, "echo", {}, RpcOptions::oneshot(sec(2)),
        [&](Bytes) { first_callback = true; }, [&](RpcError) { first_callback = true; },
        [&](ResilienceEvent e) { first_events.push_back(e); });
  });
  s.at(sec(6) + ms(10), [&] {
    // Still probing: a second caller is skipped.
    EXPECT_FALSE(rpc.breakers().admit(client, server, s.now()).allowed);
    probe.cancel();
  });
  s.at(sec(6) + ms(20), [&] {
    rpc.call(
        client, server, "echo", {}, RpcOptions::oneshot(sec(2)),
        [&](Bytes) { second_ok = true; }, nullptr,
        [&](ResilienceEvent e) { second_events.push_back(e); });
  });
  s.run();

  EXPECT_FALSE(first_callback);
  EXPECT_EQ(first_events, std::vector<ResilienceEvent>{ResilienceEvent::kHalfOpenProbe});
  EXPECT_EQ(second_events, std::vector<ResilienceEvent>{ResilienceEvent::kHalfOpenProbe});
  EXPECT_TRUE(second_ok);
  EXPECT_EQ(rpc.breakers().state(client, server, s.now()), BreakerState::kClosed);
}

TEST(CallWithPolicy, IdenticalSeedsProduceIdenticalSchedules) {
  // The jittered retry schedule must be a pure function of the seed: two
  // runs with the same seed settle at the same simulated instant.
  auto run_once = [] {
    PolicyFixture f;
    f.net.node(f.server).set_online(false);
    RetryPolicy retry;
    retry.max_attempts = 4;
    Time settled_at = -1;
    f.rpc.call(f.client, f.server, "echo", {},
                           RpcOptions::durable(sec(6), retry), nullptr,
                           [&](RpcError) { settled_at = f.s.now(); });
    f.s.run();
    return settled_at;
  };
  const Time first = run_once();
  const Time second = run_once();
  EXPECT_GT(first, 0);
  EXPECT_EQ(first, second);
}

TEST(RpcOptionsPresets, DurableCarvesPerAttemptTimeouts) {
  RetryPolicy retry;
  retry.max_attempts = 4;
  const RpcOptions durable = RpcOptions::durable(sec(8), retry);
  EXPECT_EQ(durable.deadline, sec(8));
  EXPECT_EQ(durable.timeout, sec(2));
  EXPECT_EQ(durable.retry.max_attempts, 4);

  const RpcOptions oneshot = RpcOptions::oneshot(ms(750));
  EXPECT_EQ(oneshot.deadline, 0);
  EXPECT_EQ(oneshot.timeout, ms(750));
  EXPECT_EQ(oneshot.retry.max_attempts, 1);
}

}  // namespace
}  // namespace dauth::sim
