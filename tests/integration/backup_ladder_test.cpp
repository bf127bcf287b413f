// End-to-end tests of the backup vector ladder's ranking: closed-circuit
// backups first, half-open ones probe-only behind them; within a tier,
// slices known to be empty (the share reply's vectors_left, or an exhausted
// rejection) last, then the serving network's smoothed share RTT
// (core::PeerRtt), unsampled backups last. The fastest live backup that
// still holds a vector leads each fetch, and every later rung goes to the
// next one. An exhausted slice promotes without using up the ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "federation_fixture.h"
#include "sim/failure.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");

/// Federation of seven: net-1 is the (offline) home, net-2..net-6 are its
/// five backups, net-7 serves. Backup i is reached through a link with
/// one-way base delay `link_ms[i]`.
struct LadderFederation {
  Federation f;
  aka::SubscriberKeys keys;
  std::vector<std::size_t> backups{1, 2, 3, 4, 5};

  explicit LadderFederation(core::FederationConfig cfg, std::uint64_t seed = 1,
                            std::vector<int> link_ms = {2, 2, 2, 2, 2},
                            sim::RpcConfig rpc_config = {})
      : f(7, std::move(cfg), seed, rpc_config) {
    keys = f.provision(kAlice, 0, backups);
    for (std::size_t i = 0; i < backups.size(); ++i) {
      sim::LatencyModel link;
      link.base = ms(link_ms[i]);
      f.network.set_link(serving_node(), f.net(backups[i]).node(), link);
    }
    f.network.node(f.net(0).node()).set_online(false);
    serving().set_home_health(f.net(0).id(), false);
  }

  sim::NodeIndex serving_node() { return f.net(6).node(); }
  core::ServingNetwork& serving() { return f.net(6).serving(); }

  std::uint64_t served(std::size_t backup) {
    return f.net(backup).backup().metrics().vectors_served;
  }

  /// Share legs the backups have taken so far: each serves or refuses one.
  std::uint64_t share_legs() {
    std::uint64_t legs = 0;
    for (std::size_t b : backups) {
      const auto& m = f.net(b).backup().metrics();
      legs += m.shares_served + m.rejected_requests;
    }
    return legs;
  }

  /// Runs one attach on a fresh UE session and returns the index (into
  /// `backups`) of the backup that served its vector, or -1 on failure.
  int attach_and_find_server(ran::Ue& ue) {
    std::vector<std::uint64_t> before;
    for (std::size_t b : backups) before.push_back(served(b));
    const auto record = f.attach(ue);
    if (!record.success) return -1;
    for (std::size_t i = 0; i < backups.size(); ++i) {
      if (served(backups[i]) != before[i]) return static_cast<int>(i);
    }
    return -1;
  }
};

core::FederationConfig ladder_config() {
  core::FederationConfig cfg = Federation::test_config();
  cfg.vectors_per_backup = 16;
  return cfg;
}

TEST(BackupLadder, SlowBackupNeverLeadsAfterWarmUp) {
  // Backup net-2 sits behind a 30 ms link (the others 2 ms): still far
  // below the hedge delay, so a vector leg never hedges, and which backup
  // served each vector is exactly which backup led.
  LadderFederation lf(ladder_config(), 1, {30, 2, 2, 2, 2});
  auto ue = lf.f.make_ue(kAlice, lf.keys, 6);

  // Warm-up: one attach's share round probes all five unsampled backups.
  ASSERT_GE(lf.attach_and_find_server(*ue), 0);
  for (std::size_t b : lf.backups) {
    EXPECT_TRUE(lf.serving().peer_rtt().estimate(lf.f.net(b).node()).has_value());
  }
  const std::uint64_t slow_served = lf.served(1);
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t legs = lf.share_legs();
    const int server = lf.attach_and_find_server(*ue);
    ASSERT_GE(server, 0) << "attach " << i;
    EXPECT_NE(server, 0) << "the slow backup led attach " << i;
    // Every sample is fresh in the first round after the warm-up, so it
    // goes to the `threshold` + 1 fastest backups, not to all five.
    if (i == 0) {
      EXPECT_EQ(lf.share_legs() - legs, lf.f.config.threshold + 1);
    }
  }
  EXPECT_EQ(lf.served(1), slow_served);
  EXPECT_EQ(lf.serving().metrics().hedges_launched, 0u);
}

TEST(BackupLadder, SilentlyDeadBackupStopsLeadingAfterOneShareTimeout) {
  // Resilience off: one-leg ladder, no breakers, so only the RTT estimate
  // can keep the dead backup from leading — and a dead leader fails the
  // attach outright.
  core::FederationConfig cfg = ladder_config();
  cfg.resilience = core::ResilienceConfig::none();
  LadderFederation lf(cfg, 1, {2, 2, 2, 2, 2}, Federation::breakers_off());
  const sim::NodeIndex dead = lf.f.net(3).node();
  lf.f.network.node(dead).set_online(false);
  auto ue = lf.f.make_ue(kAlice, lf.keys, 6);

  // Until one attach gets as far as the share round, the dead backup
  // is unsampled and may lead (and fail) an attach.
  int warm_up = 0;
  while (!lf.serving().peer_rtt().estimate(dead)) {
    ASSERT_LT(++warm_up, 10);
    (void)lf.f.attach(*ue);
  }
  EXPECT_EQ(*lf.serving().peer_rtt().estimate(dead), core::ServingNetwork::kKeyShareTimeout);

  for (int i = 0; i < 12; ++i) {
    const auto record = lf.f.attach(*ue);
    EXPECT_TRUE(record.success) << "attach " << i << ": " << record.failure;
  }
}

TEST(BackupLadder, HalfOpenBackupIsProbeOnly) {
  // net-5 has the fastest link but dies after the warm-up; net-2 sits
  // behind a 30 ms link. Neither may lead a vector fetch.
  LadderFederation lf(ladder_config(), 1, {30, 2, 2, 1, 2});
  const sim::NodeIndex dead = lf.f.net(4).node();
  auto ue = lf.f.make_ue(kAlice, lf.keys, 6);
  ASSERT_GE(lf.attach_and_find_server(*ue), 0);
  ASSERT_TRUE(lf.serving().peer_rtt().estimate(dead).has_value());

  // The outage is announced (its circuit force-opens) and lapses after one
  // breaker cooldown, but the backup stays silently dead.
  sim::FailureInjector injector(lf.f.network, &lf.f.rpc);
  const Time cooldown = lf.f.rpc.breakers().config().cooldown;
  injector.schedule_outage(dead, lf.f.simulator.now(), cooldown);
  lf.f.simulator.run();
  lf.f.network.node(dead).set_online(false);

  const std::uint64_t slow_served = lf.served(1);
  for (int i = 0; i < 12; ++i) {
    // Each attach's share round probes the dead backup and reopens its
    // circuit; wait out the cooldown so every fetch sees it half-open.
    lf.f.simulator.run_until(lf.f.simulator.now() + cooldown);
    ASSERT_EQ(lf.f.rpc.breakers().state(lf.serving_node(), dead, lf.f.simulator.now()),
              sim::BreakerState::kHalfOpen);
    const int server = lf.attach_and_find_server(*ue);
    ASSERT_GE(server, 0) << "attach " << i;
    EXPECT_NE(server, 0) << "the slow backup led attach " << i;
  }
  EXPECT_EQ(lf.served(1), slow_served);
  // A dead leader would have cost a hedge (or a promotion) every time.
  EXPECT_EQ(lf.serving().metrics().hedges_launched, 0u);
}

/// Federation of six: net-1 is the (offline) home, net-2..net-5 its four
/// backups behind links of 1/40/5/20 ms, net-6 serves. A warm-up attach
/// samples every backup's share RTT, then net-2's slice is drained with
/// direct fetches, behind the serving network's back, so the slice hint
/// from the warm-up share reply (vectors left > 0) is stale.
struct DrainedFastestFederation {
  Federation f;
  aka::SubscriberKeys keys;
  std::vector<std::size_t> backups{1, 2, 3, 4};
  std::unique_ptr<ran::Ue> ue;

  static core::FederationConfig config() {
    core::FederationConfig cfg = Federation::test_config();
    cfg.vectors_per_backup = 8;
    return cfg;
  }

  DrainedFastestFederation() : f(6, config()) {
    keys = f.provision(kAlice, 0, backups);
    const std::vector<int> link_ms{1, 40, 5, 20};
    for (std::size_t i = 0; i < backups.size(); ++i) {
      sim::LatencyModel link;
      link.base = ms(link_ms[i]);
      f.network.set_link(f.net(5).node(), f.net(backups[i]).node(), link);
    }
    f.network.node(f.net(0).node()).set_online(false);
    serving().set_home_health(f.net(0).id(), false);
    ue = f.make_ue(kAlice, keys, 5);

    if (!f.attach(*ue).success) throw std::runtime_error("warm-up attach failed");
    const sim::TypedStub fetch(f.rpc, f.ran_node, core::kBackupGetVector);
    core::GetVectorRequest request;
    request.serving_network = serving().id();
    request.supi = kAlice;
    for (std::size_t i = 0; stored(1) > 0; ++i) {
      if (i == config().vectors_per_backup) throw std::runtime_error("net-2 did not drain");
      fetch.call(f.net(1).node(), request, sim::RpcOptions::oneshot(), [](auto) {});
      f.simulator.run();
    }
  }

  core::ServingNetwork& serving() { return f.net(5).serving(); }
  Time rtt(std::size_t b) { return *serving().peer_rtt().estimate(f.net(b).node()); }
  std::size_t stored(std::size_t b) {
    return f.net(b).backup().stored_vectors(f.net(0).id(), kAlice);
  }
  std::uint64_t served(std::size_t b) { return f.net(b).backup().metrics().vectors_served; }
  std::uint64_t hedges() { return serving().metrics().hedges_launched; }

  /// One attach that must succeed, consume exactly one vector, and take it
  /// from backup `b` without any promotion or hedge.
  void expect_unhedged_attach_served_by(std::size_t b, const std::string& what) {
    std::size_t total = 0;
    for (std::size_t x : backups) total += stored(x);
    const std::uint64_t hedges_before = hedges();
    const std::uint64_t served_before = served(b);
    const auto record = f.attach(*ue);
    ASSERT_TRUE(record.success) << what << ": " << record.failure;
    EXPECT_TRUE(record.key_confirmed) << what;
    std::size_t total_after = 0;
    for (std::size_t x : backups) total_after += stored(x);
    EXPECT_EQ(total_after, total - 1) << what << " consumed more than one vector";
    EXPECT_EQ(hedges(), hedges_before) << what;
    EXPECT_EQ(served(b), served_before + 1) << what;
  }

  /// The first attach after the drain: net-2 leads on its stale hint, is
  /// rejected as exhausted, and promotes exactly one leg, to the fastest
  /// remaining backup (net-4).
  void expect_one_promotion_to_net4() {
    ASSERT_LT(rtt(1), rtt(3));
    ASSERT_LT(rtt(3), std::min(rtt(2), rtt(4)));
    const std::uint64_t hedges_before = hedges();
    const std::uint64_t wins_before = serving().metrics().hedge_wins;
    const std::uint64_t served_before = served(3);
    const auto record = f.attach(*ue);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_TRUE(record.key_confirmed);
    EXPECT_EQ(hedges(), hedges_before + 1);  // the one promotion
    EXPECT_EQ(serving().metrics().hedge_wins, wins_before + 1);
    EXPECT_EQ(served(3), served_before + 1);
  }
};

TEST(BackupLadder, ExhaustedFastestBackupPromotesOnce) {
  // A stale slice hint costs exactly one promotion. The exhausted
  // rejection and net-2's share reply (0 vectors left) then mark its slice
  // empty, so it never leads again: net-4 serves every attach until its own
  // slice runs dry. Its last share reply says so, and the next fetch goes
  // straight to net-5 (20 ms, ahead of net-3 at 40 ms) without a promotion.
  DrainedFastestFederation d;
  d.expect_one_promotion_to_net4();
  for (std::size_t i = 0; d.stored(3) > 0; ++i) {
    ASSERT_LT(i, DrainedFastestFederation::config().vectors_per_backup);
    d.expect_unhedged_attach_served_by(3, "net-4 attach, " + std::to_string(d.stored(3)) +
                                              " left");
    if (::testing::Test::HasFatalFailure()) return;
  }
  d.expect_unhedged_attach_served_by(4, "first attach after net-4 ran dry");
}

TEST(BackupLadder, ExhaustedRejectionMarksSliceAtOnce) {
  // The exhausted rejection marks net-2's slice empty at once, before the
  // attach's own share round brings net-2's count. A second attach for
  // the same user, started the moment the first one promotes, leads with
  // net-4: the stale hint still costs exactly one promotion in all.
  DrainedFastestFederation d;
  auto second_ue = d.f.make_ue(kAlice, d.keys, 5);
  const std::uint64_t hedges_before = d.hedges();
  const std::uint64_t served_before = d.served(3);
  const std::uint64_t shares_before = d.f.net(1).backup().metrics().shares_served;
  std::optional<ran::AttachRecord> first;
  std::optional<ran::AttachRecord> second;
  bool second_started_before_shares = false;
  std::function<void()> start_second_on_promotion = [&] {
    if (d.hedges() == hedges_before) {
      // No promotion by the end of the first attach: the second never
      // starts, and the test fails below.
      if (!first) d.f.simulator.after(us(100), start_second_on_promotion);
      return;
    }
    second_started_before_shares =
        d.f.net(1).backup().metrics().shares_served == shares_before;
    second_ue->attach([&](const ran::AttachRecord& r) { second = r; });
  };
  d.ue->attach([&](const ran::AttachRecord& r) { first = r; });
  start_second_on_promotion();
  d.f.simulator.run();
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(first->success) << first->failure;
  EXPECT_TRUE(second->success) << second->failure;
  EXPECT_TRUE(second_started_before_shares);
  EXPECT_EQ(d.hedges(), hedges_before + 1);
  EXPECT_EQ(d.served(3), served_before + 2);
}

TEST(BackupLadder, ReplenishedSliceLeadsAgain) {
  // After the one promotion net-2 is known empty and net-4 leads. Then the
  // home comes back long enough to disseminate fresh slices. The next
  // attach still leads with net-4, but net-2's share reply now counts
  // vectors again, which clears the hint: the attach after that is led,
  // and served, by net-2 once more.
  DrainedFastestFederation d;
  d.expect_one_promotion_to_net4();
  d.expect_unhedged_attach_served_by(3, "net-4 attach before the replenishment");

  auto& home = d.f.net(0);
  d.f.network.node(home.node()).set_online(true);
  bool replenished = false;
  home.home().disseminate(kAlice, [&](std::size_t) { replenished = true; });
  d.f.simulator.run();
  ASSERT_TRUE(replenished);
  ASSERT_GT(d.stored(1), 0u);
  d.f.network.node(home.node()).set_online(false);
  d.serving().set_home_health(home.id(), false);

  d.expect_unhedged_attach_served_by(3, "attach on the stale empty hint");
  for (int i = 0; i < 3; ++i) {
    d.expect_unhedged_attach_served_by(1, "attach " + std::to_string(i) + " after the clear");
  }
}

TEST(BackupLadder, ColdStartNeverLeadsWithUnsampledBackup) {
  // net-6 sits behind a 100 ms link, so its first share reply lands well
  // after the first attach completes. Attaches run back to back, each
  // starting the moment the previous one ends: until that reply lands,
  // net-6 is unsampled while the others are sampled, and it must not lead.
  // (A 200 ms vector leg is below the hedge delay, so the backup that
  // served each vector is the one that led.)
  LadderFederation lf(ladder_config(), 1, {2, 2, 2, 2, 100});
  const sim::NodeIndex slow = lf.f.net(5).node();
  auto ue = lf.f.make_ue(kAlice, lf.keys, 6);

  int remaining = 8;
  int led_while_unsampled = 0;
  int started_while_unsampled = 0;
  std::function<void()> next = [&] {
    const bool cold = std::none_of(lf.backups.begin(), lf.backups.end(), [&](std::size_t b) {
      return lf.serving().peer_rtt().estimate(lf.f.net(b).node()).has_value();
    });
    const bool slow_unsampled = !lf.serving().peer_rtt().estimate(slow);
    const std::uint64_t slow_served = lf.served(5);
    if (!cold && slow_unsampled) ++started_while_unsampled;
    ue->attach([&, cold, slow_unsampled, slow_served](const ran::AttachRecord& record) {
      EXPECT_TRUE(record.success) << record.failure;
      if (!cold && slow_unsampled && lf.served(5) != slow_served) ++led_while_unsampled;
      if (--remaining > 0) lf.f.simulator.after(0, next);
    });
  };
  next();
  lf.f.simulator.run();
  EXPECT_EQ(remaining, 0);
  // The schedule really exercises the window: several warm attaches
  // started before the slow backup's first sample.
  EXPECT_GE(started_while_unsampled, 2);
  EXPECT_EQ(led_while_unsampled, 0);
  EXPECT_EQ(lf.serving().metrics().hedges_launched, 0u);
}

TEST(BackupLadder, SuciAttachesDrainEverySlice) {
  // An attach identified by SUCI has no SUPI while the ladder ranks its
  // candidates (only a backup can deconceal it), so the slice hint cannot
  // steer it and fastest-first leads it with drained slices. An exhausted
  // slice must cost a round trip, never the attach: whether the ladder is
  // one leg wide (resilience off) or hedged, every attach succeeds and
  // takes exactly one vector while any backup still holds one.
  for (const bool resilience : {true, false}) {
    SCOPED_TRACE(resilience ? "resilience on" : "resilience off");
    core::FederationConfig cfg = ladder_config();
    cfg.vectors_per_backup = 3;
    if (!resilience) cfg.resilience = core::ResilienceConfig::none();
    LadderFederation lf(cfg, 1, {2, 4, 6, 8, 10},
                        resilience ? sim::RpcConfig{} : Federation::breakers_off());
    auto profile = lf.f.ue_profile();
    profile.use_suci = true;
    profile.use_guti = false;
    ran::Ue ue(lf.f.rpc, lf.f.ran_node, lf.serving_node(), kAlice, lf.keys, profile);
    ue.configure_suci(lf.f.net(0).id(), lf.f.net(0).suci_keys().public_key);
    const auto stored = [&] {
      std::size_t total = 0;
      for (std::size_t b : lf.backups) {
        total += lf.f.net(b).backup().stored_vectors(lf.f.net(0).id(), kAlice);
      }
      return total;
    };
    ASSERT_EQ(stored(), 5u * 3u);

    std::set<int> servers;
    while (stored() > 0) {
      const std::size_t before = stored();
      std::vector<std::uint64_t> served;
      for (std::size_t b : lf.backups) served.push_back(lf.served(b));
      const auto record = lf.f.attach(ue);
      ASSERT_TRUE(record.success) << before << " vectors left: " << record.failure;
      ASSERT_EQ(stored(), before - 1);
      for (std::size_t i = 0; i < lf.backups.size(); ++i) {
        if (lf.served(lf.backups[i]) != served[i]) servers.insert(static_cast<int>(i));
      }
    }
    EXPECT_EQ(servers.size(), lf.backups.size());  // every slice was reached
    // Only once every slice is empty does an attach fail for lack of one.
    const auto record = lf.f.attach(ue);
    EXPECT_FALSE(record.success);
    EXPECT_NE(record.failure.find("no backup vector"), std::string::npos) << record.failure;
  }
}

TEST(BackupLadder, RejectingBackupLeadsOnce) {
  // net-2 has the fastest link but turns away every vector fetch and every
  // share request as kNotFound, so no share reply ever clears its hint.
  // Resilience off: a leg that used up the one-leg ladder would fail the
  // attach. The first rejection marks net-2's slice empty; after that one
  // promotion it never leads again, and every attach succeeds.
  core::FederationConfig cfg = ladder_config();
  cfg.resilience = core::ResilienceConfig::none();
  LadderFederation lf(cfg, 1, {1, 20, 20, 20, 20}, Federation::breakers_off());
  for (const char* service : {"backup.get_vector", "backup.get_share"}) {
    lf.f.rpc.register_service(lf.f.net(1).node(), service, [](ByteView, sim::Responder r) {
      r.fail(sim::AppErrorCode::kNotFound, "user not backed up here");
    });
  }
  auto ue = lf.f.make_ue(kAlice, lf.keys, 6);
  for (int i = 0; i < 10; ++i) {
    const int server = lf.attach_and_find_server(*ue);
    ASSERT_GT(server, 0) << "attach " << i;
  }
  // net-2 led exactly once: the warm-up attach, if the shuffle put it
  // first, or else the first attach after its first (rejected) share leg
  // made it the fastest sampled backup.
  EXPECT_EQ(lf.serving().metrics().hedges_launched, 1u);
}

/// Federation of four: net-1 is the (offline) home, net-2 and net-3 its two
/// backups behind 1 ms and 20 ms links, net-4 serves. Signature checks are
/// uncached and slow (50 ms), so a reply has a window to land in while a
/// bundle waits for its check. After a warm-up attach net-2 leads every
/// vector fetch; from then on it takes each fetch and, when `reject_after`
/// is set, rejects it kExhausted that long afterwards (else it never answers).
struct SlowPrimaryFederation {
  Federation f;
  aka::SubscriberKeys keys;
  std::unique_ptr<ran::Ue> ue;
  Time primary_took = -1;  // when net-2 took the last vector fetch

  static core::FederationConfig config() {
    core::FederationConfig cfg = ladder_config();
    cfg.costs.signature_verify = ms(50);
    cfg.verify_cache_entries = 0;
    return cfg;
  }

  explicit SlowPrimaryFederation(std::optional<Time> reject_after) : f(4, config()) {
    keys = f.provision(kAlice, 0, {1, 2});
    for (const auto& [backup, link_ms] : {std::pair{1, 1}, std::pair{2, 20}}) {
      sim::LatencyModel link;
      link.base = ms(link_ms);
      f.network.set_link(f.net(3).node(), f.net(backup).node(), link);
    }
    f.network.node(f.net(0).node()).set_online(false);
    serving().set_home_health(f.net(0).id(), false);
    ue = f.make_ue(kAlice, keys, 3);
    if (!f.attach(*ue).success) throw std::runtime_error("warm-up attach failed");
    f.rpc.register_service(
        f.net(1).node(), "backup.get_vector", [this, reject_after](ByteView, sim::Responder r) {
          primary_took = f.simulator.now();
          if (!reject_after) return;
          f.simulator.after(*reject_after, [r] {
            r.fail(sim::AppErrorCode::kExhausted, "no vectors left");
          });
        });
  }

  core::ServingNetwork& serving() { return f.net(3).serving(); }
  std::uint64_t signature_checks() {
    return serving().metrics().signature_cache_misses + serving().metrics().signature_cache_hits;
  }
};

TEST(BackupLadder, RejectionDuringTheWinningCheckKeepsTheAttach) {
  // net-2 leads and holds its fetch, so net-3 gets the hedge leg and serves
  // a valid bundle. net-2's rejection lands while that bundle waits for its
  // signature check: the hedge leg is still outstanding until the check has
  // judged it, so the rejection finds a leg in flight and the attach goes on.
  // A first run, in which net-2 never answers, times the check.
  Time check_started = -1;
  Time primary_took = -1;
  {
    SlowPrimaryFederation probe(std::nullopt);
    const std::uint64_t checks = probe.signature_checks();
    const Time started = probe.f.simulator.now();
    probe.ue->attach([](const ran::AttachRecord&) {});
    while (probe.signature_checks() == checks) {
      ASSERT_LT(probe.f.simulator.now(), started + sec(2)) << "no vector reached its check";
      probe.f.simulator.run_until(probe.f.simulator.now() + us(100));
    }
    check_started = probe.f.simulator.now();
    primary_took = probe.primary_took;
    ASSERT_GT(primary_took, started);
    ASSERT_GT(check_started, primary_took + probe.f.config.resilience.hedge_delay);
  }

  // The same schedule, with net-2 rejecting the moment the check starts.
  SlowPrimaryFederation lf(check_started - primary_took);
  const core::ServingMetrics before = lf.serving().metrics();
  const auto record = lf.f.attach(*lf.ue);
  EXPECT_EQ(lf.primary_took, primary_took);  // the first run's schedule
  EXPECT_TRUE(record.success) << record.failure;
  const core::ServingMetrics& after = lf.serving().metrics();
  EXPECT_EQ(after.attaches_failed, before.attaches_failed);
  EXPECT_EQ(after.hedges_launched, before.hedges_launched + 1);
  EXPECT_EQ(after.hedge_wins, before.hedge_wins + 1);
}

TEST(BackupLadder, SameSeedPicksSamePrimaries) {
  auto primaries = [](std::uint64_t seed) {
    LadderFederation lf(ladder_config(), seed, {12, 2, 6, 2, 20});
    auto ue = lf.f.make_ue(kAlice, lf.keys, 6);
    std::vector<int> picks;
    for (int i = 0; i < 10; ++i) picks.push_back(lf.attach_and_find_server(*ue));
    return picks;
  };
  const auto first = primaries(5);
  EXPECT_EQ(first, primaries(5));
  // Not a degenerate schedule: every attach succeeded, and more than one
  // backup led (nothing is sampled before the first attach, so the
  // shuffle picks its leader; the fastest backup leads the rest).
  EXPECT_EQ(std::count(first.begin(), first.end(), -1), 0);
  EXPECT_GT(std::set<int>(first.begin(), first.end()).size(), 1u);
}

}  // namespace
}  // namespace dauth::testing
