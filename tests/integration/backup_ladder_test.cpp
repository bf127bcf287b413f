// End-to-end tests of the backup vector ladder's ranking: closed-circuit
// backups first, half-open ones probe-only behind them; the faster of two
// random closed candidates, by the serving network's smoothed share RTT
// (core::PeerRtt), leads each vector fetch, and every later rung goes to
// the fastest remaining backup.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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
                            std::vector<int> link_ms = {2, 2, 2, 2, 2})
      : f(7, std::move(cfg), seed) {
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

  // Warm-up: one attach's share broadcast samples all five backups.
  ASSERT_GE(lf.attach_and_find_server(*ue), 0);
  for (std::size_t b : lf.backups) {
    EXPECT_TRUE(lf.serving().peer_rtt().estimate(lf.f.net(b).node()).has_value());
  }
  const std::uint64_t slow_served = lf.served(1);
  for (int i = 0; i < 12; ++i) {
    const int server = lf.attach_and_find_server(*ue);
    ASSERT_GE(server, 0) << "attach " << i;
    EXPECT_NE(server, 0) << "the slow backup led attach " << i;
  }
  EXPECT_EQ(lf.served(1), slow_served);
  EXPECT_EQ(lf.serving().metrics().hedges_launched, 0u);
}

TEST(BackupLadder, SilentlyDeadBackupStopsLeadingAfterOneShareTimeout) {
  // Resilience off: one-leg ladder, no breakers, so only the RTT estimate
  // can keep the dead backup from leading — and a dead leader fails the
  // attach outright.
  core::FederationConfig cfg = ladder_config();
  cfg.resilience.enabled = false;
  LadderFederation lf(cfg);
  const sim::NodeIndex dead = lf.f.net(3).node();
  lf.f.network.node(dead).set_online(false);
  auto ue = lf.f.make_ue(kAlice, lf.keys, 6);

  // Until one attach gets as far as the share broadcast, the dead backup
  // is unsampled and may lead (and fail) an attach.
  int warm_up = 0;
  while (!lf.serving().peer_rtt().estimate(dead)) {
    ASSERT_LT(++warm_up, 10);
    (void)lf.f.attach(*ue);
  }
  EXPECT_EQ(*lf.serving().peer_rtt().estimate(dead), lf.f.config.key_share_timeout);

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
    // Each attach's share broadcast probes the dead backup and reopens its
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

TEST(BackupLadder, ExhaustedFastestBackupPromotesOnce) {
  // Four backups with distinct links. The fastest one (net-2) leads every
  // fetch it is drawn for until its slice for the user runs dry; from then
  // on each of its fetches is rejected as exhausted and promotes exactly
  // one leg, to the fastest remaining backup (net-4), not the next one in
  // shuffle order.
  core::FederationConfig cfg = Federation::test_config();
  cfg.vectors_per_backup = 8;
  Federation f(6, cfg);
  const std::vector<std::size_t> backups{1, 2, 3, 4};
  const auto keys = f.provision(kAlice, 0, backups);
  const std::vector<int> link_ms{1, 40, 5, 20};
  for (std::size_t i = 0; i < backups.size(); ++i) {
    sim::LatencyModel link;
    link.base = ms(link_ms[i]);
    f.network.set_link(f.net(5).node(), f.net(backups[i]).node(), link);
  }
  f.network.node(f.net(0).node()).set_online(false);
  auto& serving = f.net(5).serving();
  serving.set_home_health(f.net(0).id(), false);
  auto ue = f.make_ue(kAlice, keys, 5);

  auto stored = [&](std::size_t b) {
    return f.net(b).backup().stored_vectors(f.net(0).id(), kAlice);
  };
  auto served = [&](std::size_t b) { return f.net(b).backup().metrics().vectors_served; };
  // Warm-up: one attach's share broadcast samples every backup's RTT.
  ASSERT_TRUE(f.attach(*ue).success);
  const auto rtt = [&](std::size_t b) { return *serving.peer_rtt().estimate(f.net(b).node()); };
  ASSERT_LT(rtt(1), rtt(3));
  ASSERT_LT(rtt(3), std::min(rtt(2), rtt(4)));
  // Drain net-2's slice with direct fetches, so the others keep theirs.
  core::TypedStub<core::GetVectorRequest, core::AuthVectorBundle> fetch(f.rpc, f.ran_node,
                                                                         "backup.get_vector");
  core::GetVectorRequest request;
  request.serving_network = serving.id();
  request.supi = kAlice;
  for (std::size_t i = 0; stored(1) > 0; ++i) {
    ASSERT_LT(i, cfg.vectors_per_backup);
    fetch.call(f.net(1).node(), request, sim::RpcOptions::oneshot(), [](auto) {});
    f.simulator.run();
  }

  int promotions = 0;
  for (int i = 0; i < 24 && promotions < 3; ++i) {
    ASSERT_GT(stored(3), 0u);
    const std::uint64_t hedges = serving.metrics().hedges_launched;
    const std::uint64_t wins = serving.metrics().hedge_wins;
    const std::uint64_t fastest_left_served = served(3);
    std::size_t total = 0;
    for (std::size_t b : backups) total += stored(b);
    const auto record = f.attach(*ue);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_TRUE(record.key_confirmed);
    std::size_t total_after = 0;
    for (std::size_t b : backups) total_after += stored(b);
    EXPECT_EQ(total_after, total - 1) << "attach " << i << " consumed more than one vector";
    if (serving.metrics().hedges_launched == hedges) continue;
    ++promotions;
    EXPECT_EQ(serving.metrics().hedges_launched, hedges + 1);  // the one promotion
    EXPECT_EQ(serving.metrics().hedge_wins, wins + 1);
    EXPECT_EQ(served(3), fastest_left_served + 1) << "promotion " << promotions;
  }
  EXPECT_EQ(promotions, 3);
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
  // Not a degenerate schedule: every attach succeeded, and the two-choice
  // pick still spreads load over more than one backup.
  EXPECT_EQ(std::count(first.begin(), first.end(), -1), 0);
  EXPECT_GT(std::set<int>(first.begin(), first.end()).size(), 1u);
}

}  // namespace
}  // namespace dauth::testing
