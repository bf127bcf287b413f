// End-to-end resilience tests: hedged backup fan-out, breaker-driven
// skipping of known-down backups, graceful fast-fail below the share
// threshold (at the vector fetch and again at the share round), a share
// round that gathers fewer than `threshold` shares, the pre-resilience
// preset of the same ladder (ResilienceConfig::none() with the breakers
// off) and its call options, schedule determinism, and a home whose
// backups the directory lists as none, or as none it can resolve.
#include <gtest/gtest.h>

#include "directory/directory.h"
#include "federation_fixture.h"
#include "sim/failure.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");

std::size_t total_stored_vectors(Federation& f, const std::vector<std::size_t>& backups) {
  std::size_t total = 0;
  for (std::size_t b : backups) {
    total += f.net(b).backup().stored_vectors(f.net(0).id(), kAlice);
  }
  return total;
}

TEST(Resilience, HedgedFanOutSurvivesSilentBackupDeath) {
  // A backup dies WITHOUT telling anyone (no injector feed, so every
  // breaker is still closed): the serving network discovers it the hard
  // way. When the ladder leads with it, the hedge timer promotes the
  // next-best backup after hedge_delay instead of waiting out the full
  // kBackupAuthTimeout on the dead leg.
  //
  // The dead backup leads only while the serving network still rates it
  // fast: net-2 has the fastest link during a warm-up attach, then dies,
  // and the next attach leads with it whenever it is one of the two
  // candidates. Its first timed-out share leg ends that, so each seed gets
  // a fresh federation; across the seeds (deterministically) the dead
  // backup leads some attaches, exercising the promotion path.
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Federation f(5, Federation::test_config(), seed);
    const auto keys = f.provision(kAlice, 0, {1, 2, 3});
    auto& serving = f.net(4).serving();
    sim::LatencyModel link;
    for (std::size_t b : {1, 2, 3}) {
      link.base = b == 1 ? ms(1) : ms(4);
      f.network.set_link(f.net(4).node(), f.net(b).node(), link);
    }
    f.network.node(f.net(0).node()).set_online(false);
    serving.set_home_health(f.net(0).id(), false);  // skip home discovery
    auto ue = f.make_ue(kAlice, keys, 4);
    ASSERT_TRUE(f.attach(*ue).success);  // warm-up: every backup sampled

    f.network.node(f.net(1).node()).set_online(false);
    const auto record = f.attach(*ue);
    EXPECT_TRUE(record.success) << record.failure;
    EXPECT_EQ(record.path, "backup");
    EXPECT_TRUE(record.key_confirmed);
    // A dead first leg costs one hedge delay, never the leg's full timeout.
    EXPECT_LT(record.latency(), core::ServingNetwork::kBackupAuthTimeout);
    hedges += serving.metrics().hedges_launched;
    hedge_wins += serving.metrics().hedge_wins;
  }
  EXPECT_GE(hedges, 1u);
  EXPECT_GE(hedge_wins, 1u);
}

TEST(Resilience, InjectorFeedSkipsKnownDownBackupInstantly) {
  Federation f(5);
  sim::FailureInjector injector(f.network, &f.rpc);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});

  // An announced outage (operator liveness feed): the breaker toward the
  // backup force-opens at outage start, before anyone burns a timeout.
  injector.schedule_outage(f.net(1).node(), f.simulator.now() + ms(1), hours(1));
  f.network.node(f.net(0).node()).set_online(false);
  auto& serving = f.net(4).serving();
  serving.set_home_health(f.net(0).id(), false);

  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
  // The vector fetch never waits on the dead backup: known-down candidates
  // sort to the back of the ladder, and the share round skips them
  // outright. The attach completes well inside one kBackupAuthTimeout.
  EXPECT_LT(record.latency(), core::ServingNetwork::kBackupAuthTimeout);
  EXPECT_GE(serving.metrics().breaker_skips, 1u);
  // Exactly one vector consumed: losers were skipped/cancelled, not served.
  EXPECT_EQ(total_stored_vectors(f, {1, 2, 3}),
            3 * f.config.vectors_per_backup - 1);
}

/// Republishes the home's backup list in the directory as `backups`,
/// signed by the home, and runs until the directory holds it.
void republish_backups(Federation& f, std::vector<NetworkId> backups) {
  bool published = false;
  f.net(0).directory().publish_backups(
      directory::make_backups_entry(f.net(0).id(), std::move(backups), f.net(0).signing_keys()),
      [&](bool ok) { published = ok; });
  f.simulator.run();
  ASSERT_TRUE(published);
}

/// Takes the home down and runs one attach of Alice's at net-5, which must
/// fail with `reason` before it asks any backup for anything: every
/// backup's held material and served counts stay as they were, and the
/// serving network counts one failed attach and no backup auth.
void expect_refused_before_any_backup(Federation& f, const aka::SubscriberKeys& keys,
                                      const std::string& reason) {
  f.network.node(f.net(0).node()).set_online(false);
  const auto& serving = f.net(4).serving().metrics();
  const auto held = [&f] {
    std::vector<std::size_t> counts;
    for (std::size_t b : {1u, 2u, 3u}) {
      const core::BackupNetwork& backup = f.net(b).backup();
      counts.push_back(backup.stored_vectors(f.net(0).id(), kAlice));
      counts.push_back(backup.stored_shares(f.net(0).id(), kAlice));
      counts.push_back(backup.metrics().vectors_served + backup.metrics().shares_served);
      counts.push_back(backup.pending_reports(f.net(0).id()));
    }
    return counts;
  };
  const auto before = held();
  const std::uint64_t failed = serving.attaches_failed;

  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  EXPECT_FALSE(record.success);
  EXPECT_NE(record.failure.find(reason), std::string::npos) << record.failure;
  EXPECT_EQ(serving.attaches_failed, failed + 1);
  EXPECT_EQ(serving.backup_auths, 0u);
  EXPECT_EQ(held(), before);
}

TEST(Resilience, HomeWithNoBackupNetworksFailsTheAttach) {
  // The home is down and its directory entry now lists no backups: the
  // backup path has nowhere to go.
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  republish_backups(f, {});
  expect_refused_before_any_backup(f, keys, "no backup networks");
}

TEST(Resilience, BackupsTheDirectoryCannotResolveFailTheAttach) {
  // The home is down and its entry lists only networks the directory has
  // no entry for: none resolves to an address and a key.
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  republish_backups(f, {NetworkId("ghost-a"), NetworkId("ghost-b")});
  expect_refused_before_any_backup(f, keys, "backups unresolvable");
}

TEST(Resilience, FastFailsWhenReachableBackupsDropBelowThreshold) {
  Federation f(5);
  sim::FailureInjector injector(f.network, &f.rpc);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});

  // Home plus two of three backups announced down: 1 reachable < threshold
  // 2, so the attach fails fast with a distinct outcome instead of burning
  // share-collection timeouts.
  injector.schedule_outage(f.net(1).node(), f.simulator.now() + ms(1), hours(1));
  injector.schedule_outage(f.net(2).node(), f.simulator.now() + ms(1), hours(1));
  f.network.node(f.net(0).node()).set_online(false);
  auto& serving = f.net(4).serving();
  serving.set_home_health(f.net(0).id(), false);

  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  EXPECT_FALSE(record.success);
  EXPECT_NE(record.failure.find("insufficient reachable backups"), std::string::npos)
      << record.failure;
  EXPECT_EQ(serving.metrics().fast_failures, 1u);
  EXPECT_EQ(serving.metrics().backup_auths, 0u);
  // "Fast" is the point: no timeout was paid on the way to the verdict.
  EXPECT_LT(record.latency(), core::ServingNetwork::kBackupAuthTimeout);
}

TEST(Resilience, FastFailsWhenBackupsDropBelowThresholdDuringTheChallenge) {
  // Every backup is reachable when the vector is fetched; while the UE
  // answers the challenge, two of the three are announced down. The share
  // round then finds 1 reachable < threshold 2 and fails fast, before a
  // single backup.get_share call goes out.
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);
  auto& serving = f.net(4).serving();
  serving.set_home_health(f.net(0).id(), false);
  std::size_t share_calls = 0;
  for (std::size_t b : {1, 2, 3}) {
    f.rpc.register_service(f.net(b).node(), "backup.get_share",
                           [&](ByteView, sim::Responder r) {
                             ++share_calls;
                             r.fail(sim::AppErrorCode::kNotFound, "counted");
                           });
  }

  auto ue = f.make_ue(kAlice, keys, 4);
  std::optional<ran::AttachRecord> record;
  bool announced = false;
  std::function<void()> announce_once_served = [&] {
    if (record) return;
    for (std::size_t served : {1, 2, 3}) {
      if (f.net(served).backup().metrics().vectors_served == 0) continue;
      for (std::size_t b : {1, 2, 3}) {
        if (b != served) f.rpc.breakers().force_open_peer(f.net(b).node(), f.simulator.now());
      }
      announced = true;
      return;
    }
    f.simulator.after(us(100), announce_once_served);
  };
  ue->attach([&](const ran::AttachRecord& r) { record = r; });
  announce_once_served();
  f.simulator.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_TRUE(announced);
  EXPECT_FALSE(record->success);
  EXPECT_NE(record->failure.find("insufficient reachable backups"), std::string::npos)
      << record->failure;
  EXPECT_EQ(serving.metrics().fast_failures, 1u);
  EXPECT_EQ(share_calls, 0u);
}

TEST(Resilience, ShareRoundWithEveryCircuitOpenFailsWithoutFastFail) {
  // Fast fail off, breakers on: every backup is announced down once the
  // vector has been checked, so the share round has no backup to send a leg
  // to. It fails the attach at once instead of leaving it to the UE's
  // timeout.
  core::FederationConfig cfg = Federation::test_config();
  cfg.resilience.fast_fail = false;
  Federation f(5, cfg);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);
  auto& serving = f.net(4).serving();
  serving.set_home_health(f.net(0).id(), false);

  auto ue = f.make_ue(kAlice, keys, 4);
  std::optional<ran::AttachRecord> record;
  bool announced = false;
  std::function<void()> announce_once_checked = [&] {
    if (record) return;
    if (serving.metrics().signature_cache_misses == 0) {
      f.simulator.after(us(100), announce_once_checked);
      return;
    }
    for (std::size_t b : {1, 2, 3}) {
      f.rpc.breakers().force_open_peer(f.net(b).node(), f.simulator.now());
    }
    announced = true;
  };
  ue->attach([&](const ran::AttachRecord& r) { record = r; });
  announce_once_checked();
  f.simulator.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_TRUE(announced);
  EXPECT_FALSE(record->success);
  EXPECT_NE(record->failure.find("insufficient key shares"), std::string::npos)
      << record->failure;
  EXPECT_EQ(serving.metrics().fast_failures, 0u);
  EXPECT_EQ(serving.metrics().attaches_failed, 1u);
}

TEST(Resilience, TooFewSharesFailsTheAttach) {
  // Threshold 2, but only net-2 holds the subscriber's share: the home
  // disseminated to net-2 and net-3, then listed net-2, net-4 and net-5 as
  // its backups. net-4 and net-5 hold nothing and refuse every share leg,
  // so one share is all the round can gather.
  Federation f(6);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  f.net(0).set_backups({f.net(1).id(), f.net(3).id(), f.net(4).id()});
  f.network.node(f.net(0).node()).set_online(false);
  auto& serving = f.net(5).serving();
  serving.set_home_health(f.net(0).id(), false);

  auto ue = f.make_ue(kAlice, keys, 5);
  const auto record = f.attach(*ue);
  EXPECT_FALSE(record.success);
  EXPECT_NE(record.failure.find("insufficient key shares"), std::string::npos)
      << record.failure;
  EXPECT_EQ(f.net(1).backup().metrics().shares_served, 1u);
  for (std::size_t b : {3, 4}) {
    EXPECT_EQ(f.net(b).backup().metrics().shares_served, 0u) << "net-" << b + 1;
    EXPECT_GE(f.net(b).backup().metrics().rejected_requests, 1u) << "net-" << b + 1;
  }
  EXPECT_EQ(serving.metrics().fast_failures, 0u);
}

TEST(Resilience, DisabledIsAOneLegLadderWithoutPolicy) {
  core::FederationConfig cfg = Federation::test_config();
  cfg.resilience = core::ResilienceConfig::none();
  Federation f(5, cfg, 1, Federation::breakers_off());
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
  const auto& m = f.net(4).serving().metrics();
  EXPECT_EQ(m.retries, 0u);
  EXPECT_EQ(m.hedges_launched, 0u);
  EXPECT_EQ(m.breaker_skips, 0u);
  EXPECT_EQ(m.fast_failures, 0u);
}

TEST(Resilience, OffPresetCallsAreOneAttemptWithoutDeadline) {
  const core::ResilienceConfig none = core::ResilienceConfig::none();
  EXPECT_EQ(none.hedge_width, 1u);
  EXPECT_FALSE(none.fast_fail);
  for (const Time budget : {Time{0}, sec(2)}) {
    const sim::RpcOptions options = none.call_options(ms(800), budget);
    EXPECT_EQ(options.timeout, ms(800));
    EXPECT_EQ(options.deadline, 0);
    EXPECT_EQ(options.retry.max_attempts, 1);
  }
}

TEST(Resilience, DefaultCallsRetryInsideTheirBudget) {
  const core::ResilienceConfig config;
  const sim::RpcOptions expected = sim::RpcOptions::durable(sec(2), config.retry);
  const sim::RpcOptions durable = config.call_options(ms(800), sec(2));
  EXPECT_EQ(durable.timeout, expected.timeout);
  EXPECT_EQ(durable.deadline, sec(2));
  EXPECT_EQ(durable.retry.max_attempts, config.retry.max_attempts);
  EXPECT_TRUE(durable.use_breaker);

  const sim::RpcOptions single = config.call_options(ms(800));
  EXPECT_EQ(single.timeout, ms(800));
  EXPECT_EQ(single.deadline, 0);
  EXPECT_EQ(single.retry.max_attempts, 1);
}

TEST(Resilience, IdenticalSeedsProduceIdenticalOutcomes) {
  auto run_once = [](std::uint64_t seed) {
    Federation f(5, Federation::test_config(), seed);
    sim::FailureInjector injector(f.network, &f.rpc);
    const auto keys = f.provision(kAlice, 0, {1, 2, 3});
    injector.schedule_outage(f.net(1).node(), f.simulator.now() + ms(1), hours(1));
    f.network.node(f.net(0).node()).set_online(false);
    f.net(4).serving().set_home_health(f.net(0).id(), false);

    auto ue = f.make_ue(kAlice, keys, 4);
    const auto record = f.attach(*ue);
    const auto& m = f.net(4).serving().metrics();
    return std::tuple<bool, Time, std::uint64_t, std::uint64_t>{
        record.success, record.latency(), m.hedges_launched, m.retries};
  };
  const auto first = run_once(77);
  const auto second = run_once(77);
  EXPECT_TRUE(std::get<0>(first));
  EXPECT_EQ(first, second);
  // A different seed is allowed to differ (shuffles, jitter), but must
  // still authenticate.
  EXPECT_TRUE(std::get<0>(run_once(78)));
}

}  // namespace
}  // namespace dauth::testing
