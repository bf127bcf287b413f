// End-to-end federation tests: every auth path of the paper, plus failure
// and recovery behaviour.
#include <gtest/gtest.h>

#include "aka/nas.h"
#include "federation_fixture.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");

TEST(Federation, LocalAuth) {
  Federation f(3);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = f.make_ue(kAlice, keys, /*serving=*/0);  // camped on her home net

  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "local");
  EXPECT_TRUE(record.key_confirmed);
  EXPECT_EQ(f.net(0).serving().metrics().local_auths, 1u);
}

TEST(Federation, HomeOnlineRoaming) {
  Federation f(4);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = f.make_ue(kAlice, keys, /*serving=*/3);  // roaming onto net-4

  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "home-online");
  EXPECT_TRUE(record.key_confirmed);
  EXPECT_EQ(f.net(3).serving().metrics().home_auths, 1u);
  EXPECT_EQ(f.net(0).home().metrics().keys_released, 1u);
}

TEST(Federation, BackupAuthWhenHomeOffline) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);  // home goes dark

  auto ue = f.make_ue(kAlice, keys, /*serving=*/4);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
  EXPECT_TRUE(record.key_confirmed);
  EXPECT_EQ(f.net(4).serving().metrics().backup_auths, 1u);
  EXPECT_EQ(f.net(4).serving().metrics().home_fallbacks, 1u);
}

TEST(Federation, RepeatedBackupAuthsConsumeVectors) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  const std::size_t before = f.net(1).backup().stored_vectors(f.net(0).id(), kAlice) +
                             f.net(2).backup().stored_vectors(f.net(0).id(), kAlice) +
                             f.net(3).backup().stored_vectors(f.net(0).id(), kAlice);
  EXPECT_EQ(before, 3 * f.config.vectors_per_backup);

  auto ue = f.make_ue(kAlice, keys, 4);
  for (int i = 0; i < 5; ++i) {
    const auto record = f.attach(*ue);
    ASSERT_TRUE(record.success) << "attach " << i << ": " << record.failure;
    ASSERT_EQ(record.path, "backup");
    ASSERT_TRUE(record.key_confirmed);
  }
  const std::size_t after = f.net(1).backup().stored_vectors(f.net(0).id(), kAlice) +
                            f.net(2).backup().stored_vectors(f.net(0).id(), kAlice) +
                            f.net(3).backup().stored_vectors(f.net(0).id(), kAlice);
  EXPECT_EQ(after, before - 5);
}

TEST(Federation, BackupAuthFailsBelowThreshold) {
  core::FederationConfig cfg = Federation::test_config();
  cfg.threshold = 3;
  Federation f(5, cfg);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});

  // Home plus two of three backups offline: only 2 shares obtainable < 3.
  f.network.node(f.net(0).node()).set_online(false);
  f.network.node(f.net(1).node()).set_online(false);
  f.network.node(f.net(2).node()).set_online(false);

  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  EXPECT_FALSE(record.success);
  EXPECT_EQ(f.net(4).serving().metrics().backup_auths, 0u);
}

TEST(Federation, BackupAuthToleratesMinorityOutage) {
  core::FederationConfig cfg = Federation::test_config();
  cfg.threshold = 2;
  Federation f(6, cfg);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3, 4});

  // Home and ONE backup down; 3 of 4 backups remain >= threshold.
  f.network.node(f.net(0).node()).set_online(false);
  f.network.node(f.net(1).node()).set_online(false);

  auto ue = f.make_ue(kAlice, keys, 5);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
}

TEST(Federation, ReportingReplenishesAndInformsHome) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success);
  ASSERT_EQ(record.path, "backup");

  // Backups that released shares hold pending proofs.
  std::size_t pending = 0;
  for (std::size_t i : {1u, 2u, 3u}) pending += f.net(i).backup().pending_reports(f.net(0).id());
  EXPECT_GE(pending, f.config.threshold);

  // Home comes back; backups report.
  f.network.node(f.net(0).node()).set_online(true);
  for (std::size_t i : {1u, 2u, 3u}) f.net(i).backup().report_now(f.net(0).id());
  f.simulator.run();

  EXPECT_GE(f.net(0).home().metrics().reports_processed, 1u);
  EXPECT_GE(f.net(0).home().metrics().replenishments, 1u);
  EXPECT_TRUE(f.net(0).home().anomalies().empty());
  for (std::size_t i : {1u, 2u, 3u}) {
    EXPECT_EQ(f.net(i).backup().pending_reports(f.net(0).id()), 0u);
  }
}

TEST(Federation, PeriodicReportTimerFires) {
  core::FederationConfig cfg = Federation::test_config();
  cfg.report_interval = minutes(1);
  Federation f(5, cfg);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});

  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  ASSERT_TRUE(f.attach(*ue).success);

  // Home returns; within two report intervals the proofs must drain.
  f.network.node(f.net(0).node()).set_online(true);
  f.simulator.run_until(f.simulator.now() + minutes(3));
  for (std::size_t i : {1u, 2u, 3u}) {
    EXPECT_EQ(f.net(i).backup().pending_reports(f.net(0).id()), 0u);
  }
  EXPECT_GE(f.net(0).home().metrics().reports_processed, 1u);
}

TEST(Federation, LargeReportIsAcknowledgedAfterHomeReturns) {
  // The home charges report_processing (4 ms) per proof before it acks, so
  // 1,300 proofs take 5.2 s: longer than an interactive 5 s deadline.
  constexpr std::size_t kAttaches = 1300;
  core::FederationConfig cfg = Federation::test_config();
  cfg.report_interval = minutes(1);
  cfg.vectors_per_backup = kAttaches / 3 + 1;
  Federation f(5, cfg);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});

  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  for (std::size_t i = 0; i < kAttaches; ++i) {
    const auto record = f.attach(*ue);
    ASSERT_TRUE(record.success) << "attach " << i << ": " << record.failure;
  }
  core::BackupNetwork& backup = f.net(1).backup();
  ASSERT_GE(backup.pending_reports(f.net(0).id()), 1000u);
  ASSERT_EQ(backup.metrics().reports_sent, 0u);

  f.network.node(f.net(0).node()).set_online(true);
  f.simulator.run_until(f.simulator.now() + minutes(5));
  for (std::size_t i : {1u, 2u, 3u}) {
    EXPECT_EQ(f.net(i).backup().pending_reports(f.net(0).id()), 0u) << "net-" << i + 1;
    EXPECT_GE(f.net(i).backup().metrics().reports_sent, 1u) << "net-" << i + 1;
  }
  EXPECT_EQ(f.net(0).home().metrics().replenishments, kAttaches);
}

TEST(Federation, HomeRecoveryRestoresDirectPath) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});

  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  auto r1 = f.attach(*ue);
  ASSERT_EQ(r1.path, "backup");

  // Home returns. The serving network's health cache marks home down; once
  // the verdict ages past the TTL, the next attach triggers an async probe
  // (still served via backups), and the one after that goes direct.
  f.network.node(f.net(0).node()).set_online(true);
  f.simulator.run_until(f.simulator.now() + sec(60));
  auto r2 = f.attach(*ue);
  EXPECT_TRUE(r2.success) << r2.failure;
  EXPECT_EQ(r2.path, "backup");  // probe races in the background
  auto r3 = f.attach(*ue);
  EXPECT_TRUE(r3.success) << r3.failure;
  EXPECT_EQ(r3.path, "home-online");
}

TEST(Federation, SuciAttachLocal) {
  Federation f(3);
  f.provision(kAlice, 0, {1, 2});

  auto profile = f.ue_profile();
  profile.use_suci = true;
  auto ue = f.make_ue(kAlice, f.net(0).node(), profile);
  ue->configure_suci(f.net(0).id(), f.net(0).suci_keys().public_key);

  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "local");
}

TEST(Federation, SuciAttachViaBackup) {
  Federation f(5);
  f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  auto profile = f.ue_profile();
  profile.use_suci = true;
  auto ue = f.make_ue(kAlice, f.net(4).node(), profile);
  ue->configure_suci(f.net(0).id(), f.net(0).suci_keys().public_key);

  // Backups can de-conceal because the home network shared its SUCI key
  // during dissemination (§4.2.1).
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
}

TEST(Federation, SuciWithTrailingByteIsMalformed) {
  // A SUCI's wire form ends at its tag: one extra byte makes the request
  // malformed, at the serving core and at a backup alike.
  Federation f(3);
  (void)f.provision(kAlice, 0, {1, 2});
  crypto::DeterministicDrbg rng("trailing-suci", 1);
  Bytes suci = wire::encode(aka::conceal_supi(kAlice, f.net(0).suci_keys().public_key, rng));
  suci.push_back(0x00);

  // A SUCI attach at Alice's home core: the local path de-conceals it.
  aka::AttachRequest attach;
  attach.suci = suci;
  attach.home = f.net(0).id();  // routing hint
  std::optional<sim::RpcError> attach_error;
  f.rpc.call(f.ran_node, f.net(0).node(), "serving.attach_request", wire::encode(attach), {},
             [&](Bytes) { ADD_FAILURE() << "challenge sent for a malformed SUCI"; },
             [&](sim::RpcError e) { attach_error = e; });

  core::GetVectorRequest fetch;
  fetch.serving_network = f.net(2).id();
  fetch.suci = suci;
  std::optional<sim::RpcError> fetch_error;
  f.rpc.call(f.net(2).node(), f.net(1).node(), "backup.get_vector", wire::encode(fetch), {},
             [&](Bytes) { ADD_FAILURE() << "vector served for a malformed SUCI"; },
             [&](sim::RpcError e) { fetch_error = e; });
  f.simulator.run();

  ASSERT_TRUE(attach_error.has_value());
  EXPECT_EQ(attach_error->message, "malformed suci");
  ASSERT_TRUE(fetch_error.has_value() && fetch_error->app.has_value());
  EXPECT_EQ(fetch_error->app->code, sim::AppErrorCode::kMalformed);
  EXPECT_EQ(f.net(1).backup().metrics().vectors_served, 0u);
}

TEST(Federation, UnknownUserFails) {
  Federation f(3);
  f.provision(kAlice, 0, {1, 2});
  aka::SubscriberKeys bogus{};
  auto ue = f.make_ue(Supi("999990000000001"), bogus, 1);
  const auto record = f.attach(*ue);
  EXPECT_FALSE(record.success);
}

TEST(Federation, WrongSimKeysRejectedByUe) {
  // The UE's USIM detects that the challenge wasn't built with its key
  // (MAC failure) and aborts — mutual authentication.
  Federation f(3);
  (void)f.provision(kAlice, 0, {1, 2});
  aka::SubscriberKeys wrong_keys{};
  wrong_keys.k.fill(0x42);
  wrong_keys.opc.fill(0x17);
  auto ue = f.make_ue(kAlice, wrong_keys, 0);
  const auto record = f.attach(*ue);
  EXPECT_FALSE(record.success);
  EXPECT_EQ(record.failure, "usim mac failure");
}

TEST(Federation, MultipleSubscribersIndependent) {
  Federation f(5);
  const Supi bob("901550000000002");
  const auto alice_keys = f.provision(kAlice, 0, {1, 2, 3});
  // Bob lives on net-2 with different backups.
  std::vector<NetworkId> bob_backups = {f.net(2).id(), f.net(3).id()};
  f.net(1).set_backups(bob_backups);
  const auto bob_keys = f.net(1).provision_subscriber(bob);
  bool done = false;
  f.net(1).home().disseminate(bob, [&](std::size_t) { done = true; });
  f.simulator.run();
  ASSERT_TRUE(done);

  auto alice_ue = f.make_ue(kAlice, alice_keys, 4);
  auto bob_ue = f.make_ue(bob, bob_keys, 4);

  EXPECT_EQ(f.attach(*alice_ue).path, "home-online");
  EXPECT_EQ(f.attach(*bob_ue).path, "home-online");

  // Alice's home dies; only Alice needs the backup path.
  f.network.node(f.net(0).node()).set_online(false);
  EXPECT_EQ(f.attach(*alice_ue).path, "backup");
  EXPECT_EQ(f.attach(*bob_ue).path, "home-online");
}

TEST(Federation, ConcurrentAttachesAllSucceed) {
  Federation f(6);
  std::vector<std::unique_ptr<ran::Ue>> ues;
  for (int i = 0; i < 10; ++i) {
    const Supi supi("90155000000100" + std::to_string(i));
    const auto keys = f.provision(supi, 0, {1, 2, 3});
    ues.push_back(f.make_ue(supi, keys, 5));
  }
  int successes = 0;
  for (auto& ue : ues) {
    ue->attach([&](const ran::AttachRecord& r) {
      if (r.success && r.key_confirmed) ++successes;
    });
  }
  f.simulator.run();
  EXPECT_EQ(successes, 10);
}

TEST(Federation, VectorsExhaustedFailsGracefully) {
  core::FederationConfig cfg = Federation::test_config();
  cfg.vectors_per_backup = 1;  // one per backup -> 3 total
  Federation f(5, cfg);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  auto ue = f.make_ue(kAlice, keys, 4);
  int successes = 0;
  // With race width 2 a failed race can burn extra vectors; at most 3
  // attaches can succeed, and once the pool is dry attaches must fail
  // cleanly rather than hang.
  for (int i = 0; i < 5; ++i) {
    const auto record = f.attach(*ue);
    if (record.success) ++successes;
  }
  EXPECT_LE(successes, 3);
  EXPECT_GE(successes, 1);
  const auto final_record = f.attach(*ue);
  EXPECT_FALSE(final_record.success);
}

}  // namespace
}  // namespace dauth::testing
