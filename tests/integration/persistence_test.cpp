// Backup-daemon persistence: delegated material survives a process restart
// (the role SQLite plays in the paper's prototype, §5.1).
#include <gtest/gtest.h>

#include <functional>

#include "federation_fixture.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");
const Supi kBob("901550000000002");

// A federation where one backup (net-2 == index 1) runs with a durable
// store we can hand to a "restarted" instance.
struct PersistentFixture {
  Federation f{5};
  store::KvStore durable;  // in-memory KvStore standing in for the disk

  PersistentFixture() = default;

  /// Builds a fresh BackupNetwork instance over the same store, as a
  /// restarted daemon would, and rebinds its services on the node.
  std::unique_ptr<core::BackupNetwork> restart_backup() {
    auto restarted = std::make_unique<core::BackupNetwork>(
        f.rpc, f.net(1).node(), f.net(1).id(), f.net(1).directory(), f.config, &durable);
    restarted->bind_services();
    return restarted;
  }
};

TEST(Persistence, BackupRestartKeepsServingVectors) {
  PersistentFixture fixture;
  Federation& f = fixture.f;

  // Replace net-2's backup role with a store-backed one BEFORE provisioning.
  auto durable_backup = std::make_unique<core::BackupNetwork>(
      f.rpc, f.net(1).node(), f.net(1).id(), f.net(1).directory(), f.config,
      &fixture.durable);
  durable_backup->bind_services();

  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  ASSERT_GT(durable_backup->stored_vectors(f.net(0).id(), kAlice), 0u);
  ASSERT_GT(fixture.durable.size(), 0u);

  // "Crash" the daemon: drop the in-memory instance entirely.
  durable_backup.reset();
  auto restarted = fixture.restart_backup();

  // All material is back.
  EXPECT_EQ(restarted->stored_vectors(f.net(0).id(), kAlice), f.config.vectors_per_backup);
  EXPECT_EQ(restarted->stored_shares(f.net(0).id(), kAlice),
            3 * f.config.vectors_per_backup);

  // And it still serves authentications with the home offline.
  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  int backup_successes = 0;
  for (int i = 0; i < 3; ++i) {
    const auto record = f.attach(*ue);
    if (record.success && record.path == "backup") ++backup_successes;
  }
  EXPECT_EQ(backup_successes, 3);
}

TEST(Persistence, PendingProofsSurviveRestartAndGetReported) {
  PersistentFixture fixture;
  Federation& f = fixture.f;

  auto durable_backup = std::make_unique<core::BackupNetwork>(
      f.rpc, f.net(1).node(), f.net(1).id(), f.net(1).directory(), f.config,
      &fixture.durable);
  durable_backup->bind_services();

  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success);
  const std::size_t pending = durable_backup->pending_reports(f.net(0).id());
  ASSERT_GT(pending, 0u);

  // Crash + restart while the home is still down.
  durable_backup.reset();
  auto restarted = fixture.restart_backup();
  EXPECT_EQ(restarted->pending_reports(f.net(0).id()), pending);

  // Home returns; the restarted daemon can still deliver its proofs.
  f.network.node(f.net(0).node()).set_online(true);
  restarted->report_now(f.net(0).id());
  f.simulator.run();
  EXPECT_EQ(restarted->pending_reports(f.net(0).id()), 0u);
  EXPECT_GE(f.net(0).home().metrics().reports_processed, 1u);
}

TEST(Persistence, ProofReleasedDuringAReportSurvivesTheAckAndARestart) {
  PersistentFixture fixture;
  Federation& f = fixture.f;

  auto durable_backup = std::make_unique<core::BackupNetwork>(
      f.rpc, f.net(1).node(), f.net(1).id(), f.net(1).directory(), f.config,
      &fixture.durable);
  durable_backup->bind_services();
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  const NetworkId& home = f.net(0).id();

  // The home stays up, but the serving network cannot reach it, so attaches
  // take the backup path; net-2's slow link to the home keeps its report in
  // flight while the next attach runs.
  sim::LatencyModel cut;
  cut.loss = 1.0;
  f.network.set_link(f.net(4).node(), f.net(0).node(), cut);
  sim::LatencyModel slow;
  slow.base = ms(500);
  f.network.set_link(f.net(1).node(), f.net(0).node(), slow);

  auto ue = f.make_ue(kAlice, keys, 4);
  ASSERT_TRUE(f.attach(*ue).success);
  ASSERT_EQ(durable_backup->pending_reports(home), 1u);

  // A second attach releases a share while the report of the first is in
  // flight; the ack clears only the proof it acknowledges.
  durable_backup->report_now(home);
  std::optional<ran::AttachRecord> second;
  ue->attach([&](const ran::AttachRecord& r) { second = r; });
  f.simulator.run();
  ASSERT_TRUE(second && second->success);
  ASSERT_EQ(durable_backup->metrics().reports_sent, 1u);
  EXPECT_EQ(durable_backup->pending_reports(home), 1u);

  // The unacknowledged proof is still on disk after a restart...
  durable_backup.reset();
  auto restarted = fixture.restart_backup();
  EXPECT_EQ(restarted->pending_reports(home), 1u);

  // ...and is reported next time.
  const std::uint64_t processed = f.net(0).home().metrics().reports_processed;
  restarted->report_now(home);
  f.simulator.run();
  EXPECT_EQ(restarted->pending_reports(home), 0u);
  EXPECT_EQ(f.net(0).home().metrics().reports_processed, processed + 1);
  EXPECT_EQ(f.net(0).home().metrics().replenishments, 2u);
}

TEST(Persistence, ConsumedVectorsStayConsumedAfterRestart) {
  PersistentFixture fixture;
  Federation& f = fixture.f;

  auto durable_backup = std::make_unique<core::BackupNetwork>(
      f.rpc, f.net(1).node(), f.net(1).id(), f.net(1).directory(), f.config,
      &fixture.durable);
  durable_backup->bind_services();

  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  auto ue = f.make_ue(kAlice, keys, 4);
  ASSERT_TRUE(f.attach(*ue).success);
  const std::size_t vectors_after_use = durable_backup->stored_vectors(f.net(0).id(), kAlice);

  durable_backup.reset();
  auto restarted = fixture.restart_backup();
  // A consumed vector must NOT resurrect on restart (it would be served
  // again and rejected by the SIM's replay protection).
  EXPECT_EQ(restarted->stored_vectors(f.net(0).id(), kAlice), vectors_after_use);
}

TEST(Persistence, SuciKeySurvivesRestart) {
  PersistentFixture fixture;
  Federation& f = fixture.f;

  auto durable_backup = std::make_unique<core::BackupNetwork>(
      f.rpc, f.net(1).node(), f.net(1).id(), f.net(1).directory(), f.config,
      &fixture.durable);
  durable_backup->bind_services();

  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  durable_backup.reset();
  auto restarted = fixture.restart_backup();

  // SUCI attach routed through the restarted backup must still de-conceal.
  auto profile = ran::emulated_ran_profile(f.config.serving_network_name);
  profile.use_suci = true;
  core::FederationConfig narrow = f.config;
  auto ue = std::make_unique<ran::Ue>(f.rpc, f.ran_node, f.net(4).node(), kAlice, keys,
                                      profile);
  ue->configure_suci(f.net(0).id(), f.net(0).suci_keys().public_key);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
  (void)narrow;
}

TEST(Persistence, RestoreDropsABatchWhoseBundlesDisagree) {
  // A batch record holds no round position or signature: the backup takes
  // them from the batch's bundles, so a batch whose persisted bundles
  // disagree on them is dropped whole at restore. Bob's batch is untouched.
  const std::vector<std::pair<const char*, std::function<void(core::KeyShareBundle&)>>> edits = {
      {"round signature", [](core::KeyShareBundle& b) { b.home_signature[0] ^= 1; }},
      {"round position", [](core::KeyShareBundle& b) { b.batch.batch_index = 1; }},
  };
  for (const auto& [name, edit] : edits) {
    PersistentFixture fixture;
    Federation& f = fixture.f;
    auto durable_backup = std::make_unique<core::BackupNetwork>(
        f.rpc, f.net(1).node(), f.net(1).id(), f.net(1).directory(), f.config,
        &fixture.durable);
    durable_backup->bind_services();
    f.provision(kAlice, 0, {1, 2, 3});
    f.provision(kBob, 0, {1, 2, 3});
    const NetworkId& home = f.net(0).id();
    durable_backup.reset();

    // net-2's batch of Alice's round sits in batch slot 0 of 3; slot 1 has a
    // round path of the same length, so only the disagreement can refuse it.
    const std::string key =
        fixture.durable.keys_with_prefix("share/" + home.str() + "/" + kAlice.str()).front();
    auto bundle = core::KeyShareBundle::decode(*fixture.durable.get(key));
    ASSERT_EQ(bundle.batch.batch_index, 0u) << name;
    edit(bundle);
    fixture.durable.put(key, bundle.encode());

    auto restarted = fixture.restart_backup();
    EXPECT_EQ(restarted->stored_vectors(home, kAlice), 0u) << name;
    EXPECT_EQ(restarted->stored_shares(home, kAlice), 0u) << name;
    EXPECT_EQ(restarted->stored_vectors(home, kBob), f.config.vectors_per_backup) << name;
    EXPECT_EQ(restarted->stored_shares(home, kBob), 3 * f.config.vectors_per_backup) << name;
  }
}

}  // namespace
}  // namespace dauth::testing
