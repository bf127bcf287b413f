// Backup-daemon persistence: delegated material survives a process restart
// (the role SQLite plays in the paper's prototype, §5.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/home_network.h"
#include "../core/batch_layout.h"
#include "federation_fixture.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");
const Supi kBob("901550000000002");

/// Five networks, net-2 (index 1) durable: its backup role keeps its state
/// in a store that outlives a restart.
core::FederationSpec durable_net2() {
  core::FederationSpec spec = Federation::flat(5);
  spec.networks[1].durable = true;
  return spec;
}

TEST(Persistence, BackupRestartKeepsServingVectors) {
  Federation f(durable_net2());
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  ASSERT_GT(f.net(1).backup().stored_vectors(f.net(0).id(), kAlice), 0u);
  ASSERT_GT(f.stores[1]->size(), 0u);

  // "Crash" the daemon: drop the in-memory instance entirely.
  f.net(1).restart_backup();

  // All material is back.
  EXPECT_EQ(f.net(1).backup().stored_vectors(f.net(0).id(), kAlice), f.config.vectors_per_backup);
  EXPECT_EQ(f.net(1).backup().stored_shares(f.net(0).id(), kAlice),
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
  Federation f(durable_net2());
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success);
  const std::size_t pending = f.net(1).backup().pending_reports(f.net(0).id());
  ASSERT_GT(pending, 0u);

  // Crash + restart while the home is still down.
  f.net(1).restart_backup();
  EXPECT_EQ(f.net(1).backup().pending_reports(f.net(0).id()), pending);

  // Home returns; the restarted daemon can still deliver its proofs.
  f.network.node(f.net(0).node()).set_online(true);
  f.net(1).backup().report_now(f.net(0).id());
  f.simulator.run();
  EXPECT_EQ(f.net(1).backup().pending_reports(f.net(0).id()), 0u);
  EXPECT_GE(f.net(0).home().metrics().reports_processed, 1u);
}

TEST(Persistence, ProofReleasedDuringAReportSurvivesTheAckAndARestart) {
  Federation f(durable_net2());
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
  ASSERT_EQ(f.net(1).backup().pending_reports(home), 1u);

  // A second attach releases a share while the report of the first is in
  // flight; the ack clears only the proof it acknowledges.
  f.net(1).backup().report_now(home);
  ASSERT_TRUE(f.attach(*ue).success);
  f.simulator.run();
  ASSERT_EQ(f.net(1).backup().metrics().reports_sent, 1u);
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 1u);

  // The unacknowledged proof is still on disk after a restart...
  f.net(1).restart_backup();
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 1u);

  // ...and is reported next time.
  const std::uint64_t processed = f.net(0).home().metrics().reports_processed;
  f.net(1).backup().report_now(home);
  f.simulator.run();
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 0u);
  EXPECT_EQ(f.net(0).home().metrics().reports_processed, processed + 1);
  EXPECT_EQ(f.net(0).home().metrics().replenishments, 2u);
}

TEST(Persistence, ConsumedVectorsStayConsumedAfterRestart) {
  Federation f(durable_net2());

  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  auto ue = f.make_ue(kAlice, keys, 4);
  ASSERT_TRUE(f.attach(*ue).success);
  const std::size_t vectors_after_use = f.net(1).backup().stored_vectors(f.net(0).id(), kAlice);

  f.net(1).restart_backup();
  // A consumed vector must NOT resurrect on restart (it would be served
  // again and rejected by the SIM's replay protection).
  EXPECT_EQ(f.net(1).backup().stored_vectors(f.net(0).id(), kAlice), vectors_after_use);
}

/// Pulls the next stored vector for `supi` straight from a backup, as the
/// serving network net-5 would receive it.
core::AuthVectorBundle pull_vector(Federation& f, std::size_t backup, const Supi& supi) {
  core::GetVectorRequest req;
  req.serving_network = f.net(4).id();
  req.supi = supi;
  std::optional<core::AuthVectorBundle> bundle;
  f.rpc.call(f.net(4).node(), f.net(backup).node(), "backup.get_vector", wire::encode(req), {},
             [&](Bytes reply) { bundle = wire::decode<core::AuthVectorBundle>(reply); }, nullptr);
  f.simulator.run();
  return bundle.value();
}

/// net-5's signed proof that it used `vector`.
core::UsageProof sign_proof(Federation& f, const core::AuthVectorBundle& vector,
                            const aka::SubscriberKeys& keys) {
  core::UsageProof proof;
  proof.serving_network = f.net(4).id();
  proof.supi = vector.supi;
  proof.res_star =
      aka::generate_auth_vector(keys, vector.sqn, vector.rand, f.config.serving_network_name)
          .xres_star;
  proof.hxres_star = core::hxres_index(proof.res_star);
  proof.timestamp = f.simulator.now();
  proof.serving_signature = crypto::ed25519_sign(proof.signed_payload(), f.net(4).signing_keys());
  return proof;
}

/// Asks a backup for its share of `vector` with net-5's signed proof of use;
/// true when the share is released.
bool release_share(Federation& f, std::size_t backup, const core::AuthVectorBundle& vector,
                   const aka::SubscriberKeys& keys) {
  bool released = false;
  f.rpc.call(f.net(4).node(), f.net(backup).node(), "backup.get_share",
             wire::encode(sign_proof(f, vector, keys)), {}, [&](Bytes) { released = true; },
             nullptr);
  f.simulator.run();
  return released;
}

TEST(Persistence, FloodCopyDroppedByAProofStaysDropped) {
  // §4.3: a flood vector goes to every backup. When net-3 serves it and
  // net-2 releases its share against the proof, net-2 drops its own copy of
  // the consumed vector; a restart must not bring that copy back, or net-2
  // would serve it again and the SIM would refuse it as a replay.
  Federation f(durable_net2());
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  const NetworkId& home = f.net(0).id();

  // Revoking net-4 floods a vector to net-2 and net-3.
  bool revoked = false;
  f.net(0).home().revoke_backup(f.net(3).id(), [&] { revoked = true; });
  f.simulator.run();
  ASSERT_TRUE(revoked);
  ASSERT_EQ(f.net(1).backup().stored_vectors(home, kAlice), f.config.vectors_per_backup + 1);

  const core::AuthVectorBundle flood = pull_vector(f, 2, kAlice);
  ASSERT_TRUE(flood.flood);
  ASSERT_TRUE(release_share(f, 1, flood, keys));
  ASSERT_EQ(f.net(1).backup().stored_vectors(home, kAlice), f.config.vectors_per_backup);

  f.net(1).restart_backup();
  EXPECT_EQ(f.net(1).backup().stored_vectors(home, kAlice), f.config.vectors_per_backup);
  const core::AuthVectorBundle next = pull_vector(f, 1, kAlice);
  EXPECT_FALSE(next.flood);
  EXPECT_NE(next.hxres_star, flood.hxres_star);
}

/// Folds every batch/ key and value of `store` into `h`, in key order.
void hash_records(crypto::Sha256& h, const store::KvStore& store) {
  for (const auto& key : store.keys_with_prefix("batch/")) {
    h.update(as_bytes(key));
    h.update(store.get(key).value());
  }
}

/// Folds `sqn` into `h` as 8 big-endian bytes.
void hash_sqn(crypto::Sha256& h, std::uint64_t sqn) {
  ByteArray<8> be{};
  for (std::size_t i = 0; i < be.size(); ++i) be[i] = static_cast<std::uint8_t>(sqn >> (56 - 8 * i));
  h.update(be);
}

TEST(Persistence, HeldBatchRecordsArePinned) {
  // The persisted form of every held batch and the order a backup serves
  // its vectors in, through floods, attaches, a report with its revoke and
  // refill round, and a restart. net-2 (durable) and net-3 back Alice and
  // Bob up after net-4 and net-5 are revoked, so each holds two flood
  // vectors per user on top of its slice. The digest covers every batch/
  // record at three points and every SQN net-2 serves straight to net-6:
  // a change to the held layout must leave it as it is.
  core::FederationSpec spec = Federation::flat(6);
  spec.networks[1].durable = true;
  Federation f(std::move(spec));
  const NetworkId& home = f.net(0).id();
  const auto alice_keys = f.provision(kAlice, 0, {1, 2, 3, 4});
  const auto bob_keys = f.provision(kBob, 0, {1, 2, 3, 4});
  for (std::size_t revoked : {3, 4}) {
    bool done = false;
    f.net(0).home().revoke_backup(f.net(revoked).id(), [&] { done = true; });
    f.simulator.run();
    ASSERT_TRUE(done);
  }
  ASSERT_EQ(f.net(1).backup().stored_vectors(home, kAlice), f.config.vectors_per_backup + 2);
  ASSERT_EQ(f.net(1).backup().stored_vectors(home, kBob), f.config.vectors_per_backup + 2);

  crypto::Sha256 h;
  hash_records(h, *f.stores[1]);
  const auto pull = [&](const Supi& supi) {
    core::GetVectorRequest req;
    req.serving_network = f.net(5).id();
    req.supi = supi;
    std::optional<core::AuthVectorBundle> bundle;
    f.rpc.call(f.net(5).node(), f.net(1).node(), "backup.get_vector", wire::encode(req), {},
               [&](Bytes reply) { bundle = wire::decode<core::AuthVectorBundle>(reply); },
               nullptr);
    f.simulator.run();
    ASSERT_TRUE(bundle.has_value());
    hash_sqn(h, bundle->sqn);
  };
  pull(kAlice);  // the lowest-SQN flood vector
  f.net(1).restart_backup();
  pull(kBob);  // after a restart too, floods first, by SQN

  f.network.node(f.net(0).node()).set_online(false);
  auto alice = f.make_ue(kAlice, alice_keys, 5);
  auto bob = f.make_ue(kBob, bob_keys, 5);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(f.attach(*alice).success) << "alice " << i;
    ASSERT_TRUE(f.attach(*bob).success) << "bob " << i;
  }
  f.network.node(f.net(0).node()).set_online(true);
  f.net(1).backup().report_now(home);
  f.net(2).backup().report_now(home);
  f.simulator.run();  // a revoke and a refill round per user
  hash_records(h, *f.stores[1]);
  pull(kAlice);
  pull(kBob);

  f.net(1).restart_backup();
  f.network.node(f.net(0).node()).set_online(false);
  ASSERT_TRUE(f.attach(*alice).success);
  ASSERT_TRUE(f.attach(*bob).success);
  for (const Supi& supi : {kAlice, kBob}) {
    while (f.net(1).backup().stored_vectors(home, supi) > 0) pull(supi);
  }
  hash_records(h, *f.stores[1]);
  EXPECT_EQ(to_hex(h.finish()), "fd3d1db1dbcc8191c43bcad7db3605b65318959761e2da9d84cf5bd2bb52329e");
}

TEST(Persistence, RestartKeepsTheServeOrder) {
  // §4.3: the SIM accepts an SQN only above its slice's high-water mark, so
  // the order a backup serves its vectors in is protocol state. Two
  // revocations leave net-2 (durable) two flood vectors for Alice on top of
  // its slice; drained, a restarted net-2 serves the same SQN sequence as
  // one that kept running in the same seeded world.
  const auto drain = [](bool restart) {
    core::FederationSpec spec = Federation::flat(6);
    spec.networks[1].durable = true;
    Federation f(std::move(spec));
    const NetworkId& home = f.net(0).id();
    f.provision(kAlice, 0, {1, 2, 3, 4});
    for (std::size_t revoked : {3, 4}) {
      bool done = false;
      f.net(0).home().revoke_backup(f.net(revoked).id(), [&] { done = true; });
      f.simulator.run();
      EXPECT_TRUE(done);
    }
    EXPECT_EQ(f.net(1).backup().stored_vectors(home, kAlice), f.config.vectors_per_backup + 2);
    if (restart) f.net(1).restart_backup();
    std::vector<std::uint64_t> sqns;
    while (f.net(1).backup().stored_vectors(home, kAlice) > 0) {
      sqns.push_back(pull_vector(f, 1, kAlice).sqn);
    }
    return sqns;
  };
  const std::vector<std::uint64_t> running = drain(false);
  EXPECT_EQ(drain(true), running);
}

/// Wraps net `b`'s backup.get_vector and backup.get_share handlers so that
/// each reply payload is folded into `h`, after the backup's name and the
/// service's; `replies` counts them. A restart re-registers the backup's own
/// handlers, so a restarted backup is wrapped again.
void tap_served(Federation& f, std::size_t b, crypto::Sha256& h, std::size_t& replies) {
  for (const char* service : {"backup.get_vector", "backup.get_share"}) {
    auto inner = std::make_shared<sim::ServiceHandler>();
    *inner = f.rpc.register_service(
        f.net(b).node(), service, [&f, &h, &replies, b, service, inner](ByteView request,
                                                                         sim::Responder r) {
          const auto fold = [&f, &h, &replies, b, service, r](Bytes reply,
                                                              std::optional<sim::AppError> error) {
            if (error) {
              r.fail(std::move(*error));
              return;
            }
            h.update(as_bytes(f.net(b).id().str() + " " + service));
            h.update(reply);
            ++replies;
            r.reply(std::move(reply));
          };
          (*inner)(request, sim::Responder(std::make_shared<sim::Responder::ReplyFn>(fold)));
        });
  }
}

TEST(Persistence, ServedBytesArePinned) {
  // Every vector and share reply the backups send, byte for byte: the
  // bundle, its in-batch path and its round path. Revoking net-5 floods a
  // vector per user to net-2..net-4, so the attaches serve floods and drop
  // the flood copies of the backups that release shares for them; net-2
  // (durable) restarts between serves, twice; a report's revoke and refill
  // round runs in between; and net-2's last vectors are pulled out straight.
  // A change to how a backup holds its batches or cuts their paths must
  // leave the digest as it is.
  core::FederationSpec spec = Federation::flat(6);
  spec.networks[1].durable = true;
  Federation f(std::move(spec));
  const NetworkId& home = f.net(0).id();
  const auto alice_keys = f.provision(kAlice, 0, {1, 2, 3, 4});
  const auto bob_keys = f.provision(kBob, 0, {1, 2, 3, 4});
  bool revoked = false;
  f.net(0).home().revoke_backup(f.net(4).id(), [&] { revoked = true; });
  f.simulator.run();
  ASSERT_TRUE(revoked);

  crypto::Sha256 h;
  std::size_t replies = 0;
  for (std::size_t b = 1; b <= 4; ++b) tap_served(f, b, h, replies);
  const auto held_vectors = [&] {
    std::size_t held = 0;
    for (std::size_t b = 1; b <= 3; ++b) {
      held += f.net(b).backup().stored_vectors(home, kAlice) +
              f.net(b).backup().stored_vectors(home, kBob);
    }
    return held;
  };
  const std::size_t before = held_vectors();
  ASSERT_EQ(before, 2 * 3 * (f.config.vectors_per_backup + 1));

  f.network.node(f.net(0).node()).set_online(false);
  auto alice = f.make_ue(kAlice, alice_keys, 5);
  auto bob = f.make_ue(kBob, bob_keys, 5);
  const auto attach_both = [&] {
    ASSERT_TRUE(f.attach(*alice).success);
    ASSERT_TRUE(f.attach(*bob).success);
  };
  attach_both();
  // Two flood vectors served, and every other copy of them dropped.
  ASSERT_EQ(held_vectors(), before - 2 * 3);
  f.net(1).restart_backup();
  tap_served(f, 1, h, replies);
  attach_both();

  f.network.node(f.net(0).node()).set_online(true);
  for (std::size_t b = 1; b <= 3; ++b) f.net(b).backup().report_now(home);
  f.simulator.run();  // a revoke and a refill round per user
  f.net(1).restart_backup();
  tap_served(f, 1, h, replies);
  f.network.node(f.net(0).node()).set_online(false);
  attach_both();
  for (const Supi& supi : {kAlice, kBob}) {
    while (f.net(1).backup().stored_vectors(home, supi) > 0) pull_vector(f, 1, supi);
  }
  EXPECT_EQ(replies, 33u);
  EXPECT_EQ(to_hex(h.finish()), "5f468515c4e5eb00e57af6d1b99c42034b706d8ccdc960d4cbe4e80a25f62fa2");
}

/// Wraps the home's home.report handler so that each report's proofs are
/// folded into `h`, in report order, each as its reporting backup, SUPI,
/// serving network, H(XRES*) and RES*; `reports` counts them. A proof's
/// timestamp and signature are left out: they move with the virtual time
/// of the attach, so with the size of any message sent before it.
void tap_reports(Federation& f, crypto::Sha256& h, std::size_t& reports) {
  auto inner = std::make_shared<sim::ServiceHandler>();
  *inner = f.rpc.register_service(
      f.net(0).node(), "home.report", [&h, &reports, inner](ByteView request, sim::Responder r) {
        const auto report = wire::decode<core::ReportRequest>(request);
        for (const core::UsageProof& proof : report.proofs) {
          wire::Writer w;
          w.field(report.backup_network, proof.supi, proof.serving_network, proof.hxres_star,
                  proof.res_star);
          h.update(std::move(w).take());
        }
        ++reports;
        (*inner)(request, std::move(r));
      });
}

TEST(Persistence, ReportBytesArePinned) {
  // Every proof the backups report, in report order: which backup reported
  // it, and what it proves (see tap_reports). An outage leaves proofs of Alice's
  // and Bob's attaches pending at every backup; once the home is back but
  // cut off from the serving network, net-2's report is in flight on a slow
  // link while another attach releases a share there; net-2 (durable)
  // restarts with that proof pending; then every backup reports and is
  // acked. A change to how a backup keeps or reports its proofs must leave
  // the digest as it is.
  Federation f(durable_net2());
  const NetworkId& home = f.net(0).id();
  const auto alice_keys = f.provision(kAlice, 0, {1, 2, 3});
  const auto bob_keys = f.provision(kBob, 0, {1, 2, 3});
  crypto::Sha256 h;
  std::size_t reports = 0;
  tap_reports(f, h, reports);

  f.network.node(f.net(0).node()).set_online(false);
  auto alice = f.make_ue(kAlice, alice_keys, 4);
  auto bob = f.make_ue(kBob, bob_keys, 4);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(f.attach(*alice).success) << "alice " << i;
    ASSERT_TRUE(f.attach(*bob).success) << "bob " << i;
  }
  f.net(1).backup().report_now(home);
  f.simulator.run();
  ASSERT_EQ(reports, 0u);  // the home is down
  const std::size_t pending = f.net(1).backup().pending_reports(home);
  ASSERT_EQ(pending, 4u);

  f.network.node(f.net(0).node()).set_online(true);
  sim::LatencyModel cut;
  cut.loss = 1.0;
  f.network.set_link(f.net(4).node(), f.net(0).node(), cut);
  sim::LatencyModel slow;
  slow.base = ms(500);
  f.network.set_link(f.net(1).node(), f.net(0).node(), slow);
  f.net(1).backup().report_now(home);
  ASSERT_TRUE(f.attach(*alice).success);
  f.simulator.run();
  ASSERT_EQ(reports, 1u);
  ASSERT_EQ(f.net(1).backup().pending_reports(home), 1u);

  f.net(1).restart_backup();
  ASSERT_EQ(f.net(1).backup().pending_reports(home), 1u);
  ASSERT_TRUE(f.attach(*bob).success);
  for (std::size_t b = 1; b <= 3; ++b) f.net(b).backup().report_now(home);
  f.simulator.run();
  for (std::size_t b = 1; b <= 3; ++b) {
    EXPECT_EQ(f.net(b).backup().pending_reports(home), 0u) << "net-" << b + 1;
  }
  EXPECT_TRUE(f.net(0).home().anomalies().empty());
  EXPECT_EQ(reports, 4u);
  EXPECT_EQ(to_hex(h.finish()), "856ea462bdf79de41c7a65534a5141265506a28136ec17213c792da692cf7f05");
}

TEST(Persistence, OverlappingAcksClearEachProofOnce) {
  // Two reports in flight, acked out of order: a report on a slow link
  // lists one proof; a later one on a fast link lists it and a second and
  // is acked first. The late ack of the first clears nothing more, and a
  // proof released after the second report was sent stays pending, in
  // memory and, after a restart, from the store.
  Federation f(durable_net2());
  const NetworkId& home = f.net(0).id();
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  std::vector<core::UsageProof> proofs;
  for (int i = 0; i < 4; ++i) proofs.push_back(sign_proof(f, pull_vector(f, 2, kAlice), keys));
  const auto pending = [&] { return f.net(1).backup().pending_reports(home); };
  const auto records = [&] { return f.stores[1]->keys_with_prefix("proof/").size(); };
  const auto link = [&](Time base) {
    sim::LatencyModel model;
    model.base = base;
    f.network.set_link(f.net(1).node(), f.net(0).node(), model);
  };
  // Sends net-2 proof `i`, and runs the world for 100 ms.
  const auto send = [&](std::size_t i) {
    f.rpc.call(f.net(4).node(), f.net(1).node(), "backup.get_share", wire::encode(proofs[i]),
               {}, nullptr, nullptr);
    f.simulator.run_until(f.simulator.now() + ms(100));
  };
  const auto report = [&] {
    f.net(1).backup().report_now(home);
    f.simulator.run_until(f.simulator.now() + ms(100));
  };

  // A first report and its ack, so the reports below need no handshake.
  send(0);
  report();
  f.simulator.run();
  ASSERT_EQ(f.net(1).backup().metrics().reports_sent, 1u);

  send(1);
  link(ms(600));
  report();  // lists proof 1
  send(2);
  ASSERT_EQ(pending(), 2u);
  link(ms(1));
  report();  // lists proofs 1 and 2, and is acked first
  ASSERT_EQ(f.net(1).backup().metrics().reports_sent, 2u);
  EXPECT_EQ(pending(), 0u);
  send(3);
  EXPECT_EQ(pending(), 1u);
  f.simulator.run();
  ASSERT_EQ(f.net(1).backup().metrics().reports_sent, 3u);  // the late ack
  EXPECT_EQ(pending(), 1u);
  EXPECT_EQ(f.net(1).backup().metrics().proofs_pending, 1u);
  EXPECT_EQ(records(), 1u);

  f.net(1).restart_backup();
  EXPECT_EQ(pending(), 1u);
  f.net(1).backup().report_now(home);
  f.simulator.run();
  EXPECT_EQ(pending(), 0u);
  EXPECT_EQ(records(), 0u);
  // Each proof is processed once; the late report's came again and was
  // recognised.
  EXPECT_EQ(f.net(0).home().metrics().replenishments, 4u);
  EXPECT_TRUE(f.net(0).home().anomalies().empty());
}

/// Wraps the home's home.report handler so that the H(XRES*) of every proof
/// a report from net-2 lists is appended to `listed`, in report order.
void tap_net2_proofs(Federation& f, std::vector<ByteArray<16>>& listed) {
  auto inner = std::make_shared<sim::ServiceHandler>();
  *inner = f.rpc.register_service(
      f.net(0).node(), "home.report", [&f, &listed, inner](ByteView request, sim::Responder r) {
        const auto report = wire::decode<core::ReportRequest>(request);
        if (report.backup_network == f.net(1).id()) {
          for (const core::UsageProof& proof : report.proofs) {
            listed.push_back(proof.hxres_star);
          }
        }
        (*inner)(request, std::move(r));
      });
}

/// The H(XRES*) of every proof net-2 reports, in order, after it releases
/// its share of net-3's and net-4's vectors of Alice while the home is down
/// and, when `restart`, restarts before it reports.
std::vector<ByteArray<16>> net2_report_sequence(bool restart) {
  Federation f(durable_net2());
  const NetworkId& home = f.net(0).id();
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  std::vector<ByteArray<16>> listed;
  tap_net2_proofs(f, listed);
  f.network.node(f.net(0).node()).set_online(false);
  for (std::size_t b = 2; b <= 3; ++b) {
    for (std::size_t i = 0; i < f.config.vectors_per_backup; ++i) {
      EXPECT_TRUE(release_share(f, 1, pull_vector(f, b, kAlice), keys));
    }
  }
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 2 * f.config.vectors_per_backup);
  if (restart) f.net(1).restart_backup();
  f.network.node(f.net(0).node()).set_online(true);
  f.net(1).backup().report_now(home);
  f.simulator.run();
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 0u);
  return listed;
}

TEST(Persistence, RestartKeepsTheReportOrder) {
  // A restarted backup reports its pending proofs in the order it pended
  // them, as one that never restarted does: restore reads each segment's
  // entries in the order they were appended.
  const std::vector<ByteArray<16>> unrestarted = net2_report_sequence(false);
  ASSERT_EQ(unrestarted.size(), 8u);
  EXPECT_EQ(net2_report_sequence(true), unrestarted);
}

TEST(Persistence, RestartBetweenAReportAndItsAckReportsEachProofOnce) {
  // net-2 restarts while its report is on a slow link to the home: the old
  // role's ack is dropped with it. The new role rewrites the restored
  // proofs under a key past the live one, lists each once in its own
  // report, and erases the segment at that report's ack; the home, which
  // got both reports, processes each proof once.
  Federation f(durable_net2());
  const NetworkId& home = f.net(0).id();
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  std::vector<ByteArray<16>> listed;
  tap_net2_proofs(f, listed);
  std::vector<ByteArray<16>> released;
  for (std::size_t i = 0; i < 3; ++i) {
    const core::AuthVectorBundle vector = pull_vector(f, 2, kAlice);
    ASSERT_TRUE(release_share(f, 1, vector, keys));
    released.push_back(vector.hxres_star);
  }
  const std::vector<std::string> before = f.stores[1]->keys_with_prefix("proof/");
  ASSERT_EQ(before.size(), 1u);

  sim::LatencyModel slow;
  slow.base = ms(500);
  f.network.set_link(f.net(1).node(), f.net(0).node(), slow);
  f.net(1).backup().report_now(home);
  f.simulator.run_until(f.simulator.now() + ms(100));
  ASSERT_TRUE(listed.empty());  // in flight
  f.net(1).restart_backup();
  ASSERT_EQ(f.net(1).backup().pending_reports(home), 3u);
  const std::vector<std::string> restored = f.stores[1]->keys_with_prefix("proof/");
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_GT(restored[0], before[0]);  // a fresh key, never a live one

  f.simulator.run();
  ASSERT_EQ(listed, released);  // the old role's report reached the home
  EXPECT_EQ(f.net(1).backup().metrics().reports_sent, 0u);  // its ack did not
  f.net(1).backup().report_now(home);
  f.simulator.run();
  std::vector<ByteArray<16>> twice = released;
  twice.insert(twice.end(), released.begin(), released.end());
  EXPECT_EQ(listed, twice);  // the new role lists each proof once
  EXPECT_EQ(f.net(1).backup().metrics().reports_sent, 1u);
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 0u);
  EXPECT_TRUE(f.stores[1]->keys_with_prefix("proof/").empty());
  EXPECT_EQ(f.net(0).home().metrics().replenishments, 3u);
  EXPECT_TRUE(f.net(0).home().anomalies().empty());
}

TEST(Persistence, RestartWithTwoUnackedSegmentsReportsEachProofOnce) {
  // Two reports fail while the home is down, each sealing the segment it
  // listed, and a third proof opens a third. A restart appends all three
  // proofs to one segment under a key past the three, and erases them; a
  // proof released after the restart joins it. One report then lists the
  // four, once each and in the order they were released, and its ack
  // leaves no segment.
  Federation f(durable_net2());
  const NetworkId& home = f.net(0).id();
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  std::vector<ByteArray<16>> listed;
  tap_net2_proofs(f, listed);
  f.network.node(f.net(0).node()).set_online(false);
  std::vector<ByteArray<16>> released;
  const auto release = [&] {
    const core::AuthVectorBundle vector = pull_vector(f, 2, kAlice);
    ASSERT_TRUE(release_share(f, 1, vector, keys));
    released.push_back(vector.hxres_star);
  };
  for (int report = 0; report < 2; ++report) {
    release();
    f.net(1).backup().report_now(home);
    f.simulator.run();
  }
  release();
  const std::vector<std::string> before = f.stores[1]->keys_with_prefix("proof/");
  ASSERT_EQ(before.size(), 3u);
  ASSERT_EQ(f.net(1).backup().metrics().reports_sent, 0u);

  f.net(1).restart_backup();
  const std::vector<std::string> restored = f.stores[1]->keys_with_prefix("proof/");
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_GT(restored[0], before.back());
  release();
  EXPECT_EQ(f.stores[1]->keys_with_prefix("proof/"), restored);
  ASSERT_EQ(f.net(1).backup().pending_reports(home), 4u);

  f.network.node(f.net(0).node()).set_online(true);
  f.net(1).backup().report_now(home);
  f.simulator.run();
  EXPECT_EQ(listed, released);
  EXPECT_EQ(f.net(1).backup().metrics().reports_sent, 1u);
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 0u);
  EXPECT_TRUE(f.stores[1]->keys_with_prefix("proof/").empty());
  EXPECT_EQ(f.net(0).home().metrics().replenishments, 4u);
  EXPECT_TRUE(f.net(0).home().anomalies().empty());
}

TEST(Persistence, RestartWithEventsInFlightDropsTheOldRole) {
  // net-2 (durable) restarts mid-run: its report timer is armed for the
  // proof of a first attach, and a second attach's share leg is a job on its
  // node. Every event the old role queued is dropped: it sends no share
  // reply and no report, and writes nothing to its store. The serving
  // network's leg to net-2 times out, so net-5, ranked next, takes its place
  // in the round after. The new role restores the proof and reports it once
  // its own timer fires.
  core::FederationConfig cfg = Federation::test_config();
  cfg.report_interval = minutes(1);
  core::FederationSpec spec = Federation::flat(6, cfg);
  spec.networks[1].durable = true;
  Federation f(std::move(spec));
  const NetworkId& home = f.net(0).id();
  const auto keys = f.provision(kAlice, 0, {1, 2, 3, 4});
  sim::LatencyModel slow;
  slow.base = ms(40);
  f.network.set_link(f.net(5).node(), f.net(4).node(), slow);
  f.network.node(f.net(0).node()).set_online(false);
  core::ServingNetwork& serving = f.net(5).serving();
  serving.set_home_health(home, false);
  std::size_t net2_reports = 0;
  auto inner = std::make_shared<sim::ServiceHandler>();
  *inner = f.rpc.register_service(
      f.net(0).node(), "home.report",
      [&f, &net2_reports, inner](ByteView request, sim::Responder r) {
        if (wire::decode<core::ReportRequest>(request).backup_network == f.net(1).id()) {
          ++net2_reports;
        }
        (*inner)(request, std::move(r));
      });

  // A warm-up attach samples every backup and leaves a proof at each: net-2
  // arms its report timer.
  auto ue = f.make_ue(kAlice, keys, 5);
  ASSERT_TRUE(f.attach(*ue).success);
  ASSERT_EQ(f.net(1).backup().pending_reports(home), 1u);
  const std::size_t shares_held = f.net(1).backup().stored_shares(home, kAlice);

  // The next round's legs go to net-2, net-3 and net-4. Once net-2's old
  // role has taken its leg (its share job queued), the role restarts.
  Time restarted_at = -1;
  auto old_handler = std::make_shared<sim::ServiceHandler>();
  *old_handler = f.rpc.register_service(
      f.net(1).node(), "backup.get_share",
      [&f, &restarted_at, old_handler](ByteView request, sim::Responder r) {
        (*old_handler)(request, std::move(r));
        f.simulator.after(0, [&f, &restarted_at] {
          f.net(1).restart_backup();
          restarted_at = f.simulator.now();
        });
      });
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success) << record.failure;
  ASSERT_GE(restarted_at, 0);
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 1u);  // restored

  // No reply: the leg to net-2 ran out its deadline, and the timeout is
  // net-2's RTT sample. No store write: net-2 still holds the share it was
  // asked for, and the store one proof.
  EXPECT_GT(serving.peer_rtt().estimate(f.net(1).node()).value(),
            core::ServingNetwork::kKeyShareTimeout / 5);
  std::size_t shares_stored = 0;
  for (const auto& held : held_records(*f.stores[1])) shares_stored += held.shares.size();
  EXPECT_EQ(shares_stored, shares_held);
  EXPECT_EQ(f.stores[1]->keys_with_prefix("proof/").size(), 1u);

  // The leg promotes: the round after goes to net-3, net-4 and net-5.
  std::vector<std::uint64_t> served;
  for (std::size_t b = 1; b <= 4; ++b) served.push_back(f.net(b).backup().metrics().shares_served);
  ASSERT_TRUE(f.attach(*ue).success);
  for (std::size_t b = 1; b <= 4; ++b) {
    EXPECT_EQ(f.net(b).backup().metrics().shares_served - served[b - 1], b == 1 ? 0u : 1u)
        << "net-" << b + 1;
  }

  // No report from the old role's timer, armed before the restart; the new
  // role's, armed at it, reports the proof.
  f.network.node(f.net(0).node()).set_online(true);
  f.simulator.run_until(restarted_at + cfg.report_interval - ms(1));
  EXPECT_EQ(net2_reports, 0u);
  f.simulator.run_until(restarted_at + cfg.report_interval + sec(5));
  EXPECT_EQ(net2_reports, 1u);
  EXPECT_EQ(f.net(1).backup().metrics().reports_sent, 1u);
  EXPECT_EQ(f.net(1).backup().pending_reports(home), 0u);
  EXPECT_TRUE(f.stores[1]->keys_with_prefix("proof/").empty());
}

TEST(Persistence, RestartedBackupStaysObserved) {
  // The fresh role reports to the registry and journal its node was given,
  // under the old role's names: a counter read after a restart is the new
  // role's, not a view into the role that was dropped.
  Federation f(durable_net2());
  f.provision(kAlice, 0, {1, 2, 3});
  obs::MetricsRegistry registry;
  obs::EventJournal journal([&f] { return f.simulator.now(); });
  f.net(1).set_observability(&registry, &journal);
  f.net(1).restart_backup();
  pull_vector(f, 1, kAlice);
  EXPECT_EQ(registry.value("backup.net-2.vectors_served"), 1u);
  EXPECT_EQ(journal.count(obs::EventKind::kVectorServed), 1u);
  ASSERT_EQ(journal.for_network("net-2").size(), 1u);
  EXPECT_EQ(journal.for_network("net-2")[0]->kind, obs::EventKind::kVectorServed);
}

TEST(Persistence, RedeliveredStoreHoldsEachBundleOnce) {
  // The home retries a store push whose reply is lost or late, and the
  // backup then runs the request a second time. A batch whose root it
  // already holds adds nothing: not a second copy of a vector, which could
  // be served again as a replayed SQN, nor a second record.
  Federation f(durable_net2());
  const NetworkId& home = f.net(0).id();
  std::optional<Bytes> captured;
  f.rpc.register_service(f.net(1).node(), "backup.store",
                         [&](ByteView request, sim::Responder r) {
                           captured = to_bytes(request);
                           r.reply(wire::encode(sim::Ack{}));
                         });
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  ASSERT_TRUE(captured.has_value());
  f.net(1).backup().bind_services();

  std::map<std::string, Bytes> first;
  for (int delivery = 0; delivery < 2; ++delivery) {
    bool acked = false;
    f.rpc.call(f.net(0).node(), f.net(1).node(), "backup.store", *captured, {},
               [&](Bytes) { acked = true; }, nullptr);
    f.simulator.run();
    ASSERT_TRUE(acked) << "delivery " << delivery;
    EXPECT_EQ(f.net(1).backup().stored_vectors(home, kAlice), f.config.vectors_per_backup);
    EXPECT_EQ(f.net(1).backup().stored_shares(home, kAlice), 3 * f.config.vectors_per_backup);
    std::map<std::string, Bytes> records;
    for (const auto& key : f.stores[1]->keys_with_prefix("batch/")) {
      records[key] = f.stores[1]->get(key).value();
    }
    if (delivery == 0) {
      first = std::move(records);
    } else {
      EXPECT_EQ(records, first);
    }
  }

  // Attaches through every backup, then net-2's remaining vectors pulled
  // out straight: no SQN comes out twice.
  f.network.node(f.net(0).node()).set_online(false);
  auto ue = f.make_ue(kAlice, keys, 4);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(f.attach(*ue).success) << "attach " << i;
  std::set<std::uint64_t> served;
  while (f.net(1).backup().stored_vectors(home, kAlice) > 0) {
    EXPECT_TRUE(served.insert(pull_vector(f, 1, kAlice).sqn).second);
  }
}

TEST(Persistence, RestartedBackupHonoursItsHomesRevoke) {
  // A backup keeps no key of its home's: it checks a revoke's tag under the
  // push key it derives from the home's channel key in the directory. After
  // a restart, with nothing of the home's but its SUCI secret restored, the
  // home's revoke still applies and a forged one is still refused.
  Federation f(durable_net2());
  f.provision(kAlice, 0, {1, 2, 3});
  const NetworkId& home = f.net(0).id();
  f.net(1).restart_backup();
  EXPECT_TRUE(f.stores[1]->keys_with_prefix("homekey/").empty());

  core::RevokeSharesRequest revoke{home, kAlice, {}, {}};
  for (const core::BatchRecord& record : held_records(*f.stores[1])) {
    for (const core::ShareLeaf& share : record.shares) {
      revoke.hxres_indices.push_back(share.hxres_star);
    }
  }
  ASSERT_FALSE(revoke.hxres_indices.empty());
  const auto send = [&](const core::RevokeSharesRequest& request) {
    std::optional<sim::CallResult<sim::Ack>> result;
    sim::TypedStub(f.rpc, f.net(0).node(), core::kBackupRevokeShares)
        .call(f.net(1).node(), request, sim::RpcOptions::oneshot(),
              [&](sim::CallResult<sim::Ack> r) { result = std::move(r); });
    f.simulator.run();
    if (!result) throw std::runtime_error("revoke never ended");
    return std::move(*result);
  };
  const auto records = [&] {
    std::map<std::string, Bytes> out;
    for (const auto& key : f.stores[1]->keys_with_prefix("batch/")) {
      out[key] = f.stores[1]->get(key).value();
    }
    return out;
  };

  // net-5's tag, not the home's.
  core::RevokeSharesRequest forged = revoke;
  f.tag_revoke(forged, 4, 1);
  const std::uint64_t rejected = f.net(1).backup().metrics().rejected_requests;
  const std::size_t shares = f.net(1).backup().stored_shares(home, kAlice);
  const auto held = records();
  const auto refused = send(forged);
  ASSERT_FALSE(refused.ok());
  ASSERT_TRUE(refused.app_error().has_value()) << refused.error().message;
  EXPECT_EQ(refused.app_error()->code, sim::AppErrorCode::kUnauthorized);
  EXPECT_EQ(refused.app_error()->detail, "invalid revoke tag");
  EXPECT_EQ(f.net(1).backup().metrics().rejected_requests, rejected + 1);
  EXPECT_EQ(f.net(1).backup().stored_shares(home, kAlice), shares);
  EXPECT_TRUE(records() == held);

  f.tag_revoke(revoke, 0, 1);
  ASSERT_TRUE(send(revoke).ok());
  EXPECT_EQ(f.net(1).backup().stored_shares(home, kAlice), 0u);
  EXPECT_EQ(f.net(1).backup().metrics().rejected_requests, rejected + 1);
}

TEST(Persistence, SuciKeySurvivesRestart) {
  Federation f(durable_net2());
  f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);
  f.net(1).restart_backup();

  // SUCI attach routed through the restarted backup must still de-conceal.
  auto profile = f.ue_profile();
  profile.use_suci = true;
  auto ue = f.make_ue(kAlice, f.net(4).node(), profile);
  ue->configure_suci(f.net(0).id(), f.net(0).suci_keys().public_key);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
}

TEST(Persistence, RestoreDropsABatchWhoseLeafDoesNotHash) {
  // Restore rehashes every held leaf from its fields, its user and its home,
  // and drops the whole record when one is not the leaf hash the record
  // lists for it: that bundle could not be served as the home signed it.
  // Bob's batch is untouched.
  const std::vector<std::pair<const char*, std::function<void(core::BatchRecord&)>>> edits = {
      {"share ordinate",
       [](core::BatchRecord& r) {
         edit_leaf(r.shares, 1, [](core::ShareLeaf& s) { s.y[0] ^= 1; });
       }},
      {"vector sqn",
       [](core::BatchRecord& r) { edit_leaf(r.vectors, 1, [](core::VectorLeaf& v) { ++v.sqn; }); }},
  };
  for (const auto& [name, edit] : edits) {
    Federation f(durable_net2());
    f.provision(kAlice, 0, {1, 2, 3});
    f.provision(kBob, 0, {1, 2, 3});
    const NetworkId& home = f.net(0).id();

    std::size_t edited = 0;
    for (const auto& key : f.stores[1]->keys_with_prefix("batch/")) {
      auto record = wire::decode<core::BatchRecord>(f.stores[1]->get(key).value());
      if (record.supi != kAlice) continue;
      edit(record);
      f.stores[1]->put(key, wire::encode(record));
      ++edited;
    }
    ASSERT_EQ(edited, 1u) << name;

    f.net(1).restart_backup();
    EXPECT_EQ(f.net(1).backup().stored_vectors(home, kAlice), 0u) << name;
    EXPECT_EQ(f.net(1).backup().stored_shares(home, kAlice), 0u) << name;
    EXPECT_EQ(f.net(1).backup().stored_vectors(home, kBob), f.config.vectors_per_backup) << name;
    EXPECT_EQ(f.net(1).backup().stored_shares(home, kBob), 3 * f.config.vectors_per_backup) << name;
  }
}

TEST(Persistence, RestoreDropsABatchWhoseReleasedLeavesDoNotFit) {
  // After one of Alice's vectors is served, her record lists it as released,
  // by leaf index and hash. Restore places every held and released leaf at
  // its index and rebuilds the tree: a released hash that changed, a
  // released leaf missing, or one at an index a held leaf takes gives
  // another root, or no tree, and the record is dropped whole. Bob's batch
  // is untouched, and an unedited record restores as it was.
  const std::vector<std::pair<const char*, std::function<void(core::BatchRecord&)>>> edits = {
      {"unedited", [](core::BatchRecord&) {}},
      {"released hash", [](core::BatchRecord& r) { r.released.at(0).hash[0] ^= 1; }},
      {"released leaf missing", [](core::BatchRecord& r) { r.released.clear(); }},
      {"released index taken",
       [](core::BatchRecord& r) { r.released.at(0).leaf = r.vectors[0].leaf; }},
  };
  for (const auto& [name, edit] : edits) {
    Federation f(durable_net2());
    f.provision(kAlice, 0, {1, 2, 3});
    f.provision(kBob, 0, {1, 2, 3});
    const NetworkId& home = f.net(0).id();
    (void)pull_vector(f, 1, kAlice);

    std::size_t edited = 0;
    for (const auto& key : f.stores[1]->keys_with_prefix("batch/")) {
      auto record = wire::decode<core::BatchRecord>(f.stores[1]->get(key).value());
      if (record.supi != kAlice) continue;
      ASSERT_EQ(record.released.size(), 1u) << name;
      edit(record);
      f.stores[1]->put(key, wire::encode(record));
      ++edited;
    }
    ASSERT_EQ(edited, 1u) << name;

    f.net(1).restart_backup();
    const bool kept = std::string(name) == "unedited";
    EXPECT_EQ(f.net(1).backup().stored_vectors(home, kAlice),
              kept ? f.config.vectors_per_backup - 1 : 0u)
        << name;
    EXPECT_EQ(f.net(1).backup().stored_shares(home, kAlice),
              kept ? 3 * f.config.vectors_per_backup : 0u)
        << name;
    EXPECT_EQ(f.net(1).backup().stored_vectors(home, kBob), f.config.vectors_per_backup) << name;
    EXPECT_EQ(f.net(1).backup().stored_shares(home, kBob), 3 * f.config.vectors_per_backup) << name;
  }
}

TEST(Persistence, RestoreOfAnUnsortedRecordServesTheSameBundles) {
  // A held batch serves its vectors in its record's order and finds a share
  // by a binary search of the record's shares in place, so restore holds a
  // record whose vectors are out of serve order, or whose shares are not
  // sorted by H(XRES*), sorted, and writes it back so: the record, and every
  // vector and share net-2 serves after the restart, are as they would be
  // had nothing been swapped.
  const auto serve = [](const char* swapped) {
    Federation f(durable_net2());
    const auto keys = f.provision(kAlice, 0, {1, 2, 3});
    const auto names = f.stores[1]->keys_with_prefix("batch/");
    EXPECT_EQ(names.size(), 1u) << swapped;
    const std::string& name = names.at(0);
    const Bytes sorted = f.stores[1]->get(name).value();
    auto record = wire::decode<core::BatchRecord>(sorted);
    const auto swap_first_two = [](auto& sequence) {
      const auto first = sequence[0];
      sequence.set(0, sequence[1]);
      sequence.set(1, first);
    };
    if (std::string(swapped) == "shares") swap_first_two(record.shares);
    if (std::string(swapped) == "vectors") swap_first_two(record.vectors);
    f.stores[1]->put(name, wire::encode(record));
    EXPECT_EQ(f.stores[1]->get(name) == sorted, std::string(swapped) == "nothing") << swapped;

    f.net(1).restart_backup();
    EXPECT_EQ(f.stores[1]->get(name), sorted) << swapped;
    // net-2's vectors, then its share of every vector of the round.
    std::vector<Bytes> served;
    std::vector<core::AuthVectorBundle> vectors;
    for (std::size_t b = 1; b <= 3; ++b) {
      while (f.net(b).backup().stored_vectors(f.net(0).id(), kAlice) > 0) {
        vectors.push_back(pull_vector(f, b, kAlice));
        if (b == 1) served.push_back(wire::encode(vectors.back()));
      }
    }
    for (const core::AuthVectorBundle& vector : vectors) {
      f.rpc.call(f.net(4).node(), f.net(1).node(), "backup.get_share",
                 wire::encode(sign_proof(f, vector, keys)), {},
                 [&](Bytes reply) { served.push_back(std::move(reply)); }, nullptr);
      f.simulator.run();
    }
    EXPECT_EQ(served.size(), 4 * f.config.vectors_per_backup) << swapped;
    return served;
  };
  const std::vector<Bytes> unswapped = serve("nothing");
  EXPECT_EQ(serve("shares"), unswapped);
  EXPECT_EQ(serve("vectors"), unswapped);
}

TEST(Persistence, StoreHoldsOneRecordPerBatch) {
  // A backup persists each held batch once, at its information content: no
  // record per bundle, and no field two bundles share stored twice.
  Federation f(durable_net2());
  f.provision(kAlice, 0, {1, 2, 3});
  f.provision(kBob, 0, {1, 2, 3});
  const NetworkId& home = f.net(0).id();

  EXPECT_TRUE(f.stores[1]->keys_with_prefix("vec/").empty());
  EXPECT_TRUE(f.stores[1]->keys_with_prefix("share/").empty());
  // Each user's round put one batch here: its own vectors, then its share
  // of every vector of the round.
  const auto keys = f.stores[1]->keys_with_prefix("batch/");
  ASSERT_EQ(keys.size(), 2u);
  const std::size_t vectors = f.config.vectors_per_backup;
  const std::size_t shares = 3 * f.config.vectors_per_backup;
  for (const auto& key : keys) {
    const Bytes value = f.stores[1]->get(key).value();
    const auto record = wire::decode<core::BatchRecord>(value);
    EXPECT_EQ(record.vectors.size(), vectors);
    EXPECT_EQ(record.shares.size(), shares);
    EXPECT_TRUE(record.released.empty());
    EXPECT_EQ(f.net(1).backup().stored_vectors(home, record.supi), vectors);
    EXPECT_EQ(f.net(1).backup().stored_shares(home, record.supi), shares);
    // Per held leaf: a vector's framed fields (4 + leaf 2 + sqn 8 + RAND,
    // AUTN, H(XRES*) 3 x 16 + flood 1 = 63) or a share's (4 + leaf 2 +
    // H(XRES*) 16 + x 1 + y 32 = 55); once per batch the header: SUPI 4 +
    // 15, round position 4, signature 64, a two-hash round path 1 + 64, and
    // three counts 4 each. 1076 B for these 16 leaves, 68 B a leaf, where a
    // bundle record took 157-161 B and a 63 B key. A released leaf adds its
    // framed index and hash, 4 + 2 + 32 = 38 B.
    EXPECT_EQ(value.size(), 63 * vectors + 55 * shares + 164);
    EXPECT_LE(value.size(), 100 * (vectors + shares));
  }

  // Serving a vector rewrites its batch's record without it.
  (void)pull_vector(f, 1, kAlice);
  for (const core::BatchRecord& record : held_records(*f.stores[1])) {
    EXPECT_EQ(record.vectors.size(), record.supi == kAlice ? vectors - 1 : vectors);
    EXPECT_EQ(record.shares.size(), shares);
    EXPECT_EQ(record.released.size(), record.supi == kAlice ? 1u : 0u);
  }
}

TEST(Persistence, ServingABatchOutKeepsTheDurableLogBounded) {
  // One user's 64-leaf batch (16 vectors here and a share of each of the
  // round's 48 at the other backups) served out one vector at a time. Each
  // release rewrites the batch's whole record; a log that never compacted
  // kept every copy (63.0 KB for this case, which never compacts).
  core::FederationConfig config = Federation::test_config();
  config.vectors_per_backup = 16;
  Federation f(5, config);
  const std::filesystem::path path = std::filesystem::temp_directory_path() /
                                     ("dauth-batch-log-" + std::to_string(::getpid()) + ".wal");
  std::filesystem::remove(path);
  {
    store::KvStore durable(path.string());
    auto backup = std::make_unique<core::BackupNetwork>(
        f.rpc, f.net(1).node(), f.net(1).id(), f.net(1).channel_keys().secret,
        f.net(1).directory(), f.config, &durable);
    backup->bind_services();
    f.provision(kAlice, 0, {1, 2, 3});
    ASSERT_EQ(held_records(durable).size(), 1u);
    const core::BatchRecord held = held_records(durable)[0];
    ASSERT_EQ(held.vectors.size() + held.shares.size(), 64u);

    std::size_t largest = 0;
    for (std::size_t i = 0; i < config.vectors_per_backup; ++i) {
      (void)pull_vector(f, 1, kAlice);
      EXPECT_EQ(durable.log_bytes(), std::filesystem::file_size(path));
      EXPECT_LE(durable.log_bytes(),
                std::max(store::KvStore::kCompactionRatio * durable.live_bytes(),
                         store::KvStore::kCompactionFloor));
      largest = std::max(largest, durable.log_bytes());
    }
    EXPECT_EQ(backup->stored_vectors(f.net(0).id(), kAlice), 0u);
    EXPECT_LE(largest, store::KvStore::kCompactionFloor);
    durable.compact();
    EXPECT_EQ(std::filesystem::file_size(path), durable.live_bytes());
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dauth::testing
