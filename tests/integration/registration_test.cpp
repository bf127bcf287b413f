// Every RPC registration, dAuth and baseline, behind the one typed boundary
// (sim/service.h): a lone 0xff byte and each valid request frame cut short
// by one byte are refused kMalformed before any handler runs. The home and
// backup roles count each one in rejected_requests, no role state moves,
// and the node still serves the valid frame afterwards. Past the boundary,
// the serving network's attach handler refuses a SUCI for a home the
// directory lacks, and a SUCI of its own home's that names no subscriber of
// it, and its auth_response handler refuses a forged AUTS on the local path
// and a second AUTS in one attach, each counting the failed attach and
// moving nothing else.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <variant>

#include "aka/sim_card.h"
#include "aka/suci.h"
#include "baseline/standalone_core.h"
#include "crypto/drbg.h"
#include "directory/directory.h"
#include "../core/batch_layout.h"
#include "federation_fixture.h"
#include "obs/metrics_registry.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");
const Supi kBob("901550000000002");

/// One registration: where it is, one valid request frame, and the role
/// counter that must count a malformed frame (null for the roles without).
struct Registration {
  sim::NodeIndex node;
  std::string service;
  Bytes valid;
  const std::uint64_t* rejected = nullptr;
};

/// The outcome of one raw call: nullopt for a reply, else the rejection.
using Outcome = std::optional<sim::AppError>;

class Registrations {
 public:
  Registrations() {
    bob_keys = f.provision(kAlice, 0, {1, 2, 3});  // any SIM keys serve the baseline
    for (std::size_t i = 0; i < f.nets.size(); ++i) {
      f.net(i).set_observability(&registry, nullptr);
    }
    sim::NodeConfig nc;
    nc.name = "baseline";
    nc.access.base = ms(2);
    baseline_node = f.network.add_node(nc);
    baseline.emplace(f.rpc, baseline_node, "edge", baseline::StandaloneCoreConfig{}, 7);
    baseline->provision_subscriber(kBob, bob_keys);
    baseline->bind_services();
  }

  /// Sends `frame` from the RAN node, ungated, and runs the simulation. A
  /// reply's frame lands in `reply` when it is given.
  Outcome call(sim::NodeIndex node, const std::string& service, Bytes frame,
               Bytes* reply = nullptr) {
    auto options = sim::RpcOptions::oneshot();
    options.use_breaker = false;
    std::optional<Outcome> outcome;
    f.rpc.call(
        f.ran_node, node, service, std::move(frame), options,
        [&](Bytes answer) {
          if (reply != nullptr) *reply = std::move(answer);
          outcome.emplace();
        },
        [&](sim::RpcError e) {
          ASSERT_EQ(e.code, sim::RpcErrorCode::kRejected) << service << ": " << e.message;
          outcome.emplace(e.app);
        });
    f.simulator.run();
    EXPECT_TRUE(outcome.has_value()) << service;
    return outcome.value_or(Outcome{});
  }

  /// Every piece of role state a handler could move, rejection counters
  /// aside: all role counters, the held material, sessions and entries.
  std::map<std::string, std::uint64_t> state() {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : registry.snapshot().counters) {
      if (!name.ends_with(".rejected_requests")) out[name] = value;
    }
    for (std::size_t i = 0; i < f.nets.size(); ++i) {
      core::DauthNode& net = f.net(i);
      const std::string id = net.id().str();
      out[id + ".vectors"] = net.backup().stored_vectors(f.nets[0]->id(), kAlice);
      out[id + ".shares"] = net.backup().stored_shares(f.nets[0]->id(), kAlice);
      out[id + ".reports"] = net.backup().pending_reports(f.nets[0]->id());
      out[id + ".sessions"] = net.serving().session_count();
    }
    out["directory.networks"] = f.directory_server.network_count();
    const baseline::BaselineMetrics& m = baseline->metrics();
    out["baseline.started"] = m.attaches_started;
    out["baseline.failed"] = m.attaches_failed;
    out["baseline.hss"] = m.hss_requests_served;
    return out;
  }

  std::vector<Registration> all() {
    core::DauthNode& home = f.net(0);
    core::DauthNode& backup = f.net(1);
    core::DauthNode& serving = f.net(3);
    const sim::NodeIndex dir = f.directory_node;
    const NetworkId home_id = home.id();
    const crypto::Ed25519KeyPair& home_key = home.signing_keys();

    // A proof with the right preimage, signed by net-4, for a vector no one
    // holds: decodes, and is refused by the handler's own checks.
    core::UsageProof proof;
    proof.serving_network = serving.id();
    proof.supi = kAlice;
    proof.res_star = crypto::ResStar{};
    proof.hxres_star = core::hxres_index(proof.res_star);
    proof.serving_signature = crypto::ed25519_sign(proof.signed_payload(), serving.signing_keys());

    // A one-batch round for Bob: one vector, one share.
    core::StoreMaterialRequest store;
    store.home_network = home_id;
    core::StoreBatch& batch = store.batches.emplace_back();
    batch.supi = kBob;
    core::ShareLeaf share;
    share.x = 1;
    lay_out(batch, {core::VectorLeaf{}}, {share});
    core::sign_round({&store, 1}, home_key);

    core::RevokeSharesRequest revoke{home_id, kBob, {}, {}};
    f.tag_revoke(revoke, 0, 1);

    core::HandoverContextRequest context{42, f.net(4).id(), {}};
    context.signature = crypto::ed25519_sign(context.signed_payload(), f.net(4).signing_keys());

    aka::AttachRequest attach;
    attach.supi = kAlice;
    aka::AttachRequest baseline_attach;
    baseline_attach.supi = kBob;

    const std::uint64_t* home_rejected = &home.home().metrics().rejected_requests;
    const std::uint64_t* backup_rejected = &backup.backup().metrics().rejected_requests;
    const Bytes ack;
    return {
        {dir, "dir.get_network", wire::encode(directory::NameLookup{home_id.str()})},
        {dir, "dir.get_home", wire::encode(directory::NameLookup{kAlice.str()})},
        {dir, "dir.get_backups", wire::encode(directory::NameLookup{home_id.str()})},
        {dir, "dir.register_network",
         wire::encode(directory::make_network_entry(home_id, home_key,
                                                    home.suci_keys().public_key,
                                                    home.channel_keys().public_key, home.node()))},
        {dir, "dir.register_user",
         wire::encode(directory::make_user_entry(kAlice, home_id, home_key))},
        {dir, "dir.set_backups",
         wire::encode(directory::make_backups_entry(
             home_id, {f.net(1).id(), f.net(2).id(), f.net(3).id()}, home_key))},
        {home.node(), "home.get_vector",
         wire::encode(core::GetVectorRequest{serving.id(), kAlice, {}}), home_rejected},
        {home.node(), "home.get_key", wire::encode(proof), home_rejected},
        {home.node(), "home.report", wire::encode(core::ReportRequest{backup.id(), {}}),
         home_rejected},
        {home.node(), "home.resync", wire::encode(core::ResyncRequest{kAlice, {}, {}}),
         home_rejected},
        {home.node(), "home.ping", ack, home_rejected},
        {backup.node(), "backup.store", wire::encode(store), backup_rejected},
        {backup.node(), "backup.get_vector",
         wire::encode(core::GetVectorRequest{serving.id(), kAlice, {}}), backup_rejected},
        {backup.node(), "backup.get_share", wire::encode(proof), backup_rejected},
        {backup.node(), "backup.revoke_shares", wire::encode(revoke), backup_rejected},
        {serving.node(), "serving.attach_request", wire::encode(attach)},
        {serving.node(), "serving.auth_response", wire::encode(aka::AuthResponse{99, {}, {}})},
        {serving.node(), "serving.resolve_guti", wire::encode(core::GutiResolveRequest{7})},
        {serving.node(), "serving.handover_request", wire::encode(Guti{serving.id(), 7})},
        {serving.node(), "serving.handover_context", wire::encode(context)},
        {serving.node(), "serving.rrc_setup", ack},
        {serving.node(), "serving.registration_complete", ack},
        {baseline_node, "serving.attach_request", wire::encode(baseline_attach)},
        {baseline_node, "serving.auth_response", wire::encode(aka::AuthResponse{99, {}, {}})},
        {baseline_node, "hss.get_av", wire::encode(baseline::HssVectorRequest{kBob})},
        {baseline_node, "serving.rrc_setup", ack},
        {baseline_node, "serving.registration_complete", ack},
    };
  }

  Federation f{5};
  aka::SubscriberKeys bob_keys;
  obs::MetricsRegistry registry;
  sim::NodeIndex baseline_node = 0;
  std::optional<baseline::StandaloneCore> baseline;
};

TEST(Registration, EveryServiceRefusesAMalformedFrameBeforeItsHandler) {
  Registrations r;
  const std::vector<Registration> registrations = r.all();
  ASSERT_EQ(registrations.size(), 27u);
  for (const Registration& reg : registrations) {
    const std::string where = r.f.network.node(reg.node).name() + " " + reg.service;
    std::vector<Bytes> malformed = {Bytes{0xff}};
    if (!reg.valid.empty()) malformed.emplace_back(reg.valid.begin(), reg.valid.end() - 1);
    for (const Bytes& frame : malformed) {
      const auto before = r.state();
      const std::uint64_t rejected_before = reg.rejected != nullptr ? *reg.rejected : 0;
      const Outcome outcome = r.call(reg.node, reg.service, frame);
      ASSERT_TRUE(outcome.has_value()) << where << ": a malformed frame was served";
      EXPECT_EQ(outcome->code, sim::AppErrorCode::kMalformed) << where;
      EXPECT_EQ(outcome->detail, "malformed " + reg.service) << where;
      if (reg.rejected != nullptr) {
        EXPECT_EQ(*reg.rejected, rejected_before + 1) << where;
      }
      EXPECT_EQ(r.state(), before) << where << ": role state moved";
    }
    // Still serving: the valid frame reaches the handler, which answers or
    // refuses it on its own terms.
    const Outcome outcome = r.call(reg.node, reg.service, reg.valid);
    if (outcome.has_value()) {
      EXPECT_NE(outcome->code, sim::AppErrorCode::kMalformed) << where << ": " << outcome->detail;
    }
  }
}

/// Sends `attach` to the serving network, which must refuse it with
/// `reason` once its handler has started the attach: it counts one attach
/// started and one failed, and no other role state moves.
void expect_attach_refused(Registrations& r, const aka::AttachRequest& attach,
                           const std::string& reason) {
  core::DauthNode& serving = r.f.net(3);
  auto expected = r.state();
  const std::string counters = "serving." + serving.id().str() + ".";
  ++expected[counters + "attaches_started"];
  ++expected[counters + "attaches_failed"];
  const Outcome outcome =
      r.call(serving.node(), "serving.attach_request", wire::encode(attach));
  ASSERT_TRUE(outcome.has_value()) << reason << ": the attach was served";
  EXPECT_EQ(outcome->code, sim::AppErrorCode::kUpstream);
  EXPECT_EQ(outcome->detail, reason);
  EXPECT_EQ(r.state(), expected) << reason << ": role state moved";
}

TEST(Registration, AttachForAHomeTheDirectoryLacksIsRefused) {
  // The SUCI's routing hint names a network with no directory entry, so
  // there is no home to ask; the SUCI itself is never read.
  Registrations r;
  aka::AttachRequest attach;
  attach.suci = Bytes{0x01};
  attach.home = NetworkId("ghost-home");
  expect_attach_refused(r, attach, "unknown home network");
}

TEST(Registration, LocalSuciOfNoLocalSubscriberIsRefused) {
  // A SUCI concealed to the serving network's own home key deconceals, but
  // to a SUPI its home never provisioned.
  Registrations r;
  core::DauthNode& serving = r.f.net(3);
  crypto::DeterministicDrbg rng("registration", 1);
  aka::AttachRequest attach;
  attach.suci = wire::encode(
      aka::conceal_supi(Supi("901550000000099"), serving.suci_keys().public_key, rng));
  attach.home = serving.id();
  expect_attach_refused(r, attach, "unknown local subscriber");
}

/// Starts Alice's attach at her home network, net-0 (the local path), and
/// returns its id and challenge.
std::pair<std::uint64_t, aka::Challenge> local_challenge(Registrations& r) {
  aka::AttachRequest attach;
  attach.supi = kAlice;
  Bytes reply;
  const Outcome outcome =
      r.call(r.f.net(0).node(), "serving.attach_request", wire::encode(attach), &reply);
  EXPECT_FALSE(outcome.has_value()) << outcome->detail;
  const aka::AttachReply challenge = wire::decode<aka::AttachReply>(reply);
  return {challenge.attach_id, std::get<aka::Challenge>(challenge.step)};
}

/// Answers attach `id` with `auts`. The serving network must refuse it with
/// `reason`, in an outcome on the auth_response: it counts one failed
/// attach, and no other role state moves.
void expect_auts_refused(Registrations& r, std::uint64_t id, const aka::Auts& auts,
                         const std::string& reason) {
  core::DauthNode& serving = r.f.net(0);
  auto expected = r.state();
  ++expected["serving." + serving.id().str() + ".attaches_failed"];
  Bytes reply;
  const Outcome outcome = r.call(serving.node(), "serving.auth_response",
                                 wire::encode(aka::AuthResponse{id, {}, auts}), &reply);
  ASSERT_FALSE(outcome.has_value()) << reason << ": " << outcome->detail;
  const auto step = wire::decode<aka::AuthResponseReply>(reply).step;
  ASSERT_TRUE(std::holds_alternative<aka::Outcome>(step)) << reason << ": the attach went on";
  const aka::Outcome& end = std::get<aka::Outcome>(step);
  EXPECT_FALSE(end.success);
  EXPECT_EQ(end.path, "local");
  EXPECT_EQ(end.failure, reason);
  EXPECT_EQ(r.state(), expected) << reason << ": role state moved";
}

TEST(Registration, ForgedAutsOnTheLocalPathIsRefused) {
  // An AUTS whose MAC-S does not verify under Alice's key: the home cannot
  // resynchronise her, so the attach ends.
  Registrations r;
  expect_auts_refused(r, local_challenge(r).first, aka::Auts{}, "invalid auts");
}

TEST(Registration, SecondAutsOfOneAttachIsRefused) {
  // Alice's USIM has already accepted the challenge's SQN, so it answers
  // the challenge with a genuine AUTS, and the home resynchronises and
  // sends a fresh one. An attach resynchronises once: an AUTS on the fresh
  // challenge ends it.
  Registrations r;
  const std::string& network_name = r.f.config.serving_network_name;
  const auto [id, challenge] = local_challenge(r);
  aka::Usim usim(kAlice, r.bob_keys);
  ASSERT_TRUE(usim.authenticate(challenge.rand, challenge.autn, network_name).ok());
  const aka::UsimResult replayed = usim.authenticate(challenge.rand, challenge.autn, network_name);
  ASSERT_TRUE(replayed.auts.has_value());
  Bytes reply;
  ASSERT_FALSE(r.call(r.f.net(0).node(), "serving.auth_response",
                      wire::encode(aka::AuthResponse{id, {}, replayed.auts}), &reply)
                   .has_value());
  ASSERT_TRUE(std::holds_alternative<aka::Challenge>(
      wire::decode<aka::AuthResponseReply>(reply).step));
  expect_auts_refused(r, id, *replayed.auts, "resync retry also failed");
}

}  // namespace
}  // namespace dauth::testing
