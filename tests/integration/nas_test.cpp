// The UE-facing NAS frames: every byte the UE sends and receives, on every
// attach path of dAuth and of the baseline core, held to a recorded digest.
#include <gtest/gtest.h>

#include <map>

#include "baseline/standalone_core.h"
#include "crypto/sha256.h"
#include "federation_fixture.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");
const Supi kBob("901550000000002");
const Supi kCarol("315010000000001");  // in the serving PLMN, as EPS AKA binds K_ASME to it

/// A node that stands in as the UE's core node: it forwards every
/// serving.* call to `core` and hashes the service, the request and the
/// reply (or the failure) of each call into `digest`.
class Relay {
 public:
  Relay(sim::Network& network, sim::Rpc& rpc, sim::NodeIndex core, crypto::Sha256& digest,
        std::map<std::string, int>& calls) {
    sim::NodeConfig nc;
    nc.name = "relay-" + std::to_string(core);
    nc.access.base = ms(2);
    node_ = network.add_node(nc);
    for (const std::string service :
         {"serving.rrc_setup", "serving.attach_request", "serving.auth_response",
          "serving.registration_complete", "serving.handover_request"}) {
      rpc.register_service(node_, service, [&, core, service](ByteView request,
                                                              sim::Responder r) {
        ++calls[service];
        auto frame = [&digest](std::string_view tag, ByteView data) {
          digest.update(as_bytes(tag));
          ByteArray<8> size;  // little-endian, so each frame's bounds are hashed too
          for (std::size_t i = 0; i < size.size(); ++i) {
            size[i] = static_cast<std::uint8_t>(data.size() >> (8 * i));
          }
          digest.update(size);
          digest.update(data);
        };
        frame(service, request);
        rpc.call(
            node_, core, service, to_bytes(request), {},
            [r, frame](Bytes reply) {
              frame("reply", reply);
              r.reply(std::move(reply));
            },
            [r, frame](sim::RpcError e) {
              frame("error", as_bytes(e.message));
              r.fail(e.app.value_or(sim::AppError{sim::AppErrorCode::kUpstream, e.message}));
            });
      });
    }
  }

  sim::NodeIndex node() const noexcept { return node_; }

 private:
  sim::NodeIndex node_ = 0;
};

ran::UeConfig profile(const Federation& f) {
  return f.ue_profile();
}

TEST(Nas, UeFramesArePinned) {
  // Each case runs a UE against a relay in front of its serving core. The
  // digest changes with any NAS byte: an identifier, a challenge, an AUTS,
  // an outcome, a GUTI, a handover reply or the framing of any of them.
  crypto::Sha256 digest;
  std::map<std::string, int> calls;

  {
    // SUPI attaches: home path, then backup path; a SUCI attach; a GUTI
    // re-attach; and a foreign GUTI whose issuer is offline, which draws an
    // IdentityRequest and a SUPI retry. Net-1 is home, net-4 and net-5 serve.
    Federation f(5);
    const auto keys = f.provision(kAlice, 0, {1, 2, 3});
    Relay at_4(f.network, f.rpc, f.net(3).node(), digest, calls);
    Relay at_5(f.network, f.rpc, f.net(4).node(), digest, calls);

    ran::Ue supi_ue(f.rpc, f.ran_node, at_4.node(), kAlice, keys, profile(f));
    auto record = f.attach(supi_ue);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_EQ(record.path, "home-online");

    f.network.node(f.net(0).node()).set_online(false);
    record = f.attach(supi_ue);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_EQ(record.path, "backup");

    auto suci_profile = profile(f);
    suci_profile.use_suci = true;
    ran::Ue suci_ue(f.rpc, f.ran_node, at_4.node(), kAlice, keys, suci_profile);
    suci_ue.configure_suci(f.net(0).id(), f.net(0).suci_keys().public_key);
    record = f.attach(suci_ue);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_EQ(record.path, "backup");

    auto guti_profile = profile(f);
    guti_profile.use_guti = true;
    ran::Ue guti_ue(f.rpc, f.ran_node, at_4.node(), kAlice, keys, guti_profile);
    ASSERT_TRUE(f.attach(guti_ue).success);
    ASSERT_TRUE(guti_ue.guti().has_value());
    record = f.attach(guti_ue);  // resolved locally from the GUTI
    ASSERT_TRUE(record.success) << record.failure;

    f.network.node(f.net(3).node()).set_online(false);
    guti_ue.move_to(at_5.node());
    const int attach_requests = calls["serving.attach_request"];
    record = f.attach(guti_ue);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_EQ(calls["serving.attach_request"] - attach_requests, 2);  // GUTI, then SUPI
    EXPECT_EQ(guti_ue.guti()->issuer, f.net(4).id());
  }

  {
    // AUTS resync on the home path: the home lost its SQN state.
    Federation f(4);
    const auto keys = f.provision(kAlice, 0, {1, 2});
    Relay relay(f.network, f.rpc, f.net(3).node(), digest, calls);
    ran::Ue ue(f.rpc, f.ran_node, relay.node(), kAlice, keys, profile(f));
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(f.attach(ue).success);
    f.net(0).home().reset_subscriber_sqn(kAlice);
    const int responses = calls["serving.auth_response"];
    const auto record = f.attach(ue);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_EQ(record.path, "home-online");
    EXPECT_EQ(calls["serving.auth_response"] - responses, 2);  // AUTS, then RES*
  }

  {
    // AUTS resync on the backup path: the fastest backup's slice is stale
    // at the USIM, and the retry takes a vector from another slice.
    Federation f(5);
    const std::vector<std::size_t> backups = {1, 2, 3};
    const auto alice_keys = f.provision(kAlice, 0, backups);
    const auto bob_keys = f.provision(kBob, 0, backups);
    f.network.node(f.net(0).node()).set_online(false);
    f.net(4).serving().set_home_health(f.net(0).id(), false);
    for (std::size_t b : backups) {
      sim::LatencyModel link;
      link.base = ms(b == 1 ? 1 : 5);
      f.network.set_link(f.net(4).node(), f.net(b).node(), link);
    }
    Relay relay(f.network, f.rpc, f.net(4).node(), digest, calls);
    ran::Ue bob(f.rpc, f.ran_node, relay.node(), kBob, bob_keys, profile(f));
    ASSERT_TRUE(f.attach(bob).success);

    ran::Ue alice(f.rpc, f.ran_node, relay.node(), kAlice, alice_keys, profile(f));
    crypto::DeterministicDrbg rng("stale-slice", 1);
    const aka::AuthVector ahead = aka::generate_auth_vector(
        alice_keys, 1 + 1000 * aka::kSliceCount, rng.array<16>(), f.config.serving_network_name);
    ASSERT_TRUE(
        alice.usim().authenticate(ahead.rand, ahead.autn, f.config.serving_network_name).ok());
    const int responses = calls["serving.auth_response"];
    const auto record = f.attach(alice);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_EQ(record.path, "backup");
    EXPECT_EQ(calls["serving.auth_response"] - responses, 2);  // AUTS, then RES*
  }

  {
    // A handover from net-4 to net-5.
    Federation f(5);
    const auto keys = f.provision(kAlice, 0, {1, 2});
    Relay source(f.network, f.rpc, f.net(3).node(), digest, calls);
    Relay target(f.network, f.rpc, f.net(4).node(), digest, calls);
    auto guti_profile = profile(f);
    guti_profile.use_guti = true;
    ran::Ue ue(f.rpc, f.ran_node, source.node(), kAlice, keys, guti_profile);
    ASSERT_TRUE(f.attach(ue).success);
    std::optional<ran::HandoverRecord> handover;
    ue.handover_to(target.node(), [&](const ran::HandoverRecord& r) { handover = r; });
    f.simulator.run();
    ASSERT_TRUE(handover.has_value());
    ASSERT_TRUE(handover->success) << handover->failure;
  }

  {
    // The baseline core: a 5G attach and an LTE attach.
    Federation f(1);
    crypto::DeterministicDrbg rng("nas-baseline", 1);
    aka::SubscriberKeys keys;
    keys.k = rng.array<16>();
    keys.opc = crypto::derive_opc(keys.k, rng.array<16>());
    baseline::StandaloneCoreConfig cfg;
    cfg.serving_network_name = f.config.serving_network_name;
    sim::NodeConfig nc;
    nc.name = "open5gs";
    nc.access.base = ms(2);
    const sim::NodeIndex core_node = f.network.add_node(nc);
    baseline::StandaloneCore core(f.rpc, core_node, "edge", cfg, 1);
    core.provision_subscriber(kCarol, keys);
    core.bind_services();
    Relay relay(f.network, f.rpc, core_node, digest, calls);

    ran::Ue nr(f.rpc, f.ran_node, relay.node(), kCarol, keys, profile(f));
    auto record = f.attach(nr);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_TRUE(record.key_confirmed);

    auto lte_profile = profile(f);
    lte_profile.lte = true;
    ran::Ue lte(f.rpc, f.ran_node, relay.node(), kCarol, keys, lte_profile);
    record = f.attach(lte);
    ASSERT_TRUE(record.success) << record.failure;
    EXPECT_TRUE(record.key_confirmed);
  }

  EXPECT_EQ(calls["serving.handover_request"], 1);
  EXPECT_EQ(to_hex(digest.finish()),
            "7b91cde4e54ea5e0f833153d03185a4970bfffc8f36dbea5a785c58411ce311c")
      << calls["serving.attach_request"] << " attach requests, "
      << calls["serving.auth_response"] << " auth responses";
}

}  // namespace
}  // namespace dauth::testing
