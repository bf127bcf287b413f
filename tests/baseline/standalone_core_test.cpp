#include "baseline/standalone_core.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "aka/nas.h"
#include "crypto/drbg.h"
#include "ran/gnb.h"
#include "ran/ue.h"

namespace dauth::baseline {
namespace {

const Supi kAlice("901550000000001");

aka::SubscriberKeys make_keys(std::uint64_t seed) {
  crypto::DeterministicDrbg rng("baseline-keys", seed);
  aka::SubscriberKeys keys;
  keys.k = rng.array<16>();
  keys.opc = crypto::derive_opc(keys.k, rng.array<16>());
  return keys;
}

struct Fixture {
  sim::Simulator s{1};
  sim::Network net{s};
  sim::Rpc rpc{net};
  sim::NodeIndex core_node;
  sim::NodeIndex home_node;
  sim::NodeIndex ran_node;
  StandaloneCoreConfig cfg;

  Fixture() {
    sim::NodeConfig nc;
    nc.name = "core";
    nc.access.base = ms(2);
    core_node = net.add_node(nc);
    nc.name = "home";
    home_node = net.add_node(nc);
    nc.name = "ran";
    ran_node = net.add_node(nc);
  }

  ran::AttachRecord attach(ran::Ue& ue) {
    std::optional<ran::AttachRecord> record;
    ue.attach([&](const ran::AttachRecord& r) { record = r; });
    s.run();
    EXPECT_TRUE(record.has_value());
    return record.value_or(ran::AttachRecord{});
  }
};

TEST(StandaloneCore, LocalAuthSucceeds) {
  Fixture f;
  StandaloneCore core(f.rpc, f.core_node, "edge", f.cfg, 1);
  const auto keys = make_keys(1);
  core.provision_subscriber(kAlice, keys);
  core.bind_services();

  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, keys,
             ran::emulated_ran_profile(f.cfg.serving_network_name));
  const auto record = f.attach(ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "local");
  EXPECT_TRUE(record.key_confirmed);
  EXPECT_EQ(core.metrics().local_auths, 1u);
}

TEST(StandaloneCore, SequentialAttachesAdvanceSqn) {
  Fixture f;
  StandaloneCore core(f.rpc, f.core_node, "edge", f.cfg, 1);
  const auto keys = make_keys(1);
  core.provision_subscriber(kAlice, keys);
  core.bind_services();

  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, keys,
             ran::emulated_ran_profile(f.cfg.serving_network_name));
  for (int i = 0; i < 10; ++i) {
    const auto record = f.attach(ue);
    ASSERT_TRUE(record.success) << i << ": " << record.failure;
    ASSERT_TRUE(record.key_confirmed);
  }
}

TEST(StandaloneCore, UnknownSubscriberFails) {
  Fixture f;
  StandaloneCore core(f.rpc, f.core_node, "edge", f.cfg, 1);
  core.bind_services();

  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, make_keys(1),
             ran::emulated_ran_profile(f.cfg.serving_network_name));
  const auto record = f.attach(ue);
  EXPECT_FALSE(record.success);
  EXPECT_EQ(core.metrics().attaches_failed, 1u);
}

TEST(StandaloneCore, LteAttachOfAForeignSupiConfirmsKey) {
  // EPS AKA binds K_ASME to the SERVING network's PLMN (TS 33.401), which
  // the UE takes from the cell it camps on: a subscriber whose SUPI names
  // another PLMN (901/55 here, the core serves 315/010) still confirms its
  // key.
  Fixture f;
  StandaloneCore core(f.rpc, f.core_node, "edge", f.cfg, 1);
  const auto keys = make_keys(1);
  core.provision_subscriber(kAlice, keys);
  core.bind_services();

  auto profile = ran::emulated_ran_profile(f.cfg.serving_network_name);
  profile.lte = true;
  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, keys, profile);
  const auto record = f.attach(ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "local");
  EXPECT_TRUE(record.key_confirmed);
}

TEST(StandaloneCore, RoamingViaRemoteHss) {
  Fixture f;
  StandaloneCore serving(f.rpc, f.core_node, "serving", f.cfg, 1);
  StandaloneCore home(f.rpc, f.home_node, "home", f.cfg, 2);
  const auto keys = make_keys(3);
  home.provision_subscriber(kAlice, keys);
  serving.set_remote_hss(f.home_node);
  serving.bind_services();
  home.bind_services();

  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, keys,
             ran::emulated_ran_profile(f.cfg.serving_network_name));
  const auto record = f.attach(ue);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "roaming");
  EXPECT_TRUE(record.key_confirmed);
  EXPECT_EQ(serving.metrics().roaming_auths, 1u);
  EXPECT_EQ(home.metrics().hss_requests_served, 1u);
}

TEST(StandaloneCore, HssRefusesAnUnprovisionedSupi) {
  // A home HSS answers hss.get_av for its own subscribers only. A request
  // for another SUPI fails before any vector work: no request is counted
  // served, no SQN is allocated and no RAND drawn, so the next vector for a
  // subscriber is the one an HSS that never saw the refusal issues.
  Fixture f;
  StandaloneCore home(f.rpc, f.home_node, "home", f.cfg, 2);
  StandaloneCore twin(f.rpc, f.core_node, "home", f.cfg, 2);  // the same RNG stream
  const auto keys = make_keys(3);
  home.provision_subscriber(kAlice, keys);
  twin.provision_subscriber(kAlice, keys);
  home.bind_services();
  twin.bind_services();
  const auto get_av = [&](sim::NodeIndex hss, const Supi& supi) {
    std::optional<sim::CallResult<HssVectorReply>> result;
    sim::TypedStub(f.rpc, f.ran_node, kHssGetAv)
        .call(hss, HssVectorRequest{supi}, sim::RpcOptions::oneshot(),
              [&](sim::CallResult<HssVectorReply> r) { result = std::move(r); });
    f.s.run();
    if (!result) throw std::runtime_error("hss.get_av never ended");
    return std::move(*result);
  };

  const auto refused = get_av(f.home_node, Supi("901550000000002"));
  ASSERT_FALSE(refused.ok());
  ASSERT_TRUE(refused.app_error().has_value()) << refused.error().message;
  EXPECT_EQ(refused.app_error()->code, sim::AppErrorCode::kNotFound);
  EXPECT_EQ(home.metrics().hss_requests_served, 0u);

  const auto served = get_av(f.home_node, kAlice);
  const auto unrefused = get_av(f.core_node, kAlice);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(unrefused.ok());
  EXPECT_EQ(wire::encode(served.value()), wire::encode(unrefused.value()));
  EXPECT_EQ(home.metrics().hss_requests_served, 1u);
}

TEST(StandaloneCore, RoamingPaysPerCallHandshakes) {
  // Open5GS-style on-demand S6a/N12 connections: every roaming attach
  // re-handshakes. (The UE->core RPC connection is reused after the first.)
  Fixture f;
  StandaloneCore serving(f.rpc, f.core_node, "serving", f.cfg, 1);
  StandaloneCore home(f.rpc, f.home_node, "home", f.cfg, 2);
  const auto keys = make_keys(3);
  home.provision_subscriber(kAlice, keys);
  serving.set_remote_hss(f.home_node);
  serving.bind_services();
  home.bind_services();

  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, keys,
             ran::emulated_ran_profile(f.cfg.serving_network_name));
  (void)f.attach(ue);
  const auto handshakes_after_first = f.rpc.handshakes();
  (void)f.attach(ue);
  // Exactly one extra handshake: the fresh S6a/N12 connection. UE/RAN
  // connections are already cached.
  EXPECT_EQ(f.rpc.handshakes(), handshakes_after_first + 1);
}

TEST(StandaloneCore, ReuseConfigEliminatesRoamingHandshakes) {
  Fixture f;
  f.cfg.reuse_roaming_connections = true;
  StandaloneCore serving(f.rpc, f.core_node, "serving", f.cfg, 1);
  StandaloneCore home(f.rpc, f.home_node, "home", f.cfg, 2);
  const auto keys = make_keys(3);
  home.provision_subscriber(kAlice, keys);
  serving.set_remote_hss(f.home_node);
  serving.bind_services();
  home.bind_services();

  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, keys,
             ran::emulated_ran_profile(f.cfg.serving_network_name));
  (void)f.attach(ue);
  const auto handshakes_after_first = f.rpc.handshakes();
  (void)f.attach(ue);
  EXPECT_EQ(f.rpc.handshakes(), handshakes_after_first);
}

TEST(StandaloneCore, HssUnreachableFailsAttach) {
  Fixture f;
  f.cfg.hss_timeout = ms(500);
  StandaloneCore serving(f.rpc, f.core_node, "serving", f.cfg, 1);
  serving.set_remote_hss(f.home_node);  // nothing listening there
  serving.bind_services();
  f.net.node(f.home_node).set_online(false);

  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, make_keys(3),
             ran::emulated_ran_profile(f.cfg.serving_network_name));
  const auto record = f.attach(ue);
  EXPECT_FALSE(record.success);
}

TEST(StandaloneCore, WrongUeKeysRejected) {
  Fixture f;
  StandaloneCore core(f.rpc, f.core_node, "edge", f.cfg, 1);
  core.provision_subscriber(kAlice, make_keys(1));
  core.bind_services();

  ran::Ue ue(f.rpc, f.ran_node, f.core_node, kAlice, make_keys(99),
             ran::emulated_ran_profile(f.cfg.serving_network_name));
  const auto record = f.attach(ue);
  EXPECT_FALSE(record.success);
  EXPECT_EQ(record.failure, "usim mac failure");
}

TEST(StandaloneCore, RatByteOtherThanZeroOrOneIsMalformed) {
  // The RAT is a bool on the wire, as at the dAuth serving network: a byte
  // of 2-255 is no RAT at all, not a 5G attach.
  Fixture f;
  StandaloneCore core(f.rpc, f.core_node, "edge", f.cfg, 1);
  core.provision_subscriber(kAlice, make_keys(1));
  core.bind_services();

  aka::AttachRequest request;
  request.supi = kAlice;
  for (const std::uint8_t rat : {0, 2, 255}) {
    Bytes frame = wire::encode(request);
    frame.back() = rat;  // the RAT is the frame's last byte
    std::optional<sim::AppError> failure;
    f.rpc.call(
        f.ran_node, f.core_node, "serving.attach_request", frame, {},
        [&](Bytes reply) { EXPECT_NO_THROW((void)wire::decode<aka::AttachReply>(reply)); },
        [&](sim::RpcError e) { failure = e.app; });
    f.s.run();
    if (rat == 0) {
      EXPECT_FALSE(failure.has_value()) << "a 5G attach is challenged";
    } else {
      ASSERT_TRUE(failure.has_value()) << "rat " << int{rat};
      EXPECT_EQ(failure->code, sim::AppErrorCode::kMalformed) << "rat " << int{rat};
      EXPECT_EQ(failure->detail, "malformed serving.attach_request") << "rat " << int{rat};
    }
  }
  EXPECT_EQ(core.metrics().attaches_started, 1u);
}

}  // namespace
}  // namespace dauth::baseline
