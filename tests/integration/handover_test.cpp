// §7.4 extension tests: inter-organizational handover without re-running
// AKA. A context-transfer RPC between serving networks plus a horizontal
// key derivation replaces the full authentication.
#include <gtest/gtest.h>

#include "federation_fixture.h"
#include "wire/writer.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");

std::unique_ptr<ran::Ue> attach_ue(Federation& f, const aka::SubscriberKeys& keys,
                                   std::size_t serving) {
  auto profile = f.ue_profile();
  profile.use_guti = true;
  auto ue = std::make_unique<ran::Ue>(f.rpc, f.ran_node, f.net(serving).node(), kAlice,
                                      keys, profile);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
  return ue;
}

ran::HandoverRecord handover(Federation& f, ran::Ue& ue, std::size_t target) {
  std::optional<ran::HandoverRecord> record;
  ue.handover_to(f.net(target).node(), [&](const ran::HandoverRecord& r) { record = r; });
  f.simulator.run();
  EXPECT_TRUE(record.has_value());
  return record.value_or(ran::HandoverRecord{});
}

/// Sends `request` from nets[from] to nets[to]'s serving.handover_context
/// and returns the application error it draws.
sim::AppError fetch_context_error(Federation& f, std::size_t from, std::size_t to,
                                  const core::HandoverContextRequest& request) {
  std::optional<sim::AppError> error;
  f.rpc.call(f.net(from).node(), f.net(to).node(), "serving.handover_context",
             wire::encode(request), {}, [](Bytes) { ADD_FAILURE() << "context released"; },
             [&](sim::RpcError e) {
               ASSERT_TRUE(e.app.has_value()) << e.message;
               error = e.app;
             });
  f.simulator.run();
  EXPECT_TRUE(error.has_value());
  return error.value_or(sim::AppError{});
}

TEST(Handover, TransfersSessionWithoutReauth) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = attach_ue(f, keys, 3);
  const auto old_key = *ue->session_key();
  const auto vectors_served_before = f.net(0).home().metrics().vectors_served;

  const auto record = handover(f, *ue, 4);
  ASSERT_TRUE(record.success) << record.failure;

  // Session moved: new issuer, new key, no extra vector generated at home.
  EXPECT_EQ(ue->guti()->issuer, f.net(4).id());
  EXPECT_FALSE(ct_equal(*ue->session_key(), old_key));
  EXPECT_EQ(f.net(0).home().metrics().vectors_served, vectors_served_before);
  EXPECT_EQ(f.net(4).serving().session_count(), 1u);
  // The source retired its session anchor.
  EXPECT_EQ(f.net(3).serving().session_count(), 0u);
}

TEST(Handover, WorksWhileHomeIsOffline) {
  // The whole point of inheriting dAuth's philosophy: mobility must not
  // depend on the home network either.
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = attach_ue(f, keys, 3);

  f.network.node(f.net(0).node()).set_online(false);
  const auto record = handover(f, *ue, 4);
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(ue->guti()->issuer, f.net(4).id());
}

TEST(Handover, MuchFasterThanReattach) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = attach_ue(f, keys, 3);

  // Compare a handover to a from-scratch attach at the same target.
  auto fresh_profile = f.ue_profile();
  ran::Ue fresh(f.rpc, f.ran_node, f.net(4).node(), Supi("901550000000002"),
                f.net(0).provision_subscriber(Supi("901550000000002")), fresh_profile);
  const auto attach_record = f.attach(fresh);
  ASSERT_TRUE(attach_record.success);

  const auto ho = handover(f, *ue, 4);
  ASSERT_TRUE(ho.success);
  EXPECT_LT(ho.latency(), attach_record.latency() / 2);
}

TEST(Handover, ChainAcrossThreeNetworks) {
  Federation f(6);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = attach_ue(f, keys, 3);

  ASSERT_TRUE(handover(f, *ue, 4).success);
  ASSERT_TRUE(handover(f, *ue, 5).success);
  EXPECT_EQ(ue->guti()->issuer, f.net(5).id());
  // After the chain, a normal re-attach at the final network still works
  // (GUTI resolves locally there).
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;
}

TEST(Handover, FailsWithoutActiveSession) {
  Federation f(4);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto profile = f.ue_profile();
  ran::Ue ue(f.rpc, f.ran_node, f.net(3).node(), kAlice, keys, profile);

  std::optional<ran::HandoverRecord> record;
  ue.handover_to(f.net(2).node(), [&](const ran::HandoverRecord& r) { record = r; });
  f.simulator.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->success);
  EXPECT_EQ(record->failure, "no active session");
}

TEST(Handover, SourceOfflineFailsCleanly) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = attach_ue(f, keys, 3);

  f.network.node(f.net(3).node()).set_online(false);  // source gone
  const auto record = handover(f, *ue, 4);
  EXPECT_FALSE(record.success);
  // The UE still holds its session at the (dead) source; a fresh attach at
  // the target (identity fallback) recovers connectivity.
  ue->move_to(f.net(4).node());
  const auto reattach = f.attach(*ue);
  EXPECT_TRUE(reattach.success) << reattach.failure;
}

TEST(Handover, ReplayedHandoverRequestIsRefused) {
  // One handover per session anchor: after the context moves, asking the
  // source again must fail (the GUTI was retired).
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = attach_ue(f, keys, 3);
  const auto old_guti = *ue->guti();

  ASSERT_TRUE(handover(f, *ue, 4).success);

  // Replay the transfer request for the consumed session, correctly signed
  // by the target: only the retired session can refuse it.
  core::HandoverContextRequest replay{old_guti.value, f.net(4).id()};
  replay.signature = crypto::ed25519_sign(replay.signed_payload(), f.net(4).signing_keys());
  const sim::AppError error = fetch_context_error(f, 4, 3, replay);
  EXPECT_EQ(error.code, sim::AppErrorCode::kNotFound);
  EXPECT_EQ(error.detail, "unknown session");
}

TEST(Handover, UnsignedContextRequestRevealsNoSession) {
  // The source checks the target's signature before it looks the session
  // up: a request it cannot attribute draws the same refusal for a live
  // GUTI as for an unknown one, so no caller learns which GUTIs are live.
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = attach_ue(f, keys, 3);
  const std::uint64_t live = ue->guti()->value;

  for (const std::uint64_t guti : {live, live + 1000}) {
    core::HandoverContextRequest request{guti, f.net(4).id()};
    request.signature = crypto::ed25519_sign(request.signed_payload(), f.net(4).signing_keys());
    request.signature[0] ^= 1;
    const sim::AppError error = fetch_context_error(f, 4, 3, request);
    EXPECT_EQ(error.code, sim::AppErrorCode::kUnauthorized) << guti;
    EXPECT_EQ(error.detail, "invalid target signature") << guti;
  }
  EXPECT_EQ(f.net(3).serving().session_count(), 1u);
}

TEST(Handover, UnlabelledContextSignatureIsRefused) {
  // The target's key signs the handover-context request under its domain
  // label. A signature over the same fields without the label, the form a
  // signature over some other message could take, releases nothing.
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = attach_ue(f, keys, 3);

  core::HandoverContextRequest request{ue->guti()->value, f.net(4).id()};
  wire::Writer unlabelled;
  unlabelled.u64(request.guti);
  unlabelled.string(request.target.str());
  request.signature = crypto::ed25519_sign(unlabelled.data(), f.net(4).signing_keys());
  const sim::AppError error = fetch_context_error(f, 4, 3, request);
  EXPECT_EQ(error.code, sim::AppErrorCode::kUnauthorized);
  EXPECT_EQ(error.detail, "invalid target signature");
  EXPECT_EQ(f.net(3).serving().session_count(), 1u);  // the session stays at the source

  // The labelled signature over the same request is accepted.
  request.signature = crypto::ed25519_sign(request.signed_payload(), f.net(4).signing_keys());
  bool released = false;
  f.rpc.call(f.net(4).node(), f.net(3).node(), "serving.handover_context", wire::encode(request), {},
             [&](Bytes) { released = true; },
             [](sim::RpcError e) { ADD_FAILURE() << e.message; });
  f.simulator.run();
  EXPECT_TRUE(released);
}

}  // namespace
}  // namespace dauth::testing
