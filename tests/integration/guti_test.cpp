// GUTI (temporary identifier) tests, paper §4.1:
//   * a GUTI is assigned on every successful registration;
//   * re-attach with our own GUTI resolves locally (no directory lookup);
//   * a foreign GUTI is resolved by asking the prior serving network;
//   * if that fails, the serving network sends an IdentityRequest and the
//     UE retries with a long-lived identifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string_view>

#include "aka/nas.h"
#include "federation_fixture.h"
#include "obs/journal.h"
#include "obs/tracer.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");

std::unique_ptr<ran::Ue> make_guti_ue(Federation& f, const Supi& supi,
                                      const aka::SubscriberKeys& keys, std::size_t serving) {
  auto profile = f.ue_profile();
  profile.use_guti = true;
  return std::make_unique<ran::Ue>(f.rpc, f.ran_node, f.net(serving).node(), supi, keys,
                                   profile);
}

TEST(Guti, AssignedOnSuccessfulAttach) {
  Federation f(4);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = make_guti_ue(f, kAlice, keys, 3);

  EXPECT_FALSE(ue->guti().has_value());
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success) << record.failure;
  ASSERT_TRUE(ue->guti().has_value());
  EXPECT_EQ(ue->guti()->issuer, f.net(3).id());
  EXPECT_NE(ue->guti()->value, 0u);
  EXPECT_EQ(f.net(3).serving().session_count(), 1u);
}

TEST(Guti, ReattachUsesLocalMapping) {
  Federation f(4);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = make_guti_ue(f, kAlice, keys, 3);

  ASSERT_TRUE(f.attach(*ue).success);
  const auto first_guti = *ue->guti();
  const auto misses_before = f.net(3).directory().cache_misses();

  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "home-online");
  // Local GUTI resolution: no new directory lookups were needed.
  EXPECT_EQ(f.net(3).directory().cache_misses(), misses_before);
  // The old GUTI was spent and a fresh one assigned.
  ASSERT_TRUE(ue->guti().has_value());
  EXPECT_NE(ue->guti()->value, first_guti.value);
  EXPECT_EQ(f.net(3).serving().session_count(), 1u);
}

TEST(Guti, ForeignGutiResolvedViaPriorServing) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = make_guti_ue(f, kAlice, keys, 3);

  ASSERT_TRUE(f.attach(*ue).success);
  ASSERT_EQ(ue->guti()->issuer, f.net(3).id());

  // The UE moves to net-5's coverage and re-attaches with net-4's GUTI.
  ue->move_to(f.net(4).node());
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "home-online");
  // New GUTI from the new serving network.
  EXPECT_EQ(ue->guti()->issuer, f.net(4).id());
}

TEST(Guti, PriorServingDownFallsBackToIdentityRequest) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = make_guti_ue(f, kAlice, keys, 3);
  ASSERT_TRUE(f.attach(*ue).success);

  // Prior serving network goes offline; the UE moves.
  f.network.node(f.net(3).node()).set_online(false);
  ue->move_to(f.net(4).node());
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "home-online");
  // The fallback cleared the stale GUTI and the attach used the SUPI.
  EXPECT_EQ(ue->guti()->issuer, f.net(4).id());
}

/// Sends a raw GUTI attach_request to nets[serving] and expects an
/// IdentityRequest that ends the attach: the `attach` span closes with its
/// reason, the attach counts as failed, and the journal pairs its start with
/// an end.
void expect_identity_request(Federation& f, std::size_t serving, const NetworkId& issuer,
                             std::uint64_t guti_value) {
  obs::Tracer tracer([&f] { return f.simulator.now(); }, &f.simulator.rng());
  obs::EventJournal journal([&f] { return f.simulator.now(); });
  f.rpc.set_tracer(&tracer);
  f.net(serving).set_observability(nullptr, &journal);

  aka::AttachRequest attach;
  attach.guti = Guti{issuer, guti_value};
  std::optional<aka::AttachReply> reply;
  f.rpc.call(
      f.ran_node, f.net(serving).node(), "serving.attach_request", wire::encode(attach), {},
      [&](Bytes frame) { reply = wire::decode<aka::AttachReply>(frame); },
      [](sim::RpcError e) { ADD_FAILURE() << "attach request failed: " << e.message; });
  f.simulator.run();
  f.rpc.set_tracer(nullptr);
  f.net(serving).set_observability(nullptr, nullptr);

  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(std::holds_alternative<aka::IdentityRequest>(reply->step));
  std::size_t attach_spans = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name != "attach") continue;
    ++attach_spans;
    EXPECT_TRUE(span.finished());
    EXPECT_FALSE(span.ok);
    const auto reason =
        std::find_if(span.attrs.begin(), span.attrs.end(),
                     [](const obs::Attr& a) { return std::string_view(a.name) == "reason"; });
    ASSERT_NE(reason, span.attrs.end());
    EXPECT_EQ(reason->value.as_label(), "identity requested");
  }
  EXPECT_EQ(attach_spans, 1u);
  const auto& m = f.net(serving).serving().metrics();
  EXPECT_EQ(m.attaches_started, m.attaches_succeeded + m.attaches_failed);
  std::size_t started = 0;
  std::size_t ended = 0;
  for (const obs::Event& event : journal.events()) {
    if (event.kind == obs::EventKind::kAttachStarted) ++started;
    if (event.kind == obs::EventKind::kAttachFailed) ++ended;
    EXPECT_NE(event.kind, obs::EventKind::kAttachSucceeded);
  }
  EXPECT_EQ(started, 1u);
  EXPECT_EQ(ended, 1u);
}

TEST(Guti, UnknownGutiTriggersIdentityRequest) {
  Federation f(4);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = make_guti_ue(f, kAlice, keys, 3);
  ASSERT_TRUE(f.attach(*ue).success);

  // A GUTI is one-time: re-attaching spends the first one.
  const auto old_guti = *ue->guti();
  ASSERT_TRUE(f.attach(*ue).success);

  // A UE that lost its GUTI attaches by SUPI and still succeeds.
  ue->forget_guti();
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success) << record.failure;

  // The spent GUTI, replayed at its issuer, maps to no subscriber: the
  // serving network asks for the identity instead.
  expect_identity_request(f, 3, f.net(3).id(), old_guti.value);
  // A foreign GUTI whose issuer is offline takes the same fallback.
  f.network.node(f.net(2).node()).set_online(false);
  expect_identity_request(f, 3, f.net(2).id(), old_guti.value);
}

TEST(Guti, IdentityRequestLatencyIncludesRetry) {
  // The GUTI fallback costs an extra UE round trip; make sure the attach
  // record reflects the full (longer) duration.
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = make_guti_ue(f, kAlice, keys, 3);
  ASSERT_TRUE(f.attach(*ue).success);
  const auto direct = f.attach(*ue);  // local GUTI fast path
  ASSERT_TRUE(direct.success);

  f.network.node(f.net(3).node()).set_online(false);
  ue->move_to(f.net(4).node());
  const auto fallback = f.attach(*ue);
  ASSERT_TRUE(fallback.success) << fallback.failure;
  // Must have paid the failed resolve + identity retry.
  EXPECT_GT(fallback.latency(), direct.latency());
}

TEST(Guti, BackupAuthAlsoAssignsGuti) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  f.network.node(f.net(0).node()).set_online(false);

  auto ue = make_guti_ue(f, kAlice, keys, 4);
  const auto r1 = f.attach(*ue);
  ASSERT_TRUE(r1.success) << r1.failure;
  ASSERT_EQ(r1.path, "backup");
  ASSERT_TRUE(ue->guti().has_value());

  // Re-attach with the GUTI while the home is still down: identity resolves
  // locally, auth still flows through the backups.
  const auto r2 = f.attach(*ue);
  EXPECT_TRUE(r2.success) << r2.failure;
  EXPECT_EQ(r2.path, "backup");
}

TEST(Guti, DisabledByDefault) {
  Federation f(4);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = f.make_ue(kAlice, keys, 3);  // default profile: use_guti = false
  ASSERT_TRUE(f.attach(*ue).success);
  // A GUTI was still assigned by the network...
  EXPECT_TRUE(ue->guti().has_value());
  // ...but the next attach goes by SUPI (the paper's from-scratch attach),
  // exercising the directory again.
  const auto misses_before = f.net(3).directory().cache_misses();
  ASSERT_TRUE(f.attach(*ue).success);
  EXPECT_EQ(f.net(3).directory().cache_misses(), misses_before);  // cached, but path taken
}

}  // namespace
}  // namespace dauth::testing
