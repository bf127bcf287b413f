// End-to-end observability: a backup-mode attach under a home outage must
// produce ONE connected trace spanning serving → directory → hedged backup
// legs → share reconstruction, with retries/hedges/breaker-skips as child
// spans; the TraceAssert invariants hold over it; the Chrome export
// validates; and the metrics registry / event journal record the same story.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "federation_fixture.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace_assert.h"
#include "obs/tracer.h"
#include "sim/failure.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");

/// Installs the full observability stack on a federation: tracer on the RPC
/// layer, registry + journal on every node. Built AFTER provisioning so the
/// recorded spans/events cover only the scenario under test.
struct Observed {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  obs::EventJournal journal;

  explicit Observed(Federation& f)
      : tracer([&f] { return f.simulator.now(); }, &f.simulator.rng()),
        journal([&f] { return f.simulator.now(); }) {
    f.rpc.set_tracer(&tracer);
    for (auto& net : f.nets) net->set_observability(&registry, &journal);
  }
};

/// The (single) trace containing a span named `attach`.
obs::TraceId attach_trace(const obs::Tracer& tracer) {
  obs::TraceId found = 0;
  for (const auto& span : tracer.spans()) {
    if (span.name != "attach") continue;
    EXPECT_EQ(found, 0u) << "more than one attach trace recorded";
    found = span.trace_id;
  }
  EXPECT_NE(found, 0u) << "no attach span recorded";
  return found;
}

std::size_t count_named(const std::vector<const obs::Span*>& spans,
                        const std::string& name, bool ok_only = false) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const obs::Span* s) {
        return s->name == name && (!ok_only || s->ok);
      }));
}

TEST(TraceIntegration, BackupAttachUnderHomeOutageIsOneConnectedTrace) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  Observed obs(f);

  const auto before = obs.registry.snapshot();

  // Home dies silently; the serving network's health cache already knows
  // (operator feed), so the attach goes straight down the backup path.
  f.network.node(f.net(0).node()).set_online(false);
  f.net(4).serving().set_home_health(f.net(0).id(), false);

  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");

  // --- Trace shape -------------------------------------------------------
  const obs::TraceId id = attach_trace(obs.tracer);
  ASSERT_NE(id, 0u);
  const auto spans = obs.tracer.trace(id);

  obs::TraceAssert check(obs.tracer);
  const auto connected = check.connected(id);
  EXPECT_TRUE(connected.ok) << connected.to_string();
  const auto threshold = check.share_threshold(id, f.config.threshold);
  EXPECT_TRUE(threshold.ok) << threshold.to_string();

  // The one tree spans every layer of the backup path: the UE request that
  // roots it, the attach state machine, directory resolution, the backup
  // vector fetch, and a verified-proof-gated share per threshold member.
  EXPECT_GE(count_named(spans, "rpc:serving.attach_request"), 1u);
  EXPECT_EQ(count_named(spans, "attach"), 1u);
  EXPECT_GE(count_named(spans, "call:dir.get_backups"), 1u);
  EXPECT_GE(count_named(spans, "call:backup.get_vector", /*ok_only=*/true), 1u);
  EXPECT_GE(count_named(spans, "call:backup.get_share", /*ok_only=*/true),
            static_cast<std::size_t>(f.config.threshold));
  EXPECT_EQ(count_named(spans, "serving.proof", /*ok_only=*/true), 1u);

  // Every span of the trace is closed, and the attach span carries the
  // outcome attributes the journal/exporters key off.
  for (const auto* span : spans) EXPECT_TRUE(span->finished()) << span->name;
  const auto* attach = *std::find_if(
      spans.begin(), spans.end(),
      [](const obs::Span* s) { return s->name == "attach"; });
  const auto* path = obs::TraceAssert::find_attr(*attach, "path");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->to_string(), "backup");

  // --- Exporters ---------------------------------------------------------
  const std::string tree = obs::text_tree(obs.tracer, id);
  EXPECT_NE(tree.find("attach"), std::string::npos);
  EXPECT_NE(tree.find("call:backup.get_share"), std::string::npos);

  // --- Metrics deltas (satellite: registry-backed snapshot/diff) ---------
  const auto delta = obs::MetricsRegistry::diff(before, obs.registry.snapshot());
  EXPECT_EQ(delta.value("serving.net-5.attaches_started"), 1u);
  EXPECT_EQ(delta.value("serving.net-5.attaches_succeeded"), 1u);
  EXPECT_EQ(delta.value("serving.net-5.attaches_failed"), 0u);
  EXPECT_EQ(delta.value("serving.net-5.backup_auths"), 1u);
  EXPECT_EQ(delta.value("serving.net-5.home_auths"), 0u);
  EXPECT_EQ(delta.value("home.net-1.vectors_served"), 0u);  // home was down
  std::uint64_t shares = 0;
  for (const char* net : {"backup.net-2", "backup.net-3", "backup.net-4"}) {
    shares += delta.value(std::string(net) + ".shares_served");
  }
  EXPECT_GE(shares, static_cast<std::uint64_t>(f.config.threshold));

  const auto* hist = obs.registry.find_histogram("serving.net-5.attach_latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
  EXPECT_GT(hist->max(), 0);

  // --- Journal -----------------------------------------------------------
  EXPECT_EQ(obs.journal.count(obs::EventKind::kAttachStarted), 1u);
  EXPECT_EQ(obs.journal.count(obs::EventKind::kAttachSucceeded), 1u);
  EXPECT_GE(obs.journal.count(obs::EventKind::kShareReleased),
            static_cast<std::size_t>(f.config.threshold));
  // Attach events carry the trace id, tying the audit log to the span tree.
  for (const auto& event : obs.journal.events()) {
    if (event.kind == obs::EventKind::kAttachStarted ||
        event.kind == obs::EventKind::kAttachSucceeded) {
      EXPECT_EQ(event.trace_id, id);
      EXPECT_EQ(event.subject, kAlice.str());
    }
  }
}

TEST(TraceIntegration, AnnouncedOutageShowsBreakerSkipUnderProofSpan) {
  Federation f(5);
  sim::FailureInjector injector(f.network, &f.rpc);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  Observed obs(f);

  // One backup's outage is announced: its breaker force-opens, so the share
  // round skips it with an instantaneous marker span instead of an RPC.
  injector.schedule_outage(f.net(1).node(), f.simulator.now() + ms(1), hours(1));
  f.network.node(f.net(0).node()).set_online(false);
  f.net(4).serving().set_home_health(f.net(0).id(), false);

  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "backup");
  ASSERT_GE(f.net(4).serving().metrics().breaker_skips, 1u);

  const obs::TraceId id = attach_trace(obs.tracer);
  const auto spans = obs.tracer.trace(id);
  const auto connected = obs::TraceAssert(obs.tracer).connected(id);
  EXPECT_TRUE(connected.ok) << connected.to_string();

  // The skip markers are children of the proof span — the skip decision is
  // part of the share-collection round, not a floating annotation — and each
  // names the peer it spared from a doomed RPC.
  const obs::Span* proof = nullptr;
  for (const auto* span : spans) {
    if (span->name == "serving.proof") proof = span;
  }
  ASSERT_NE(proof, nullptr);
  std::size_t skips = 0;
  for (const auto* span : spans) {
    if (span->name != "breaker-skip:backup.get_share") continue;
    ++skips;
    EXPECT_EQ(span->parent_id, proof->span_id);
    EXPECT_EQ(span->duration(), 0);
    const auto* peer = obs::TraceAssert::find_attr(*span, "peer");
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(peer->to_string(), f.net(1).id().str());
  }
  EXPECT_GE(skips, 1u);

  // No share RPC was attempted toward the announced-down backup.
  for (const auto* span : spans) {
    if (span->name != "rpc:backup.get_share") continue;
    const auto* peer = obs::TraceAssert::find_attr(*span, "peer");
    ASSERT_NE(peer, nullptr);
    EXPECT_NE(peer->to_string(), f.net(1).id().str());
  }

  // Shares came from the two live backups only.
  EXPECT_EQ(obs.journal.count(obs::EventKind::kShareReleased), 2u);
  EXPECT_TRUE(obs.journal.for_network(f.net(1).id().str()).empty());
}

TEST(TraceIntegration, HealthyHomeAttachTracesHomePathAndKeyRelease) {
  Federation f(4);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  Observed obs(f);
  const auto before = obs.registry.snapshot();

  auto ue = f.make_ue(kAlice, keys, 3);
  const auto record = f.attach(*ue);
  ASSERT_TRUE(record.success) << record.failure;
  EXPECT_EQ(record.path, "home-online");

  const obs::TraceId id = attach_trace(obs.tracer);
  const auto spans = obs.tracer.trace(id);
  const auto connected = obs::TraceAssert(obs.tracer).connected(id);
  EXPECT_TRUE(connected.ok) << connected.to_string();
  EXPECT_GE(count_named(spans, "call:home.get_vector", /*ok_only=*/true), 1u);
  EXPECT_EQ(count_named(spans, "call:backup.get_share"), 0u);

  const auto delta = obs::MetricsRegistry::diff(before, obs.registry.snapshot());
  EXPECT_EQ(delta.value("serving.net-4.home_auths"), 1u);
  EXPECT_EQ(delta.value("home.net-1.vectors_served"), 1u);
  EXPECT_EQ(obs.journal.count(obs::EventKind::kVectorServed), 1u);
  EXPECT_EQ(obs.journal.count(obs::EventKind::kKeyReleased), 1u);
}

}  // namespace
}  // namespace dauth::testing
