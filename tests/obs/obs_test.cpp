// Unit tests for the observability subsystem (src/obs/): tracer semantics,
// histogram accuracy, registry snapshots, exporters, the event journal, and
// the TraceAssert invariant checks — all on hand-built span data, no sim.
#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace_assert.h"
#include "obs/tracer.h"

namespace dauth::obs {
namespace {

/// Tracer on a hand-cranked clock.
struct TestTracer {
  Time now = 0;
  Xoshiro256StarStar rng{42};
  Tracer tracer{[this] { return now; }, &rng};
};

TEST(Tracer, RootAndExplicitChild) {
  TestTracer t;
  const auto root = t.tracer.start_span("root");
  EXPECT_TRUE(root.valid());
  t.now = ms(1);
  const auto child = t.tracer.start_span("child", root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  t.now = ms(2);
  t.tracer.end_span(child);
  t.tracer.end_span(root, /*ok=*/false);

  ASSERT_EQ(t.tracer.spans().size(), 2u);
  const Span& root_span = t.tracer.spans()[0];
  const Span& child_span = t.tracer.spans()[1];
  EXPECT_EQ(root_span.parent_id, 0u);
  EXPECT_FALSE(root_span.ok);
  EXPECT_EQ(child_span.parent_id, root.span_id);
  EXPECT_EQ(child_span.start, ms(1));
  EXPECT_EQ(child_span.duration(), ms(1));
  EXPECT_TRUE(child_span.ok);
}

TEST(Tracer, AmbientScopeParentsNewSpans) {
  TestTracer t;
  const auto outer = t.tracer.start_span("outer");
  {
    Tracer::Scope scope(t.tracer, outer);
    const auto inner = t.tracer.start_span("inner");  // no explicit parent
    EXPECT_EQ(inner.trace_id, outer.trace_id);
    EXPECT_EQ(t.tracer.find(inner.span_id)->parent_id, outer.span_id);
  }
  // Scope popped: a new span without a parent roots a fresh trace.
  const auto stranger = t.tracer.start_span("stranger");
  EXPECT_NE(stranger.trace_id, outer.trace_id);
  EXPECT_EQ(t.tracer.trace_ids().size(), 2u);
}

TEST(Tracer, ExplicitParentBeatsAmbient) {
  TestTracer t;
  const auto a = t.tracer.start_span("a");
  const auto b = t.tracer.start_span("b");  // separate trace
  Tracer::Scope scope(t.tracer, b);
  const auto child = t.tracer.start_span("child", a);
  EXPECT_EQ(child.trace_id, a.trace_id);
}

TEST(Tracer, EndSpanFirstCloseWins) {
  TestTracer t;
  const auto ctx = t.tracer.start_span("s");
  t.now = ms(5);
  t.tracer.end_span(ctx, true);
  t.now = ms(9);
  t.tracer.end_span(ctx, false);  // late duplicate close is ignored
  const Span* span = t.tracer.find(ctx.span_id);
  EXPECT_EQ(span->end, ms(5));
  EXPECT_TRUE(span->ok);
}

TEST(Tracer, InstantSpanIsZeroLength) {
  TestTracer t;
  t.now = us(7);
  const auto ctx = t.tracer.instant_span("marker");
  const Span* span = t.tracer.find(ctx.span_id);
  EXPECT_TRUE(span->finished());
  EXPECT_EQ(span->duration(), 0);
  EXPECT_EQ(span->start, us(7));
}

TEST(AttrValue, TypedAccessorsAndToString) {
  EXPECT_EQ(AttrValue(true).to_string(), "true");
  EXPECT_EQ(AttrValue(std::int64_t{-3}).to_string(), "-3");
  EXPECT_EQ(AttrValue(std::uint64_t{12}).to_string(), "12");
  EXPECT_EQ(AttrValue("label").to_string(), "label");
  EXPECT_EQ(AttrValue(std::string("s")).kind(), AttrValue::Kind::kLabel);
}

TEST(Histogram, ExactBelowSubBucketRange) {
  Histogram h;
  for (int i = 1; i <= 64; ++i) h.record(i);
  // Values up to 2^(kSubBits+1) land in width-1 buckets: percentiles exact.
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 64);
  EXPECT_EQ(h.percentile(0.5), 32);
  EXPECT_EQ(h.percentile(1.0), 64);
}

TEST(Histogram, LogLinearErrorBounded) {
  Histogram h;
  const std::int64_t value = 1'000'000;
  for (int i = 0; i < 100; ++i) h.record(value);
  // One sub-bucket of slack: ~3% at kSubBits=5.
  const std::int64_t p99 = h.percentile(0.99);
  EXPECT_GE(p99, value);
  EXPECT_LE(p99, value + value / 16);
  EXPECT_EQ(h.max(), value);  // percentile(1.0) caps at the true max
  EXPECT_EQ(h.percentile(1.0), value);
}

TEST(Histogram, NegativeClampsAndDurationsRecordMicroseconds) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.min(), 0);
  h.record_duration(ms(3));
  EXPECT_EQ(h.max(), 3000);
}

TEST(MetricsRegistry, CounterViewsTrackLiveStorage) {
  MetricsRegistry registry;
  std::uint64_t counter = 0;
  registry.register_counter("x.count", &counter);
  EXPECT_EQ(registry.value("x.count"), 0u);
  counter = 41;
  EXPECT_EQ(registry.value("x.count"), 41u);  // view, not copy
  EXPECT_EQ(registry.value("missing"), 0u);
}

TEST(MetricsRegistry, SnapshotDiff) {
  MetricsRegistry registry;
  std::uint64_t a = 10, b = 2;
  registry.register_counter("a", &a);
  const auto before = registry.snapshot();
  a = 17;
  registry.register_counter("b", &b);  // appears only in `after`
  const auto after = registry.snapshot();
  const auto delta = MetricsRegistry::diff(before, after);
  EXPECT_EQ(delta.value("a"), 7u);
  EXPECT_EQ(delta.value("b"), 2u);
}

TEST(MetricsRegistry, JsonIsWellFormed) {
  MetricsRegistry registry;
  std::uint64_t c = 3;
  registry.register_counter("serving.net-a.attaches_started", &c);
  registry.histogram("serving.net-a.attach_latency_us").record(250);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"serving.net-a.attaches_started\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Export, ChromeTraceBytesArePinned) {
  // Two traces (two tid lanes), a child and two roots, a failed span, every
  // attribute kind, and a name and a label carrying a quote, a backslash and
  // a control character, which is written as a space: the exact bytes the
  // exporter writes for them. Span and trace ids come from the seeded RNG.
  TestTracer t;
  t.now = 1'234'567;  // ts 1234.567 us
  const auto attach = t.tracer.start_span("attach");
  t.tracer.set_attr(attach, "peer", "net-b");
  t.tracer.set_attr(attach, "cached", true);
  t.tracer.set_attr(attach, "delta", -7);
  t.tracer.set_attr(attach, "vectors", std::uint64_t{18'446'744'073'709'551'615u});
  t.now = ms(2);
  const auto call = t.tracer.start_span("rpc:\"home\"\\get\x01", attach);
  t.tracer.set_attr(call, "error", "\"timed\"\\out\n");
  t.now = ms(3) + 5;
  t.tracer.end_span(call, /*ok=*/false);
  const auto report = t.tracer.start_span("report");
  t.now = ms(4);
  t.tracer.end_span(report);
  t.tracer.end_span(attach);

  EXPECT_EQ(chrome_trace_json(t.tracer),
            R"({"traceEvents":[)"
            R"({"name":"attach","ph":"X","ts":1234.567,"dur":2765.433,"pid":1,"tid":1,)"
            R"("args":{"trace":"6104d9866d113a7e","span":"15780b2e0c2ec716","ok":true,)"
            R"("peer":"net-b","cached":true,"delta":-7,"vectors":18446744073709551615}},)"
            R"({"name":"rpc:\"home\"\\get ","ph":"X","ts":2000.000,"dur":1000.005,"pid":1,)"
            R"("tid":1,"args":{"trace":"6104d9866d113a7e","span":"ae17533239e499a1",)"
            R"("parent":"15780b2e0c2ec716","ok":false,"error":"\"timed\"\\out "}},)"
            R"({"name":"report","ph":"X","ts":3000.005,"dur":999.995,"pid":1,"tid":2,)"
            R"("args":{"trace":"fde6dc7fe2ec5e64","span":"ecb8ad4703b360a1","ok":true}}],)"
            R"("displayTimeUnit":"ms"})");
}

TEST(Export, TextTreeShowsHierarchyAndFailures) {
  TestTracer t;
  const auto root = t.tracer.start_span("attach");
  const auto child = t.tracer.start_span("rpc:home.get_vector", root);
  t.tracer.set_attr(child, "error", "timeout");
  t.now = ms(1);
  t.tracer.end_span(child, /*ok=*/false);
  t.tracer.end_span(root, /*ok=*/false);

  const std::string tree = text_tree(t.tracer, root.trace_id);
  EXPECT_NE(tree.find("attach"), std::string::npos);
  EXPECT_NE(tree.find("rpc:home.get_vector"), std::string::npos);
  EXPECT_NE(tree.find("FAIL"), std::string::npos);
  EXPECT_NE(tree.find("error=timeout"), std::string::npos);
}

TEST(Journal, AppendsCountAndFilter) {
  Time now = 0;
  EventJournal journal([&now] { return now; });
  now = sec(1);
  journal.append(EventKind::kAttachStarted, "net-a", "imsi-1");
  journal.append(EventKind::kVectorServed, "net-b", "imsi-1", "slice 2", 99);
  ASSERT_EQ(journal.events().size(), 2u);
  EXPECT_EQ(journal.events()[0].at, sec(1));
  EXPECT_EQ(journal.events()[1].trace_id, 99u);
  EXPECT_EQ(journal.count(EventKind::kVectorServed), 1u);
  EXPECT_EQ(journal.for_network("net-b").size(), 1u);
  EXPECT_STREQ(event_kind_name(EventKind::kAnomaly), "anomaly");
}

TEST(TraceAssert, ConnectedDetectsOrphans) {
  TestTracer t;
  const auto root = t.tracer.start_span("attach");
  const auto child = t.tracer.start_span("child", root);
  t.tracer.end_span(child);
  t.tracer.end_span(root);
  TraceAssert check(t.tracer);
  EXPECT_TRUE(check.connected(root.trace_id).ok);

  // Forge an orphan: same trace id, parent id that is not in the trace.
  const auto orphan = t.tracer.start_span("orphan", TraceContext{root.trace_id, 12345});
  t.tracer.end_span(orphan);
  const auto broken = check.connected(root.trace_id);
  EXPECT_FALSE(broken.ok);
  EXPECT_NE(broken.to_string().find("orphan"), std::string::npos);
}

TEST(TraceAssert, ShareThresholdRequiresVerifiedProofAncestor) {
  TestTracer t;
  const auto root = t.tracer.start_span("attach");
  const auto proof = t.tracer.start_span("serving.proof", root);
  t.tracer.set_attr(proof, "proof_verified", true);
  for (int i = 0; i < 2; ++i) {
    const auto share = t.tracer.start_span("call:backup.get_share", proof);
    t.tracer.end_span(share);
  }
  t.tracer.end_span(proof);
  t.tracer.end_span(root);

  TraceAssert check(t.tracer);
  EXPECT_TRUE(check.share_threshold(root.trace_id, 2).ok);
  EXPECT_FALSE(check.share_threshold(root.trace_id, 3).ok);

  // A share span dangling off the root (no proof ancestor) must not count.
  TestTracer t2;
  const auto root2 = t2.tracer.start_span("attach");
  const auto rogue = t2.tracer.start_span("call:backup.get_share", root2);
  t2.tracer.end_span(rogue);
  t2.tracer.end_span(root2);
  EXPECT_FALSE(TraceAssert(t2.tracer).share_threshold(root2.trace_id, 1).ok);
}

TEST(TraceAssert, NoSpansForPeerAfterCutoff) {
  TestTracer t;
  const auto early = t.tracer.start_span("rpc:backup.get_vector");
  t.tracer.set_attr(early, "peer", "revoked-net");
  t.tracer.end_span(early);
  TraceAssert check(t.tracer);
  EXPECT_TRUE(check.no_spans_for_peer_after("revoked-net", sec(1)).ok);

  t.now = sec(2);
  const auto late = t.tracer.start_span("rpc:backup.get_vector");
  t.tracer.set_attr(late, "peer", "revoked-net");
  t.tracer.end_span(late);
  EXPECT_FALSE(check.no_spans_for_peer_after("revoked-net", sec(1)).ok);
  EXPECT_TRUE(check.no_spans_for_peer_after("other-net", sec(1)).ok);
}

}  // namespace
}  // namespace dauth::obs
