#include "layers.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <string_view>
#include <unordered_map>

#include "aka/auth_vector.h"
#include "core/messages.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/milenage.h"
#include "crypto/shamir.h"
#include "obs/tracer.h"

namespace fedbench {

using namespace dauth;

Counters snapshot(Federation& fed) {
  Counters c;
  c.events = fed.simulator().processed_events();
  const sim::Network& net = fed.network();
  c.msgs = net.messages_sent();
  c.bytes = net.bytes_sent();
  c.drops = net.messages_dropped();
  const sim::Rpc& rpc = fed.rpc();
  c.calls = rpc.calls_started();
  c.timeouts = rpc.calls_timed_out();
  c.retries = rpc.retries();
  c.handshakes = rpc.handshakes();
  for (const sim::NodeIndex n : fed.watched_nodes()) {
    c.busy.push_back(net.node(n).busy_time());
    c.jobs.push_back(net.node(n).jobs_completed());
  }
  c.serving = fed.serving().serving().metrics();
  c.home = fed.home().home().metrics();
  for (const auto& b : fed.backups()) c.backups.push_back(b->backup().metrics());
  for (const auto& s : fed.stores()) c.store_keys += s->size();
  return c;
}

namespace {

std::uint64_t backup_sum(const Counters& c, std::uint64_t core::BackupMetrics::*field) {
  std::uint64_t total = 0;
  for (const core::BackupMetrics& m : c.backups) total += m.*field;
  return total;
}

double per(double count, double base) { return ratio(count, base).value; }

double quantile_ms(std::vector<double> samples, double q) {
  return samples.empty() ? 0.0 : attempt_quantile(std::move(samples), 0, q, 0.0);
}

// ---- Trace analysis -----------------------------------------------------------

struct TraceStats {
  std::size_t spans = 0;
  std::map<std::string, std::vector<double>> rpc_ms;     // "rpc:<svc>" ok attempts
  std::map<std::string, std::vector<double>> handle_ms;  // "handle:<svc>" ok spans
  double self_ms[3] = {0, 0, 0};                         // rpc:, handle:, call:
  double rpc_ok_ms = 0;  // total duration of ok rpc: spans with a handle: child
  double net_ms = 0;     // ... minus their handle: child (network + accept)
};

constexpr std::string_view kKinds[3] = {"rpc:", "handle:", "call:"};

TraceStats analyze(const obs::Tracer& tracer) {
  TraceStats st;
  const auto& spans = tracer.spans();
  st.spans = spans.size();
  std::unordered_map<obs::SpanId, std::vector<const obs::Span*>> children;
  for (const obs::Span& s : spans) {
    if (s.parent_id != 0) children[s.parent_id].push_back(&s);
  }
  for (const obs::Span& s : spans) {
    if (!s.finished()) continue;
    for (int k = 0; k < 3; ++k) {
      if (!s.name.starts_with(kKinds[k])) continue;
      const std::string service = s.name.substr(kKinds[k].size());
      std::vector<Interval> kids;
      const obs::Span* handle = nullptr;
      if (const auto it = children.find(s.span_id); it != children.end()) {
        for (const obs::Span* c : it->second) {
          if (!c->finished()) continue;
          kids.push_back({c->start, c->end});
          if (k == 0 && c->name == "handle:" + service) handle = c;
        }
      }
      st.self_ms[k] += to_ms(self_time({s.start, s.end}, std::move(kids)));
      if (!s.ok) break;
      const double ms = to_ms(s.duration());
      if (k == 0) {
        st.rpc_ms[service].push_back(ms);
        if (handle != nullptr) {
          st.rpc_ok_ms += ms;
          st.net_ms += ms - to_ms(handle->duration());
        }
      } else if (k == 1) {
        st.handle_ms[service].push_back(ms);
      }
      break;
    }
  }
  return st;
}

// ---- Micro-timings of layer entry points ---------------------------------------

using WallClock = std::chrono::steady_clock;

/// Median over `batches` of the mean wall time of one `op()` call, in us.
template <class Op>
double time_us(Op&& op, int per_batch, int batches = 7) {
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = WallClock::now();
    for (int i = 0; i < per_batch; ++i) op();
    per_op.push_back(std::chrono::duration<double, std::micro>(WallClock::now() - t0).count() /
                     per_batch);
  }
  return median(per_op);
}

struct MicroTimings {
  double sign_us = 0, verify_us = 0, split_us = 0, combine_us = 0, vector_gen_us = 0;
  double codec_us = 0, put_us = 0;
};

MicroTimings micro_timings(std::size_t threshold, std::size_t shares) {
  MicroTimings m;
  volatile std::uint8_t sink = 0;  // keeps every timed result observable
  crypto::DeterministicDrbg rng("fedbench-micro", 1);
  const auto key = crypto::ed25519_generate(rng);

  // A representative vector bundle and one of its key-share bundles.
  aka::SubscriberKeys keys;
  keys.k = rng.array<16>();
  keys.opc = crypto::derive_opc(keys.k, rng.array<16>());
  const std::string name = "5G:mnc010.mcc315.3gppnetwork.org";
  const crypto::Rand rand = rng.array<16>();
  const aka::AuthVector av = aka::generate_auth_vector(keys, 1, rand, name);
  core::AuthVectorBundle vb;
  vb.home_network = NetworkId("home-net");
  vb.supi = Supi("315010000000001");
  vb.sqn = av.sqn;
  vb.rand = av.rand;
  vb.autn = av.autn;
  vb.hxres_star = av.hxres_star;
  vb.home_signature = crypto::ed25519_sign(vb.signed_payload(), key);
  auto split = crypto::shamir_split(ByteView(av.k_seaf), threshold, shares, rng);
  core::KeyShareBundle kb;
  kb.home_network = vb.home_network;
  kb.supi = vb.supi;
  kb.hxres_star = vb.hxres_star;
  kb.share = split.front();
  kb.home_signature = crypto::ed25519_sign(kb.signed_payload(), key);

  const Bytes payload = vb.signed_payload();
  m.sign_us = time_us([&] { sink = sink ^ crypto::ed25519_sign(payload, key)[0]; }, 200);
  m.verify_us = time_us(
      [&] { sink = sink ^ crypto::ed25519_verify(payload, vb.home_signature, key.public_key); },
      200);
  m.split_us = time_us(
      [&] {
        sink = sink ^ crypto::shamir_split(ByteView(av.k_seaf), threshold, shares, rng)[0].x;
      },
      2000);
  const std::vector<crypto::ShamirShare> quorum(split.begin(),
                                                split.begin() + static_cast<long>(threshold));
  m.combine_us = time_us([&] { sink = sink ^ crypto::shamir_combine(quorum).size(); }, 2000);
  std::uint64_t sqn = 2;
  m.vector_gen_us = time_us(
      [&] { sink = sink ^ aka::generate_auth_vector(keys, sqn++, rand, name).hxres_star[0]; },
      500);
  m.codec_us = time_us(
      [&] {
        const auto v = core::AuthVectorBundle::decode(vb.encode());
        const auto s = core::KeyShareBundle::decode(kb.encode());
        sink = sink ^ v.hxres_star[0] ^ s.share.x;
      },
      2000);

  // A put into a store the size of one churn backup's (~7k keys).
  store::KvStore store;
  const Bytes value = vb.encode();
  std::size_t next = 0;
  auto put_one = [&] {
    char k[64];
    std::snprintf(k, sizeof k, "vec/home-net/315010%09zu/%zu", next % 96, next);
    ++next;
    store.put(k, value);
  };
  for (int i = 0; i < 7000; ++i) put_one();
  m.put_us = time_us(put_one, 1000);
  sink = sink ^ static_cast<std::uint8_t>(store.size());
  return m;
}

}  // namespace

VirtualSummary summarize(const LoadLog& log, const Counters& before, const Counters& after) {
  VirtualSummary s;
  s.attempted = log.records.size();
  s.skipped_busy = log.skipped_busy;
  s.confirmed = log.confirmed();
  std::vector<double> ok_ms;
  for (const ran::AttachRecord& r : log.records) {
    if (r.success && r.key_confirmed) ok_ms.push_back(to_ms(r.latency()));
  }
  const double timeout_ms = to_ms(ran::UeConfig{}.attach_timeout);
  s.p50_ms = attempt_quantile(ok_ms, s.failed(), 0.50, timeout_ms);
  s.p90_ms = attempt_quantile(ok_ms, s.failed(), 0.90, timeout_ms);
  s.p99_ms = attempt_quantile(ok_ms, s.failed(), 0.99, timeout_ms);
  s.success_ratio = ratio(static_cast<double>(s.confirmed),
                          static_cast<double>(s.attempted + s.skipped_busy))
                        .value;
  std::vector<std::uint64_t> backup_served;
  for (std::size_t i = 0; i < after.backups.size(); ++i) {
    backup_served.push_back(after.backups[i].vectors_served - before.backups[i].vectors_served);
  }
  s.vectors_per_attach =
      vectors_per_attach(after.home.vectors_served - before.home.vectors_served, backup_served,
                         s.confirmed)
          .value;
  return s;
}

std::vector<Metric> layer_metrics(Federation& fed, const LoadLog& log, const Counters& before,
                                  const Counters& after, const WallFigures& wall) {
  std::vector<Metric> out;
  const WorkloadSpec& spec = fed.spec();
  const double attempts = static_cast<double>(log.records.size());
  std::uint64_t backup_ok = 0;
  for (const ran::AttachRecord& r : log.records) {
    backup_ok += (r.success && r.key_confirmed && r.path == "backup") ? 1 : 0;
  }
  out.push_back({"load_wall_s", wall.load_wall_s, "s"});
  out.push_back({"attach.attempted", attempts, "count"});
  out.push_back({"attach.confirmed", static_cast<double>(log.confirmed()), "count"});

  // Each group names the end-to-end metric and workload it should move.
  // sim event loop -> load_wall_s on home_online; node util/jobs ->
  // attach_p99_ms on home_online and churn; queue depth -> attach_p99_ms on
  // churn; network -> attach_p50_ms on backup_steady; rpc counts ->
  // attach_success_ratio and attach_p99_ms on churn.
  const double events = static_cast<double>(after.events - before.events);
  out.push_back({"sim.events_per_attach", per(events, attempts), "1/attach"});
  out.push_back({"sim.event_wall_us", per(wall.load_wall_s * 1e6, events), "us"});
  const double span_ns = static_cast<double>(log.end - log.start);
  for (std::size_t i = 0; i < fed.watched_nodes().size(); ++i) {
    const sim::Node& node = fed.network().node(fed.watched_nodes()[i]);
    const std::string prefix = "sim.node." + node.name();
    const double busy = static_cast<double>(after.busy[i] - before.busy[i]);
    out.push_back({prefix + ".util", per(busy, span_ns * node.workers()), "ratio"});
    out.push_back({prefix + ".jobs", static_cast<double>(after.jobs[i] - before.jobs[i]),
                   "count"});
    std::vector<double> q(log.queue_samples[i].begin(), log.queue_samples[i].end());
    out.push_back({prefix + ".queue_p99", quantile_ms(std::move(q), 0.99), "jobs"});
  }
  out.push_back({"sim.net.msgs_per_attach",
                 per(static_cast<double>(after.msgs - before.msgs), attempts), "1/attach"});
  out.push_back({"sim.net.bytes_per_attach",
                 per(static_cast<double>(after.bytes - before.bytes), attempts), "B/attach"});
  out.push_back({"sim.net.drops", static_cast<double>(after.drops - before.drops), "count"});
  out.push_back({"sim.rpc.calls_per_attach",
                 per(static_cast<double>(after.calls - before.calls), attempts), "1/attach"});
  out.push_back({"sim.rpc.timeouts", static_cast<double>(after.timeouts - before.timeouts),
                 "count"});
  out.push_back({"sim.rpc.retries", static_cast<double>(after.retries - before.retries),
                 "count"});
  out.push_back({"sim.rpc.handshakes",
                 static_cast<double>(after.handshakes - before.handshakes), "count"});

  // Per-service virtual latency -> attach_p90_ms on backup_steady. The
  // rpc: minus handle: share is network plus accept time.
  const TraceStats trace = analyze(*fed.tracer());
  for (const char* service : {"serving.attach_request", "serving.auth_response",
                              "home.get_vector", "home.get_key", "backup.get_vector",
                              "backup.get_share"}) {
    const auto& samples = trace.rpc_ms.contains(service) ? trace.rpc_ms.at(service)
                                                         : std::vector<double>{};
    const std::string prefix = std::string("sim.rpc.") + service;
    out.push_back({prefix + ".calls", static_cast<double>(samples.size()), "count"});
    out.push_back({prefix + ".p50_ms", quantile_ms(samples, 0.50), "ms"});
    out.push_back({prefix + ".p99_ms", quantile_ms(samples, 0.99), "ms"});
  }
  add_ratio(out, "sim.rpc.net_share", ratio(trace.net_ms, trace.rpc_ok_ms), "ms");
  out.push_back({"trace.rpc_self_ms_per_attach", per(trace.self_ms[0], attempts), "ms"});
  out.push_back({"trace.handle_self_ms_per_attach", per(trace.self_ms[1], attempts), "ms"});
  out.push_back({"trace.call_self_ms_per_attach", per(trace.self_ms[2], attempts), "ms"});

  // core.serving: hedges and verifies -> attach_p90_ms and vectors_per_attach
  // on backup_steady; cache hits -> attach_p50_ms on backup_steady; breaker
  // skips and fast failures -> attach_success_ratio on churn; home share ->
  // attach_p50_ms on churn.
  const auto& s0 = before.serving;
  const auto& s1 = after.serving;
  const double hedges = static_cast<double>(s1.hedges_launched - s0.hedges_launched);
  const double hits = static_cast<double>(s1.signature_cache_hits - s0.signature_cache_hits);
  const double verifies =
      hits + static_cast<double>(s1.signature_cache_misses - s0.signature_cache_misses);
  const double home_auths = static_cast<double>(s1.home_auths - s0.home_auths);
  const double backup_auths = static_cast<double>(s1.backup_auths - s0.backup_auths);
  out.push_back({"core.serving.hedges_per_attach", per(hedges, attempts), "1/attach"});
  add_ratio(out, "core.serving.hedge_win_ratio",
            ratio(static_cast<double>(s1.hedge_wins - s0.hedge_wins), hedges), "count");
  out.push_back({"core.serving.verifies_per_attach", per(verifies, attempts), "1/attach"});
  add_ratio(out, "core.serving.verify_cache_hit_ratio", ratio(hits, verifies), "count");
  out.push_back({"core.serving.breaker_skips_per_attach",
                 per(static_cast<double>(s1.breaker_skips - s0.breaker_skips), attempts),
                 "1/attach"});
  out.push_back({"core.serving.fast_failures",
                 static_cast<double>(s1.fast_failures - s0.fast_failures), "count"});
  add_ratio(out, "core.serving.home_auth_share", ratio(home_auths, home_auths + backup_auths),
            "count");

  // core.backup: share use -> load_wall_s, stored bundles -> setup_s, handler
  // latency -> attach_p90_ms, all on backup_steady. Set-up counts are taken
  // at load start (the `before` snapshot).
  const double shares_served =
      static_cast<double>(backup_sum(after, &core::BackupMetrics::shares_served) -
                          backup_sum(before, &core::BackupMetrics::shares_served));
  const Ratio share_use = share_use_ratio(spec.threshold, backup_ok,
                                          static_cast<std::uint64_t>(shares_served));
  add_ratio(out, "core.backup.share_use_ratio", share_use, "count");
  const double bundles_stored =
      static_cast<double>(backup_sum(before, &core::BackupMetrics::bundles_stored));
  out.push_back({"core.backup.bundles_stored", bundles_stored, "count"});
  for (const char* service : {"backup.get_vector", "backup.get_share"}) {
    const auto& samples = trace.handle_ms.contains(service) ? trace.handle_ms.at(service)
                                                            : std::vector<double>{};
    out.push_back({std::string("core.backup.handle.") + service + ".p99_ms",
                   quantile_ms(samples, 0.99), "ms"});
  }

  // core.home: signed bundles -> setup_s on backup_steady; reports and
  // replenishments -> load_wall_s and attach_p99_ms on churn.
  const double bundles_signed =
      static_cast<double>(before.home.vectors_disseminated + before.home.shares_disseminated);
  out.push_back({"core.home.bundles_signed", bundles_signed, "count"});
  add_ratio(out, "core.home.reports_per_proof",
            reports_per_proof(after.home.reports_processed - before.home.reports_processed,
                              backup_ok, fed.live_backups()),
            "count");
  out.push_back({"core.home.replenishments",
                 static_cast<double>(after.home.replenishments - before.home.replenishments),
                 "count"});

  // Wall cost of each layer's public functions: crypto and aka -> setup_s on
  // backup_steady; wire -> load_wall_s on home_online; store -> peak_rss_mb
  // and load_wall_s on churn. store.bundle_puts counts vector and share
  // bundle puts (one per stored bundle); proof puts have no counter.
  const MicroTimings m = micro_timings(spec.threshold, spec.backups.size());
  out.push_back({"crypto.sign_us", m.sign_us, "us"});
  out.push_back({"crypto.verify_us", m.verify_us, "us"});
  out.push_back({"crypto.shamir_split_us", m.split_us, "us"});
  out.push_back({"crypto.shamir_combine_us", m.combine_us, "us"});
  out.push_back({"aka.vector_gen_us", m.vector_gen_us, "us"});
  out.push_back({"crypto.setup_share",
                 per((bundles_signed * m.sign_us + bundles_stored * m.verify_us) / 1e6,
                     wall.setup_s),
                 "ratio"});
  out.push_back({"wire.bundle_codec_us", m.codec_us, "us"});
  const double store_puts =
      fed.stores().empty()
          ? 0.0
          : static_cast<double>(backup_sum(after, &core::BackupMetrics::bundles_stored) -
                                backup_sum(before, &core::BackupMetrics::bundles_stored));
  out.push_back({"store.bundle_puts", store_puts, "count"});
  out.push_back({"store.keys", static_cast<double>(after.store_keys), "count"});
  out.push_back({"store.put_us", m.put_us, "us"});

  // Set-up split and the observability layer itself.
  out.push_back({"setup.provision_s", wall.provision_s, "s"});
  out.push_back({"setup.disseminate_s", wall.disseminate_s, "s"});
  out.push_back({"obs.spans_per_attach", per(static_cast<double>(trace.spans), attempts),
                 "1/attach"});
  out.push_back({"obs.trace_overhead", per(wall.traced_load_wall_s, wall.load_wall_s),
                 "ratio"});
  return out;
}

}  // namespace fedbench
