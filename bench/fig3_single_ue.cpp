// Figure 3 reproduction: single-UE attach times on the physical testbed
// (Baicells eNodeB + srsUE profile).
//
// Conditions, as in §6.2.2:
//   * Open5GS           — stock edge core at the RAN site
//   * dAuth-home-online — dAuth core at the RAN site, user is local
//   * dAuth-backup[M]   — home network offline, 6 non-cloud SCN backups,
//                         key-share threshold M in {2, 4, 6}
// 250+ sequential attaches per condition. Outputs Fig. 3a boxplot rows and
// Fig. 3b CDF rows.
//
// Expected shape: dAuth-home ~ Open5GS; backup threshold 2 adds < 50 ms;
// threshold 6 is limited by the slowest backup (the Atom-class box on a
// high-latency backhaul) and grows a long tail.
//
// The five conditions run concurrently on the sweep thread pool; each owns
// an independent simulation, and the grouped boxplot/CDF/summary sections
// are printed after all conditions finish, so output stays deterministic.
// `--trace` runs a different mode: ONE backup-mode attach (threshold 2) with
// the full observability stack on, exports the span tree as a Perfetto-
// loadable Chrome trace (TRACE_fig3_backup_attach.json), checks the
// TraceAssert invariants over it, and writes a BENCH record carrying the
// metrics-registry JSON. The representative artifacts live in results/.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace_assert.h"
#include "obs/tracer.h"

using namespace dauth;

namespace {

constexpr int kSamples = 250;

struct ConditionResult {
  SampleSet samples;
  int failures = 0;
};

ConditionResult run_dauth(const bench::DauthOptions& options) {
  bench::DauthBench harness(options);
  ConditionResult r;
  for (int i = 0; i < kSamples; ++i) {
    const auto record = harness.single_attach();
    if (record.success) {
      r.samples.add_time(record.latency());
    } else {
      ++r.failures;
    }
  }
  return r;
}

/// One traced dAuth-backup[2] attach: the Fig. 3 condition whose span tree
/// actually exercises the whole federation (serving → directory → hedged
/// backup legs → share reconstruction).
int run_trace_mode() {
  bench::print_title("Figure 3 (--trace): one traced backup-mode attach, threshold 2");

  bench::DauthOptions options;
  options.scenario = sim::Scenario::kEdgeFiber;
  options.physical_ran = true;
  options.pool_size = 1;
  options.home_offline = true;
  options.backup_count = 6;
  options.backup_pool = bench::BackupPool::kNonCloud;
  options.config.threshold = 2;
  options.config.vectors_per_backup = 8;
  options.config.report_interval = 0;
  options.trace = true;

  bench::DauthBench harness(options);
  const auto record = harness.single_attach();
  if (!record.success) {
    std::fprintf(stderr, "traced attach failed: %s\n", record.failure.c_str());
    return 1;
  }

  obs::Tracer& tracer = *harness.tracer();
  obs::TraceId id = 0;
  for (const auto& span : tracer.spans()) {
    if (span.name == "attach") id = span.trace_id;
  }
  if (id == 0) {
    std::fprintf(stderr, "no attach span recorded\n");
    return 1;
  }

  const obs::TraceAssert check(tracer);
  for (const auto& result :
       {check.connected(id), check.share_threshold(id, options.config.threshold)}) {
    if (!result.ok) {
      std::fprintf(stderr, "trace invariant failed:\n%s\n", result.to_string().c_str());
      return 1;
    }
  }

  const std::string json = obs::chrome_trace_json(tracer);
  std::string dir = ".";
  if (const char* env = std::getenv("DAUTH_BENCH_OUT"); env && *env) dir = env;
  const std::string path = dir + "/TRACE_fig3_backup_attach.json";
  if (!obs::write_file(path, json)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("trace,ok,%s\n", path.c_str());
  std::printf("\n%s", obs::text_tree(tracer, id).c_str());

  bench::BenchReport report("fig3_single_ue_trace");
  report.set_threads(1);
  report.add_scalar("traced-attach-ms",
                    static_cast<double>(record.latency()) / static_cast<double>(ms(1)));
  report.add_scalar("trace-spans", static_cast<double>(tracer.trace(id).size()));
  report.add_scalar("journal-events",
                    static_cast<double>(harness.journal()->events().size()));
  report.set_registry_json(harness.metrics_registry()->to_json());
  report.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--trace") == 0) return run_trace_mode();
  bench::print_title("Figure 3: single-UE attach time, physical RAN profile");

  std::vector<std::string> labels;
  std::vector<ConditionResult> conditions;
  std::vector<bench::SweepPoint> points;
  // Each point deposits into its own pre-allocated slot; slots are disjoint,
  // so concurrent workers never share state.
  auto add_condition = [&](std::string label, std::function<ConditionResult()> run) {
    const std::size_t slot = labels.size();
    labels.push_back(std::move(label));
    conditions.emplace_back();
    points.push_back({labels.back(), [&conditions, slot, run] {
                        conditions[slot] = run();
                        return bench::PointResult{};
                      }});
  };

  add_condition("open5gs", [] {
    bench::BaselineOptions options;
    options.scenario = sim::Scenario::kEdgeFiber;
    options.physical_ran = true;
    options.pool_size = 1;
    bench::BaselineBench harness(options);
    ConditionResult r;
    for (int i = 0; i < kSamples; ++i) {
      const auto record = harness.single_attach();
      if (record.success) r.samples.add_time(record.latency());
    }
    return r;
  });

  add_condition("dauth-home-online", [] {
    bench::DauthOptions options;
    options.scenario = sim::Scenario::kEdgeFiber;
    options.physical_ran = true;
    options.pool_size = 1;
    options.home_is_serving = true;
    options.backup_count = 6;
    options.backup_pool = bench::BackupPool::kNonCloud;
    options.config.vectors_per_backup = 8;
    return run_dauth(options);
  });

  for (std::size_t threshold : {2u, 4u, 6u}) {  // dAuth backup mode.
    add_condition("dauth-backup-thresh[" + std::to_string(threshold) + "]",
                  [threshold] {
                    bench::DauthOptions options;
                    options.scenario = sim::Scenario::kEdgeFiber;
                    options.physical_ran = true;
                    options.pool_size = 1;
                    options.home_offline = true;
                    options.backup_count = 6;
                    options.backup_pool = bench::BackupPool::kNonCloud;
                    options.config.threshold = threshold;
                    // Headroom for hedged legs that burn a second vector.
                    options.config.vectors_per_backup = 2 * kSamples + 16;
                    options.config.report_interval = 0;  // home never returns
                    return run_dauth(options);
                  });
  }

  bench::BenchReport report("fig3_single_ue");
  report.set_threads(bench::sweep_threads());
  bench::run_sweep_collect(points);

  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (conditions[i].failures > 0) {
      std::printf("  (%d failed attaches excluded from %s)\n", conditions[i].failures,
                  labels[i].c_str());
    }
  }

  std::printf("\nFig 3a (boxplot rows: label,min,q1,median,q3,p95,max in ms)\n");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    bench::print_boxplot(labels[i], conditions[i].samples);
  }

  std::printf("\nFig 3b (CDF rows: cdf,label,ms,fraction)\n");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    bench::print_cdf(labels[i], conditions[i].samples, 16);
  }

  std::printf("\nSummaries\n");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    bench::print_summary(labels[i], conditions[i].samples);
    report.add(bench::make_row(labels[i], 0, conditions[i].samples, "box"));
  }
  report.write();
  return 0;
}
