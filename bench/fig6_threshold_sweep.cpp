// Figure 6 reproduction: authentication latency quantiles vs load for
// key-share thresholds {2, 4, 6, 8} with 8 backup networks (backup mode,
// edge serving core on fiber).
//
// Expected shape (§6.4): under load the threshold has NO consistent impact
// on latency or throughput — the M-th share comes from the M + 1 fastest
// backups queried concurrently (all 8 at thresh[8], the paper's broadcast;
// docs/RESILIENCE.md §5), and at high load server-side queueing (shared
// across thresholds) dominates over waiting for the M-th share.
//
// Every (threshold, load) point is an independent simulation with its own
// deterministic seed, so the sweep fans out across DAUTH_BENCH_THREADS
// workers; rows are emitted in sweep order and are byte-identical for any
// thread count. DAUTH_BENCH_SMOKE=1 shrinks the sweep to a seconds-long
// sanitizer-friendly pass (tools/check.sh).
#include <cstdio>
#include <cstdlib>

#include "harness.h"

using namespace dauth;

namespace {

const double kLoads[] = {100, 200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000};
const std::size_t kThresholds[] = {2, 4, 6, 8};

const double kSmokeLoads[] = {200, 800};
const std::size_t kSmokeThresholds[] = {2, 4};

bench::PointResult run_point(std::size_t threshold, double load, std::uint64_t seed,
                             Time duration) {
  bench::DauthOptions options;
  options.scenario = sim::Scenario::kEdgeFiber;
  options.pool_size = 64;
  options.backup_count = 8;
  options.home_offline = true;
  options.config.threshold = threshold;
  options.config.vectors_per_backup = 12;  // enough for one point's window
  options.config.report_interval = 0;
  options.seed = seed;
  bench::DauthBench harness(options);

  auto result = harness.run_load(load, duration);
  const std::string label = "thresh[" + std::to_string(threshold) + "]";
  bench::PointResult out;
  out.text = bench::format_quantiles(label, load, result.latencies);
  if (result.failed > 0) {
    char note[160];
    std::snprintf(note, sizeof note, "  note: %zu failures at %g/min (%s)\n",
                  result.failed, load,
                  result.failures.empty() ? "?" : result.failures.front().c_str());
    out.text += note;
  }
  out.rows.push_back(bench::make_row(label, load, result.latencies));
  return out;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("DAUTH_BENCH_SMOKE") != nullptr;
  bench::print_title("Figure 6: latency vs load across key-share thresholds (8 backups)");
  std::printf("rows: quant,thresh[M],load_per_min,p50,p90,p95,p99 (ms)\n\n");

  std::vector<std::size_t> thresholds(std::begin(kThresholds), std::end(kThresholds));
  std::vector<double> loads(std::begin(kLoads), std::end(kLoads));
  if (smoke) {
    thresholds.assign(std::begin(kSmokeThresholds), std::end(kSmokeThresholds));
    loads.assign(std::begin(kSmokeLoads), std::end(kSmokeLoads));
  }

  std::vector<bench::SweepPoint> points;
  for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
    for (std::size_t li = 0; li < loads.size(); ++li) {
      const std::size_t threshold = thresholds[ti];
      const double load = loads[li];
      // Deterministic per-point seed: stable across runs and thread counts.
      const std::uint64_t seed = 42 + 100 * ti + li;
      const Time duration = smoke ? sec(20) : bench::duration_for(load);
      const bool group_end = li + 1 == loads.size();  // blank line between groups
      points.push_back({"thresh=" + std::to_string(threshold) + " load=" +
                            std::to_string(static_cast<int>(load)),
                        [=] {
                          auto r = run_point(threshold, load, seed, duration);
                          if (group_end) r.text += "\n";
                          return r;
                        }});
    }
  }

  bench::BenchReport report(smoke ? "fig6_threshold_sweep_smoke" : "fig6_threshold_sweep");
  bench::run_sweep(points, &report);
  report.write();
  return 0;
}
