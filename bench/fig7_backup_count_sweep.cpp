// Figure 7 / Figure 10 reproduction: authentication latency quantiles vs
// load for different numbers of configured backup networks ({2,4,6,8},
// key-share threshold 2, backup mode).
//
// Expected shape (§6.4 / Appendix E): tail latency degrades and the system
// saturates at lower load as the number of backups DEcreases — fewer nodes
// to spread vector fetches across. The share round goes to the three
// fastest backups (threshold + 1) plus probes, so with more backups each
// one sees fewer share legs (docs/RESILIENCE.md §5). Figure 10 is the same data unclipped; we print raw
// values, so both views come from these rows.
//
// Each (backup-count, load) point is an independent, deterministically
// seeded simulation run on the sweep thread pool (see fig6 / harness.h).
#include <cstdio>

#include "harness.h"

using namespace dauth;

namespace {

const double kLoads[] = {100, 200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000};
const std::size_t kBackupCounts[] = {2, 4, 6, 8};

bench::PointResult run_point(std::size_t backups, double load, std::uint64_t seed) {
  bench::DauthOptions options;
  options.scenario = sim::Scenario::kEdgeFiber;
  options.pool_size = 64;
  options.backup_count = backups;
  options.home_offline = true;
  options.config.threshold = 2;
  // Constant total vector budget per user regardless of backup count,
  // sized for a single point's measurement window.
  options.config.vectors_per_backup = 96 / backups;
  options.config.report_interval = 0;
  options.seed = seed;
  bench::DauthBench harness(options);

  auto result = harness.run_load(load, bench::duration_for(load));
  const std::string label = "backups[" + std::to_string(backups) + "]";
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
  bench::print_title(
      "Figure 7/10: latency vs load across backup counts (threshold 2)");
  std::printf("rows: quant,backups[N],load_per_min,p50,p90,p95,p99 (ms)\n\n");

  std::vector<bench::SweepPoint> points;
  for (std::size_t bi = 0; bi < std::size(kBackupCounts); ++bi) {
    for (std::size_t li = 0; li < std::size(kLoads); ++li) {
      const std::size_t backups = kBackupCounts[bi];
      const double load = kLoads[li];
      const std::uint64_t seed = 7000 + 100 * bi + li;
      const bool group_end = li + 1 == std::size(kLoads);
      points.push_back({"backups=" + std::to_string(backups) + " load=" +
                            std::to_string(static_cast<int>(load)),
                        [=] {
                          auto r = run_point(backups, load, seed);
                          if (group_end) r.text += "\n";
                          return r;
                        }});
    }
  }

  bench::BenchReport report("fig7_backup_count_sweep");
  bench::run_sweep(points, &report);
  report.write();
  return 0;
}
