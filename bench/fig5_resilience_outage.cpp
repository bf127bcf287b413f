// Figure 5 variant: dAuth backup-mode authentication under an injected
// single-backup outage, with the resilience substrate (docs/RESILIENCE.md)
// enabled vs disabled. Same edge-fiber placement, pool and load levels as
// the Fig. 5 backup points; the only differences are the announced outage
// on one of the eight backups and the policy toggle.
//
// Both arms run the same backup ladder; the toggle is its preset. The
// ablated arm runs core::ResilienceConfig::none() with the breakers off
// (failure_threshold 0), so the ladder is one leg wide, no circuit trips
// and the outage announcement is dropped: an attach whose primary is the
// dead backup burns the full kBackupAuthTimeout and fails. That happens
// until a timed-out share leg has marked the dead backup slow in the
// serving network's RTT estimate: the first share round probes every
// unsampled backup, and a dead one's leg samples the whole timeout. In
// the resilient arm the force-opened breaker sorts the dead backup to the
// back and hedging covers silent stragglers, so the outage is invisible to
// the UE.
//
// Each (load, arm) pair shares one deterministic seed: identical worlds,
// identical arrival processes, policy toggle only. The comparison rows at
// the end of each point carry the headline result (success-rate delta and
// all-attempt p99 ratio) for the perf trajectory.
#include <cstdio>

#include "core/metrics.h"
#include "harness.h"

using namespace dauth;

namespace {

constexpr double kLoads[] = {20, 200, 1000};

Time fig5_duration(double load) { return bench::duration_for(load, 240.0, 1.5, 10.0); }

struct ArmOutcome {
  ran::LoadResult load;
  core::ServingMetrics metrics;
};

ArmOutcome run_arm(double load, bool resilient, std::uint64_t seed) {
  bench::DauthOptions options;
  options.scenario = sim::Scenario::kEdgeFiber;
  options.pool_size = 64;
  options.backup_count = 8;
  options.home_offline = true;
  options.config.threshold = 4;
  options.config.vectors_per_backup = 10;
  options.config.report_interval = 0;  // home stays down
  if (!resilient) {
    options.config.resilience = core::ResilienceConfig::none();
    options.rpc.breaker.failure_threshold = 0;
  }
  options.backup_outages = 1;
  options.outage_start = 0;
  options.outage_duration = hours(12);  // outlasts any measurement window
  options.seed = seed;
  bench::DauthBench harness(options);
  ArmOutcome out;
  out.load = harness.run_load(load, fig5_duration(load));
  out.metrics = harness.serving_metrics();
  return out;
}

bench::ReportRow scalar_row(const std::string& series, double value) {
  bench::ReportRow row;
  row.series = series;
  row.kind = "scalar";
  row.value = value;
  return row;
}

double success_rate(const ran::LoadResult& r) {
  return r.attempted == 0 ? 0.0
                          : static_cast<double>(r.succeeded) /
                                static_cast<double>(r.attempted);
}

bench::PointResult run_outage_point(double load, std::uint64_t seed) {
  auto on = run_arm(load, /*resilient=*/true, seed);
  auto off = run_arm(load, /*resilient=*/false, seed);

  const std::string suffix = ",edge-fiber,load=" + std::to_string(static_cast<int>(load));
  const std::string on_label = "outage-resilient" + suffix;
  const std::string off_label = "outage-ablated" + suffix;

  bench::PointResult out;
  char line[256];
  std::snprintf(line, sizeof line, "\n== %d registrations per minute, 1 of 8 backups down ==\n",
                static_cast<int>(load));
  out.text = line;
  out.text += bench::format_summary(on_label, on.load.attempt_latencies);
  out.text += bench::format_summary(off_label, off.load.attempt_latencies);
  std::snprintf(line, sizeof line,
                "  success: resilient %zu/%zu (%.1f%%)  ablated %zu/%zu (%.1f%%)\n",
                on.load.succeeded, on.load.attempted, 100.0 * success_rate(on.load),
                off.load.succeeded, off.load.attempted, 100.0 * success_rate(off.load));
  out.text += line;
  std::snprintf(line, sizeof line,
                "  resilient counters: retries=%llu hedges=%llu hedge_wins=%llu "
                "breaker_opens=%llu breaker_skips=%llu fast_failures=%llu\n",
                static_cast<unsigned long long>(on.metrics.retries),
                static_cast<unsigned long long>(on.metrics.hedges_launched),
                static_cast<unsigned long long>(on.metrics.hedge_wins),
                static_cast<unsigned long long>(on.metrics.breaker_opens),
                static_cast<unsigned long long>(on.metrics.breaker_skips),
                static_cast<unsigned long long>(on.metrics.fast_failures));
  out.text += line;

  // Successful-attach latencies (comparable to the plain Fig. 5 rows) and
  // all-attempt latencies (failures included, where the outage tail lives).
  out.rows.push_back(bench::make_row(on_label, load, on.load.latencies, "summary"));
  out.rows.push_back(bench::make_row(off_label, load, off.load.latencies, "summary"));
  out.rows.push_back(
      bench::make_row(on_label + ",attempts", load, on.load.attempt_latencies, "quantiles"));
  out.rows.push_back(
      bench::make_row(off_label + ",attempts", load, off.load.attempt_latencies, "quantiles"));

  out.rows.push_back(scalar_row(on_label + ":success_rate", success_rate(on.load)));
  out.rows.push_back(scalar_row(off_label + ":success_rate", success_rate(off.load)));
  for (const auto& [name, value] :
       {std::pair<const char*, std::uint64_t>{"retries", on.metrics.retries},
        {"hedges_launched", on.metrics.hedges_launched},
        {"hedge_wins", on.metrics.hedge_wins},
        {"breaker_opens", on.metrics.breaker_opens},
        {"breaker_skips", on.metrics.breaker_skips},
        {"fast_failures", on.metrics.fast_failures}}) {
    out.rows.push_back(
        scalar_row(on_label + ":" + name, static_cast<double>(value)));
  }

  // Headline comparison rows: positive delta / ratio > 1 means the
  // resilience layer wins under the outage.
  const double on_p99 = on.load.attempt_latencies.quantile(0.99);
  const double off_p99 = off.load.attempt_latencies.quantile(0.99);
  out.rows.push_back(scalar_row("outage-comparison" + suffix + ":success_rate_delta",
                                success_rate(on.load) - success_rate(off.load)));
  out.rows.push_back(scalar_row("outage-comparison" + suffix + ":attempt_p99_ratio",
                                on_p99 > 0 ? off_p99 / on_p99 : 0.0));
  std::snprintf(line, sizeof line,
                "  comparison: success_rate_delta=%+.3f  attempt_p99 %0.1fms -> %0.1fms\n",
                success_rate(on.load) - success_rate(off.load), off_p99, on_p99);
  out.text += line;
  return out;
}

}  // namespace

int main() {
  bench::print_title(
      "Figure 5 variant: backup mode under a single-backup outage, resilience on/off");

  std::vector<bench::SweepPoint> points;
  for (std::size_t li = 0; li < std::size(kLoads); ++li) {
    const double load = kLoads[li];
    const std::uint64_t seed = 9000 + 100 * li;
    points.push_back({"outage load=" + std::to_string(static_cast<int>(load)),
                      [=] { return run_outage_point(load, seed); }});
  }

  bench::BenchReport report("fig5_resilience_outage");
  bench::run_sweep(points, &report);
  report.write();
  return 0;
}
