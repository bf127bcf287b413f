// Machine-readable bench output: every bench binary appends its result rows
// to a BenchReport and writes a BENCH_<name>.json file next to the text
// output, seeding the perf-trajectory tracking (docs/PERFORMANCE.md).
//
// The JSON record carries enough to compare runs across commits: the bench
// name, the commit checked out when the record was written and whether
// tracked files differed from it (dirty), the simulation seeds the process
// ran, thread count, total wall-clock, and one structured row per printed
// text row (series label, sweep coordinate, sample count, latency
// quantiles in milliseconds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace dauth::bench {

/// One structured result row, mirroring one printed text row.
struct ReportRow {
  std::string series;              // e.g. "thresh[4]" or "dauth,edge-fiber"
  std::string kind = "quantiles";  // "quantiles" | "summary" | "box" | "scalar"
  double x = 0;                    // sweep coordinate (load/min, threshold, ...)
  std::size_t n = 0;               // sample count (0 for "scalar" rows)
  double p50 = 0, p90 = 0, p95 = 0, p99 = 0;
  double mean = 0, min = 0, max = 0;
  double value = 0;  // "scalar" rows: the single reported number
};

/// Records that a simulated bench world was built from `seed` (DauthBench
/// and BaselineBench call this). Thread-safe; every record written later in
/// the process stamps the sorted set of seeds noted so far.
void note_seed(std::uint64_t seed);

/// Builds a quantile/summary row from a sample set (values in ms).
ReportRow make_row(const std::string& series, double x, SampleSet& samples,
                   const std::string& kind = "quantiles");

/// Collects rows and writes BENCH_<name>.json. Wall-clock is measured from
/// construction to write().
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  void add(ReportRow row);
  void add_scalar(const std::string& series, double value);
  void set_threads(int threads) { threads_ = threads; }

  /// Attaches a MetricsRegistry::to_json() object; emitted verbatim as the
  /// record's "registry" member so counter/histogram summaries ride along
  /// with the quantile rows. Empty (the default) omits the member.
  void set_registry_json(std::string json) { registry_json_ = std::move(json); }

  /// Writes BENCH_<name>.json into $DAUTH_BENCH_OUT (or the current
  /// directory) and returns the path; returns "" on I/O failure.
  std::string write() const;

 private:
  std::string name_;
  std::string registry_json_;
  int threads_ = 1;
  double start_monotonic_;  // seconds, steady clock
  std::vector<ReportRow> rows_;
};

}  // namespace dauth::bench
