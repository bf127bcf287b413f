// Shared bench harness: builds the paper's evaluation scenarios on the
// Appendix C testbed and drives load against dAuth or the Open5GS baseline.
//
// Placement per §6.3.1 scenario:
//   * RAN site: uni-lab (fiber) or home-A (residential cable);
//   * serving core: an "edge PC" added at the RAN site (sub-ms link), or a
//     "cloud host" node ~5ms RTT from the RAN site;
//   * dAuth home network: a nearby SCN edge PC on fiber;
//   * Open5GS roaming home HSS: a cloud node ~5ms RTT away (§6.3.2).
//
// Concurrency calibration: the Open5GS AMF/AUSF path is a single-threaded
// event loop, so baseline core nodes run with one worker; dAuth daemons
// (async Tonic runtime in the paper's prototype) use the node's full worker
// pool. This is what produces the load-sharing crossover of Figures 4/5.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <functional>

#include "baseline/standalone_core.h"
#include "core/federation_spec.h"
#include "ran/gnb.h"
#include "ran/load_generator.h"
#include "report.h"
#include "sim/topology.h"

namespace dauth::obs {
class EventJournal;
class MetricsRegistry;
class Tracer;
}  // namespace dauth::obs

namespace dauth::bench {

/// Which nodes may serve as backup networks.
enum class BackupPool {
  kAllCoreNodes,  // Fig. 5-7: random among all 10 core nodes
  kNonCloud,      // Fig. 3: the 6 SCN/uni/residential nodes (incl. slow Atom)
};

struct DauthOptions {
  sim::Scenario scenario = sim::Scenario::kEdgeFiber;
  core::FederationConfig config;
  std::size_t backup_count = 8;
  BackupPool backup_pool = BackupPool::kAllCoreNodes;
  std::size_t pool_size = 128;       // provisioned subscribers / UEs
  bool home_offline = false;         // backup-mode experiments
  bool home_is_serving = false;      // Fig. 3 "dAuth-home-online" (local)
  bool physical_ran = false;         // srsUE profile instead of UERANSIM
  // Transport: connection re-use (§5.1 optimization 1) and the circuit
  // breakers; the ablation arms turn either off by value.
  sim::RpcConfig rpc;
  // Announced backup outages (resilience benches, docs/RESILIENCE.md): the
  // first `backup_outages` backup networks go down `outage_start` after
  // dissemination for `outage_duration`. The FailureInjector's liveness feed
  // force-opens circuits toward them, so the breakers skip them instantly;
  // with the breakers off (rpc.breaker.failure_threshold = 0) the hint is
  // dropped and the load pays the discovery timeouts.
  std::size_t backup_outages = 0;
  Time outage_start = 0;
  Time outage_duration = 0;
  // Full observability stack (src/obs/): tracer on the RPC layer plus a
  // metrics registry and event journal on every node, installed after
  // dissemination so the record covers only measured traffic. Off by
  // default — the disabled path is a single null-pointer test per call
  // site, so benches without --trace measure the same code they always did.
  bool trace = false;
  std::uint64_t seed = 42;
};

/// A complete dAuth federation bench scenario.
class DauthBench {
 public:
  explicit DauthBench(const DauthOptions& options);
  ~DauthBench();

  /// Open-loop load (Fig. 4-7).
  ran::LoadResult run_load(double per_minute, Time duration);

  /// One sequential attach with the single srsUE-style UE (Fig. 3).
  ran::AttachRecord single_attach();

  const core::ServingMetrics& serving_metrics() const;
  sim::Simulator& simulator();
  /// The federation the options declare.
  const core::FederationWorld& world() const;

  /// Observability handles; null unless DauthOptions::trace was set.
  obs::Tracer* tracer();
  obs::MetricsRegistry* metrics_registry();
  obs::EventJournal* journal();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct BaselineOptions {
  sim::Scenario scenario = sim::Scenario::kEdgeFiber;
  bool roaming = false;  // true: subscribers homed at a ~5ms-RTT cloud HSS
  baseline::StandaloneCoreConfig core_config;
  std::size_t pool_size = 128;
  bool physical_ran = false;
  std::uint64_t seed = 42;
};

/// The Open5GS-like comparison system on the same topology.
class BaselineBench {
 public:
  explicit BaselineBench(const BaselineOptions& options);
  ~BaselineBench();

  ran::LoadResult run_load(double per_minute, Time duration);
  ran::AttachRecord single_attach();
  sim::Simulator& simulator();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- Sweep scheduling -------------------------------------------------------

/// Standard per-point measurement window: run long enough at low load to
/// collect ~`target_arrivals` samples, clamped to [min_minutes, max_minutes]
/// so low-load points don't run for hours and high-load points still reach
/// queueing steady state. Hoisted from the per-figure copies: the 11-point
/// sweeps (Fig. 6/7) use the defaults, the 3-load comparisons (Fig. 4/5)
/// pass a wider clamp.
Time duration_for(double per_minute, double target_arrivals = 300.0,
                  double min_minutes = 0.75, double max_minutes = 3.0);

/// What one sweep point hands back: text printed verbatim (in submission
/// order) plus structured rows for the BENCH_<name>.json record.
struct PointResult {
  std::string text;
  std::vector<ReportRow> rows;
};

/// One independently runnable sweep point. `run` must be self-contained: it
/// builds its own bench world from a deterministic per-point seed and MUST
/// NOT touch state shared with other points, because points execute on any
/// worker thread in any order. Output stays byte-identical for any thread
/// count since emission follows the submission order, not completion order.
struct SweepPoint {
  std::string name;  // progress label (stderr only)
  std::function<PointResult()> run;
};

/// Number of worker threads a sweep will use: $DAUTH_BENCH_THREADS if set,
/// else the hardware concurrency (at least 1).
int sweep_threads();

/// Runs every point on `threads` workers (0 = sweep_threads()) and returns
/// the results in submission order. A throwing point yields a PointResult
/// whose text carries the error; it never takes down the sweep.
std::vector<PointResult> run_sweep_collect(const std::vector<SweepPoint>& points,
                                           int threads = 0);

/// run_sweep_collect + prints each result's text to stdout in order and,
/// when `report` is non-null, appends each result's rows in order.
void run_sweep(const std::vector<SweepPoint>& points, BenchReport* report,
               int threads = 0);

// ---- Output helpers ---------------------------------------------------------
//
// Each print_* helper has a format_* twin returning the same bytes as a
// string, so sweep points can defer emission to the ordered printer.

/// Prints "# <title>" and a separator.
void print_title(const std::string& title);

/// "<label>  n=... p50=... ..." summary line.
std::string format_summary(const std::string& label, SampleSet& samples);
void print_summary(const std::string& label, SampleSet& samples);

/// Empirical CDF as "cdf,<label>,<ms>,<fraction>" rows.
std::string format_cdf(const std::string& label, SampleSet& samples,
                       std::size_t points = 20);
void print_cdf(const std::string& label, SampleSet& samples, std::size_t points = 20);

/// Boxplot stats: "box,<label>,min,q1,median,q3,p95,max".
std::string format_boxplot(const std::string& label, SampleSet& samples);
void print_boxplot(const std::string& label, SampleSet& samples);

/// Quantile row "quant,<label>,<load>,p50,p90,p95,p99".
std::string format_quantiles(const std::string& label, double load_per_minute,
                             SampleSet& samples);
void print_quantiles(const std::string& label, double load_per_minute, SampleSet& samples);

}  // namespace dauth::bench
