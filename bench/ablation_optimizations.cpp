// Ablation bench for the design choices DESIGN.md calls out:
//   1. gRPC connection re-use between dAuth instances (§5.1 opt. 1)
//   2. the signature-verification memo cache (docs/PERFORMANCE.md): every
//      vector and share of a user's dissemination round re-checks the same
//      signed round root, so disabling the cache pays a full Ed25519 verify
//      per check after the user's first attach
//   3. Open5GS roaming with on-demand vs persistent S6a/N12 connections
// All variants run the same backup-mode workload (edge serving core on
// fiber, 8 backups, threshold 4, 200 registrations/min) on one paired seed,
// so two dAuth rows differ only by the toggle they name; each is an
// independent point on the sweep thread pool.
#include <cstdio>

#include "harness.h"

using namespace dauth;

namespace {

constexpr double kLoad = 200;
const Time kDuration = minutes(2);
constexpr std::uint64_t kSeed = 42;  // shared by every variant: paired arms

struct DauthVariant {
  std::string label;
  bool connection_reuse = true;
  std::size_t verify_cache_entries = 256;
};

bench::PointResult run_dauth_variant(const DauthVariant& v, std::uint64_t seed) {
  bench::DauthOptions options;
  options.scenario = sim::Scenario::kEdgeFiber;
  options.pool_size = 96;
  options.backup_count = 8;
  options.home_offline = true;
  options.rpc.connection_reuse = v.connection_reuse;
  options.config.threshold = 4;
  options.config.verify_cache_entries = v.verify_cache_entries;
  options.config.vectors_per_backup = 16;
  options.config.report_interval = 0;
  options.seed = seed;
  bench::DauthBench harness(options);
  auto result = harness.run_load(kLoad, kDuration);

  bench::PointResult out;
  out.text = bench::format_summary(v.label, result.latencies);
  out.rows.push_back(bench::make_row(v.label, kLoad, result.latencies, "summary"));
  return out;
}

bench::PointResult run_roaming_variant(bool reuse, std::uint64_t seed) {
  bench::BaselineOptions options;
  options.scenario = sim::Scenario::kEdgeFiber;
  options.pool_size = 96;
  options.roaming = true;
  options.core_config.reuse_roaming_connections = reuse;
  options.seed = seed;
  bench::BaselineBench harness(options);
  auto result = harness.run_load(kLoad, kDuration);

  const std::string label =
      reuse ? "roaming, persistent S6a/N12" : "roaming, on-demand S6a/N12";
  bench::PointResult out;
  out.text = bench::format_summary(label, result.latencies);
  out.rows.push_back(bench::make_row(label, kLoad, result.latencies, "summary"));
  return out;
}

}  // namespace

int main() {
  bench::print_title("Ablation: dAuth prototype optimizations (backup mode, 200/min)");

  const DauthVariant variants[] = {
      {"baseline (reuse + hedged ladder + shamir + vcache)"},
      {"no connection reuse", false},
      {"no verification cache", true, 0},
  };

  std::vector<bench::SweepPoint> points;
  for (const DauthVariant& v : variants) {
    points.push_back({v.label, [v] { return run_dauth_variant(v, kSeed); }});
  }
  points.push_back({"roaming header + on-demand", [] {
                      auto r = run_roaming_variant(false, kSeed);
                      r.text = "\nOpen5GS roaming connection handling (same load):\n" +
                               r.text;
                      return r;
                    }});
  points.push_back({"roaming persistent", [] { return run_roaming_variant(true, kSeed); }});

  bench::BenchReport report("ablation_optimizations");
  bench::run_sweep(points, &report);
  report.write();
  return 0;
}
