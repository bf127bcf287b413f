// Tier-1 gate for the parallel bench harness (bench/harness.h): a short
// fig6-style sweep must emit byte-identical rows whether it runs on one
// worker thread or several. Every sweep point owns an independent,
// deterministically-seeded simulation, so the only way this can fail is
// shared mutable state leaking between points (or emission following
// completion order instead of submission order) — exactly the regressions
// this test exists to catch.
#include <gtest/gtest.h>

#include "harness.h"

namespace dauth::bench {
namespace {

PointResult run_small_point(std::size_t threshold, double load, std::uint64_t seed) {
  DauthOptions options;
  options.scenario = sim::Scenario::kEdgeFiber;
  options.pool_size = 8;
  options.backup_count = 4;
  options.home_offline = true;
  options.config.threshold = threshold;
  options.config.vectors_per_backup = 8;
  options.config.report_interval = 0;
  options.seed = seed;
  DauthBench harness(options);

  auto result = harness.run_load(load, sec(10));
  const std::string label = "thresh[" + std::to_string(threshold) + "]";
  PointResult out;
  out.text = format_quantiles(label, load, result.latencies);
  out.rows.push_back(make_row(label, load, result.latencies));
  return out;
}

std::vector<SweepPoint> small_sweep() {
  std::vector<SweepPoint> points;
  std::uint64_t seed = 42;
  for (std::size_t threshold : {2u, 4u}) {
    for (double load : {200.0, 600.0}) {
      const std::uint64_t s = seed++;
      // Appended, not "t" + std::to_string(...): GCC 12 at -O3 flags that
      // operator+ with a false -Wrestrict.
      points.push_back({std::string("t").append(std::to_string(threshold)),
                        [threshold, load, s] { return run_small_point(threshold, load, s); }});
    }
  }
  return points;
}

std::string concat_text(const std::vector<PointResult>& results) {
  std::string all;
  for (const auto& r : results) all += r.text;
  return all;
}

TEST(BenchDeterminism, ParallelSweepMatchesSequential) {
  const auto points = small_sweep();
  const auto sequential = run_sweep_collect(points, 1);
  const auto parallel = run_sweep_collect(points, 4);

  ASSERT_EQ(sequential.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());

  const std::string seq_text = concat_text(sequential);
  ASSERT_FALSE(seq_text.empty());
  // Real rows, not error placeholders: every point produced a quant line.
  for (const auto& r : sequential) {
    EXPECT_EQ(r.text.rfind("quant,", 0), 0u) << r.text;
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_GT(r.rows[0].n, 0u);
  }

  EXPECT_EQ(seq_text, concat_text(parallel)) << "parallel sweep diverged";
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(sequential[i].rows[0].p50, parallel[i].rows[0].p50);
    EXPECT_EQ(sequential[i].rows[0].n, parallel[i].rows[0].n);
  }
}

TEST(BenchDeterminism, RepeatedRunsAreStable) {
  // The same sweep executed twice in-process must reproduce itself: lazy
  // global crypto tables and thread-local memo caches may warm up, but
  // simulation results only depend on the per-point seed.
  const auto points = small_sweep();
  const auto first = run_sweep_collect(points, 2);
  const auto second = run_sweep_collect(points, 3);
  EXPECT_EQ(concat_text(first), concat_text(second));
}

TEST(BenchDeterminism, ThrowingPointDoesNotSinkSweep) {
  std::vector<SweepPoint> points;
  points.push_back({"ok", [] {
                      PointResult r;
                      r.text = "fine\n";
                      return r;
                    }});
  points.push_back({"boom", []() -> PointResult {
                      throw std::runtime_error("injected failure");
                    }});
  const auto results = run_sweep_collect(points, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].text, "fine\n");
  EXPECT_NE(results[1].text.find("injected failure"), std::string::npos);
}

}  // namespace
}  // namespace dauth::bench
