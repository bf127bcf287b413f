// Self-tests of the benchmark's metric math. Plain executable: prints one
// line per failed check and exits non-zero if any failed.
#include <cmath>
#include <cstdio>
#include <string>

#include "layers.h"
#include "metric_math.h"

using namespace fedbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void test_failures_rank_slowest() {
  // 1..10 ms successes, no failures: nearest rank.
  std::vector<double> ok;
  for (int i = 10; i >= 1; --i) ok.push_back(i);
  expect_near(attempt_quantile(ok, 0, 0.5, 1e9), 5, "p50 of 1..10");
  expect_near(attempt_quantile(ok, 0, 0.9, 1e9), 9, "p90 of 1..10");
  expect_near(attempt_quantile(ok, 0, 0.99, 1e9), 10, "p99 of 1..10");
  expect_near(attempt_quantile(ok, 0, 0.0, 1e9), 1, "p0 is the minimum");

  // Ten successes plus ten failures: the upper half reads as the timeout,
  // however fast the failures happened.
  expect_near(attempt_quantile(ok, 10, 0.5, 15000), 10, "p50 with half failed");
  expect_near(attempt_quantile(ok, 10, 0.55, 15000), 15000, "p55 with half failed");

  // 0.99 * 1000 must pick rank 990, not 991.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect_near(attempt_quantile(thousand, 0, 0.99, 1e9), 990, "p99 of 1..1000");
  thousand.pop_back();
  expect_near(attempt_quantile(thousand, 1, 0.99, 1e9), 990, "p99 with the top one failed");
  expect_near(attempt_quantile(thousand, 11, 0.99, -1), -1, "p99 with 11 of 1010 failed");

  // Only failures.
  expect_near(attempt_quantile({}, 3, 0.5, 15000), 15000, "all failed");
}

void test_ratios_carry_their_base() {
  const Ratio r = ratio(3, 4);
  expect_near(r.value, 0.75, "3/4");
  expect_near(r.base, 4, "base of 3/4");
  const Ratio empty = ratio(5, 0);
  expect_near(empty.value, 0, "empty ratio reads 0");
  expect_near(empty.base, 0, "empty ratio keeps base 0");

  std::vector<Metric> rows;
  add_ratio(rows, "core.serving.hedge_win_ratio", ratio(2, 8), "count");
  expect(rows.size() == 2, "add_ratio emits two rows");
  expect(rows[0].name == "core.serving.hedge_win_ratio" && rows[0].unit == "ratio",
         "ratio row");
  expect(rows[1].name == "core.serving.hedge_win_ratio.base" && rows[1].unit == "count",
         "base row");
  expect_near(rows[0].value, 0.25, "ratio row value");
  expect_near(rows[1].value, 8, "base row value");

  const Ratio vpa = vectors_per_attach(10, {3, 0, 7}, 16);
  expect_near(vpa.value, 20.0 / 16, "vectors_per_attach");
  expect_near(vpa.base, 16, "vectors_per_attach base");
  const Ratio rpp = reports_per_proof(42, 6, 7);
  expect_near(rpp.value, 1.0, "reports_per_proof");
  expect_near(rpp.base, 42, "reports_per_proof base");
  const Ratio use = share_use_ratio(4, 10, 80);
  expect_near(use.value, 0.5, "share_use_ratio");
  expect_near(use.base, 80, "share_use_ratio base");
}

void test_self_time() {
  // Parent [0,100]; children [10,30] and [20,50] overlap (union 40) and
  // [90,120] is clipped to [90,100]: self = 100 - 40 - 10.
  expect(self_time({0, 100}, {{10, 30}, {20, 50}, {90, 120}}) == 50, "self time");
  expect(self_time({0, 100}, {}) == 100, "leaf self time");
  expect(self_time({0, 100}, {{0, 100}, {10, 20}}) == 0, "fully covered");
}

void test_median_and_json() {
  expect_near(median({3, 1, 2}), 2, "odd median");
  expect_near(median({4, 1, 3, 2}), 2.5, "even median");
  const std::string json =
      result_json(true, 12, 0, {{"setup_s", 0.8127, "s"}, {"latency_ms", 1.25, "ms"}});
  expect(json ==
             "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
             "{\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"latency_ms\": "
             "{\"value\": 1.25, \"unit\": \"ms\"}}}",
         "result json: " + json);
}

// A federation small enough to count by hand: two fast backups, threshold
// 2, two UEs, three attaches. The serving network cannot reach the home,
// so every attach takes the backup path: one vector from one backup, and
// one share from each backup. Each backup then reports one proof per
// attach to the (otherwise healthy) home.
void test_tiny_federation() {
  WorkloadSpec spec;
  spec.name = "tiny";
  spec.backups = {"uni-qotom", "uni-zotac"};
  spec.pool_size = 2;
  spec.threshold = 2;
  spec.vectors_per_backup = 2;
  spec.per_minute = 10;
  spec.arrivals = 3;
  spec.serving_home_partition = true;
  spec.report_interval = dauth::sec(10);

  Federation fed(spec, 7, /*trace=*/false);
  const Counters before = snapshot(fed);
  const LoadLog log = fed.run_load(/*sample_queues=*/false);
  fed.simulator().run_until(fed.simulator().now() + dauth::minutes(1));  // reports land
  const Counters after = snapshot(fed);

  const VirtualSummary v = summarize(log, before, after);
  expect(v.attempted == 3 && v.confirmed == 3 && v.failed() == 0, "tiny: 3 of 3 confirmed");
  std::uint64_t backup_vectors = 0, shares = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    backup_vectors += after.backups[i].vectors_served - before.backups[i].vectors_served;
    shares += after.backups[i].shares_served - before.backups[i].shares_served;
  }
  expect(after.home.vectors_served == before.home.vectors_served, "tiny: home served none");
  expect(backup_vectors == 3, "tiny: one vector per attach");
  expect(shares == 6, "tiny: one share per backup per attach");
  expect_near(v.vectors_per_attach, 1.0, "tiny: vectors_per_attach = 3 / 3");

  expect(fed.live_backups() == 2, "tiny: both backups live");
  const Ratio rpp =
      reports_per_proof(after.home.reports_processed - before.home.reports_processed,
                        v.confirmed, fed.live_backups());
  expect_near(rpp.base, 6, "tiny: reports_per_proof base = 3 attaches x 2 backups");
  expect_near(rpp.value, 1.0, "tiny: reports_per_proof = 6 / 6");
  expect_near(share_use_ratio(spec.threshold, v.confirmed, shares).value, 1.0,
              "tiny: share_use_ratio = 2 x 3 / 6");
}

}  // namespace

int main() {
  test_failures_rank_slowest();
  test_ratios_carry_their_base();
  test_self_time();
  test_median_and_json();
  test_tiny_federation();
  if (failures == 0) std::printf("fedbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
