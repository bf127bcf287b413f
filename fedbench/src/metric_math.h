// The benchmark's metric arithmetic, kept free of simulator state so the
// self-tests (tests/metric_math_test.cpp) can check it by hand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace fedbench {

/// Nearest-rank quantile over ALL attempts: `success_ms` holds the latency
/// of each key-confirmed success, and `failures` attempts (failed attaches
/// plus busy-skipped arrivals) rank above every success. When the rank
/// lands on a failure the result is `failure_ms` (the UE's attach timeout).
double attempt_quantile(std::vector<double> success_ms, std::size_t failures, double q,
                        double failure_ms);

/// A ratio reported together with its base (the denominator). A zero base
/// gives value 0, and the base row tells the reader the ratio is empty.
struct Ratio {
  double value = 0;
  double base = 0;
};
Ratio ratio(double numerator, double base);

/// §7.3 vector budget: vectors handed out by the home and every backup,
/// per key-confirmed attach.
Ratio vectors_per_attach(std::uint64_t home_vectors_served,
                         const std::vector<std::uint64_t>& backup_vectors_served,
                         std::uint64_t confirmed_attaches);

/// Usage proofs the home ingested per proof it should have received: each
/// successful backup-path attach leaves one proof at every live backup.
Ratio reports_per_proof(std::uint64_t reports_processed, std::uint64_t backup_successes,
                        std::size_t live_backups);

/// Shares the serving network needed (threshold per success) per share the
/// backups released.
Ratio share_use_ratio(std::size_t threshold, std::uint64_t backup_successes,
                      std::uint64_t shares_served);

/// One closed interval of virtual time.
struct Interval {
  dauth::Time start = 0;
  dauth::Time end = 0;
};

/// Self time of a span: its duration minus the part of it covered by the
/// union of its children (each clipped to the parent).
dauth::Time self_time(Interval span, std::vector<Interval> children);

/// One output row: a metric name, its value and unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Appends `name` = r.value and `name.base` = r.base.
void add_ratio(std::vector<Metric>& out, const std::string& name, Ratio r,
               const std::string& base_unit);

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> values);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace fedbench
