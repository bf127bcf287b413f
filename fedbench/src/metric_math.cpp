#include "metric_math.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace fedbench {

double attempt_quantile(std::vector<double> success_ms, std::size_t failures, double q,
                        double failure_ms) {
  const std::size_t n = success_ms.size() + failures;
  if (n == 0) throw std::invalid_argument("attempt_quantile: no attempts");
  // Nearest rank: the smallest value with at least q*n values at or below
  // it. The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
  const double exact = q * static_cast<double>(n);
  const auto rank = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(exact - 1e-9)));
  if (rank > success_ms.size()) return failure_ms;
  std::nth_element(success_ms.begin(), success_ms.begin() + static_cast<long>(rank - 1),
                   success_ms.end());
  return success_ms[rank - 1];
}

Ratio ratio(double numerator, double base) {
  return {base > 0 ? numerator / base : 0.0, base};
}

Ratio vectors_per_attach(std::uint64_t home_vectors_served,
                         const std::vector<std::uint64_t>& backup_vectors_served,
                         std::uint64_t confirmed_attaches) {
  double handed_out = static_cast<double>(home_vectors_served);
  for (const std::uint64_t v : backup_vectors_served) handed_out += static_cast<double>(v);
  return ratio(handed_out, static_cast<double>(confirmed_attaches));
}

Ratio reports_per_proof(std::uint64_t reports_processed, std::uint64_t backup_successes,
                        std::size_t live_backups) {
  return ratio(static_cast<double>(reports_processed),
               static_cast<double>(backup_successes) * static_cast<double>(live_backups));
}

Ratio share_use_ratio(std::size_t threshold, std::uint64_t backup_successes,
                      std::uint64_t shares_served) {
  return ratio(static_cast<double>(threshold) * static_cast<double>(backup_successes),
               static_cast<double>(shares_served));
}

dauth::Time self_time(Interval span, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, span.start);
    c.end = std::min(c.end, span.end);
  }
  std::erase_if(children, [](const Interval& c) { return c.end <= c.start; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  dauth::Time covered = 0;
  dauth::Time reach = span.start;  // end of the union walked so far
  for (const Interval& c : children) {
    const dauth::Time from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (span.end - span.start) - covered;
}

void add_ratio(std::vector<Metric>& out, const std::string& name, Ratio r,
               const std::string& base_unit) {
  out.push_back({name, r.value, "ratio"});
  out.push_back({name + ".base", r.base, base_unit});
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("metric value is not finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);  // shortest round-trip form
  return std::string(buf, res.ptr);
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace fedbench
