// End-to-end and per-layer metrics of one federation run. Counters come from
// the layers' public accessors (deltas over the load phase); per-layer wall
// costs come from timing each layer's public functions on representative
// inputs. Nothing here instruments the program itself.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "federation.h"
#include "metric_math.h"

namespace fedbench {

/// Cumulative counters read through the layers' public accessors.
struct Counters {
  std::size_t events = 0;
  std::uint64_t msgs = 0, bytes = 0, drops = 0;
  std::uint64_t calls = 0, timeouts = 0, retries = 0, handshakes = 0;
  std::vector<dauth::Time> busy;  // per watched node
  std::vector<std::size_t> jobs;  // per watched node
  dauth::core::ServingMetrics serving;
  dauth::core::HomeMetrics home;
  std::vector<dauth::core::BackupMetrics> backups;
  std::size_t store_keys = 0;
};
Counters snapshot(Federation& fed);

/// The virtual-time end-to-end numbers of one run: a pure function of the
/// seed and the code, so repeated and traced runs must match exactly.
struct VirtualSummary {
  std::uint64_t attempted = 0;     // attaches started
  std::uint64_t skipped_busy = 0;  // arrivals with no idle UE
  std::uint64_t confirmed = 0;     // key-confirmed successes
  double p50_ms = 0, p90_ms = 0, p99_ms = 0;
  double success_ratio = 0;
  double vectors_per_attach = 0;

  std::uint64_t failed() const { return attempted + skipped_busy - confirmed; }
  bool operator==(const VirtualSummary&) const = default;
};
VirtualSummary summarize(const LoadLog& log, const Counters& before, const Counters& after);

/// Wall-clock figures the per-layer rows need from the untraced runs.
struct WallFigures {
  double setup_s = 0;
  double provision_s = 0;
  double disseminate_s = 0;
  double load_wall_s = 0;        // untraced
  double traced_load_wall_s = 0;
};

/// Every per-layer row, from one traced run (`fed` after its load) plus
/// micro-timings of the crypto, aka, wire and store layers.
std::vector<Metric> layer_metrics(Federation& fed, const LoadLog& log, const Counters& before,
                                  const Counters& after, const WallFigures& wall);

}  // namespace fedbench
