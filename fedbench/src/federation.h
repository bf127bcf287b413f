// One federation world per workload, built from the public APIs with a
// FIXED placement: the serving core "serving-edge" at the uni-lab RAN site
// (edge-fiber scenario), the home network on "home-pc", and a named list of
// backup networks on Appendix C testbed nodes. The workload seed drives the
// simulator RNG only (arrivals, link jitter, retry jitter, hedge order);
// placement and key material never depend on it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/dauth_node.h"
#include "obs/tracer.h"
#include "ran/ue.h"
#include "sim/failure.h"
#include "sim/rpc.h"
#include "store/kv_store.h"

namespace fedbench {

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> backups;  // testbed node names, one backup each
  std::size_t pool_size = 96;
  std::size_t threshold = 4;
  std::size_t vectors_per_backup = 16;
  double per_minute = 200;           // Poisson open-loop arrival rate
  std::size_t arrivals = 1000;       // fixed count, so every seed offers equal work
  // Home down for the whole load with the serving health cache pre-warmed.
  bool home_offline = false;
  // >0: home down from load start for this long (not announced), then back.
  dauth::Time home_outage = 0;
  // Every message between serving-edge and home-pc is lost for the whole
  // load, so attaches keep the backup path while the home serves backups.
  bool serving_home_partition = false;
  // Backups down for the whole load, announced through the liveness feed.
  std::vector<std::string> announced_outages;
  bool persist = false;              // backups persist to an ephemeral KvStore
  dauth::Time report_interval = 0;   // 0 disables usage reporting

  /// Expected length of the arrival window.
  dauth::Time window() const {
    return static_cast<dauth::Time>(static_cast<double>(arrivals) / per_minute *
                                    static_cast<double>(dauth::kMinute));
  }
};

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// Wall-clock split of the set-up phase, in seconds.
struct SetupTimes {
  double provision_s = 0;    // world construction + subscriber provisioning
  double disseminate_s = 0;  // HomeNetwork::disseminate + Simulator::run
  double total_s = 0;        // construction through the first arrival
};

/// What one load phase produced, as the UEs saw it.
struct LoadLog {
  std::vector<dauth::ran::AttachRecord> records;  // one per attempted attach
  std::size_t skipped_busy = 0;                   // arrivals with no idle UE
  double wall_s = 0;                              // load-phase wall time
  dauth::Time start = 0;                          // virtual span of the phase
  dauth::Time end = 0;
  // Sampled sim::Node::queued_jobs() per watched node at every arrival
  // (Poisson arrivals see time averages); only when sampling was asked for.
  std::vector<std::vector<int>> queue_samples;

  std::uint64_t confirmed() const;  // success && key_confirmed
};

class Federation {
 public:
  /// Builds and provisions the world and disseminates all material; the
  /// constructor is the timed set-up phase. With `trace`, an obs::Tracer
  /// with its own RNG is installed on the RPC layer after dissemination.
  Federation(const WorkloadSpec& spec, std::uint64_t seed, bool trace);
  ~Federation();
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Runs the open-loop arrivals, then the simulator until every attempted
  /// attach has concluded.
  LoadLog run_load(bool sample_queues);

  const WorkloadSpec& spec() const noexcept { return spec_; }
  const SetupTimes& setup() const noexcept { return setup_; }

  dauth::sim::Simulator& simulator() noexcept { return simulator_; }
  dauth::sim::Network& network() noexcept { return network_; }
  dauth::sim::Rpc& rpc() noexcept { return rpc_; }
  dauth::obs::Tracer* tracer() noexcept { return tracer_.get(); }

  dauth::core::DauthNode& home() noexcept { return *home_; }
  dauth::core::DauthNode& serving() noexcept { return *serving_; }
  const std::vector<std::unique_ptr<dauth::core::DauthNode>>& backups() const noexcept {
    return backups_;
  }
  /// Backups not named in announced_outages.
  std::size_t live_backups() const noexcept;
  /// Per-backup stores (empty unless spec.persist).
  const std::vector<std::unique_ptr<dauth::store::KvStore>>& stores() const noexcept {
    return stores_;
  }
  /// Nodes whose busy time and queue depth the traced run reports:
  /// serving-edge, home-pc, then each backup, in that order.
  const std::vector<dauth::sim::NodeIndex>& watched_nodes() const noexcept { return watched_; }

 private:
  WorkloadSpec spec_;
  SetupTimes setup_;
  dauth::sim::Simulator simulator_;
  dauth::sim::Network network_{simulator_};
  dauth::sim::Rpc rpc_{network_};
  dauth::directory::DirectoryServer directory_;
  dauth::Xoshiro256StarStar tracer_rng_;
  std::unique_ptr<dauth::obs::Tracer> tracer_;
  std::vector<std::unique_ptr<dauth::store::KvStore>> stores_;
  std::unique_ptr<dauth::core::DauthNode> home_;
  std::unique_ptr<dauth::core::DauthNode> serving_;
  std::vector<std::unique_ptr<dauth::core::DauthNode>> backups_;
  std::unique_ptr<dauth::sim::FailureInjector> injector_;
  std::vector<std::unique_ptr<dauth::ran::Ue>> ues_;
  std::vector<dauth::sim::NodeIndex> watched_;
  dauth::sim::NodeIndex home_node_ = 0;
  std::size_t round_robin_ = 0;
};

}  // namespace fedbench
