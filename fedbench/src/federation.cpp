#include "federation.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "ran/gnb.h"
#include "sim/topology.h"

namespace fedbench {

using namespace dauth;

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// Key material is fixed: only the simulator RNG follows the workload seed.
constexpr std::uint64_t kKeySeed = 42;

// Every core node of the Appendix C testbed except two cloud VMs. The set
// deliberately includes the slow Atom-class "home-b-zotac".
const std::vector<std::string> kBackups = {
    "scn-library",  "scn-community-center", "cloud-azure-uswest2", "cloud-gcp-uscentral1",
    "home-a-zotac", "home-b-zotac",         "uni-qotom",           "uni-zotac"};

Supi pool_supi(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "315010%09zu", index + 1);
  return Supi(buf);
}

sim::NodeIndex node_named(const sim::Network& network, const std::string& name) {
  for (sim::NodeIndex i = 0; i < network.node_count(); ++i) {
    if (network.node(i).name() == name) return i;
  }
  throw std::invalid_argument("no testbed node named " + name);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> w(3);
    w[0].name = "backup_steady";
    w[0].backups = kBackups;
    w[0].vectors_per_backup = 16;
    w[0].per_minute = 200;
    w[0].arrivals = 2000;
    w[0].home_offline = true;

    w[1].name = "home_online";
    w[1].backups = kBackups;
    w[1].vectors_per_backup = 4;
    w[1].per_minute = 1000;
    w[1].arrivals = 6000;

    w[2].name = "churn";
    w[2].backups = kBackups;
    w[2].vectors_per_backup = 8;
    w[2].per_minute = 1000;
    w[2].arrivals = 3000;
    w[2].home_outage = w[2].window() / 2;
    w[2].serving_home_partition = true;
    w[2].announced_outages = {"cloud-azure-uswest2"};
    w[2].persist = true;
    w[2].report_interval = sec(60);
    return w;
  }();
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t LoadLog::confirmed() const {
  std::uint64_t n = 0;
  for (const ran::AttachRecord& r : records) n += (r.success && r.key_confirmed) ? 1 : 0;
  return n;
}

Federation::Federation(const WorkloadSpec& spec, std::uint64_t seed, bool trace)
    : spec_(spec), simulator_(seed), tracer_rng_(seed ^ 0x74726163652d726eULL) {
  const auto t0 = WallClock::now();

  core::FederationConfig config;
  config.backup_count = spec.backups.size();
  config.threshold = spec.threshold;
  config.vectors_per_backup = spec.vectors_per_backup;
  config.report_interval = spec.report_interval;

  // Edge-fiber placement: serving core on an edge PC at the uni-lab RAN
  // site (sub-ms LAN link), home network on a nearby SCN edge PC.
  sim::build_appendix_c_testbed(network_);
  auto dir_cfg = sim::profile(sim::NodeClass::kCloud, "directory");
  dir_cfg.workers = 4;
  const sim::NodeIndex directory_node = network_.add_node(dir_cfg);
  directory_.bind(rpc_, directory_node);
  const sim::NodeIndex ran_node = node_named(network_, "ran-uni-lab");
  const sim::NodeIndex serving_node =
      network_.add_node(sim::profile(sim::NodeClass::kScnEdge, "serving-edge"));
  sim::LatencyModel lan;
  lan.base = usf(250);
  lan.jitter_sigma = 0.05;
  network_.set_link(ran_node, serving_node, lan);
  home_node_ = network_.add_node(sim::profile(sim::NodeClass::kScnEdge, "home-pc"));

  home_ = std::make_unique<core::DauthNode>(rpc_, home_node_, NetworkId("home-net"),
                                            directory_node, directory_, config, kKeySeed + 1);
  serving_ = std::make_unique<core::DauthNode>(rpc_, serving_node, NetworkId("serving-net"),
                                               directory_node, directory_, config,
                                               kKeySeed + 2);
  watched_ = {serving_node, home_node_};
  std::vector<NetworkId> backup_ids;
  for (std::size_t i = 0; i < spec.backups.size(); ++i) {
    const sim::NodeIndex node = node_named(network_, spec.backups[i]);
    store::KvStore* store = nullptr;
    if (spec.persist) {
      stores_.push_back(std::make_unique<store::KvStore>());
      store = stores_.back().get();
    }
    const NetworkId id("backup-" + spec.backups[i]);
    backups_.push_back(std::make_unique<core::DauthNode>(
        rpc_, node, id, directory_node, directory_, config, kKeySeed + 10 + i, store));
    backup_ids.push_back(id);
    watched_.push_back(node);
  }
  home_->set_backups(backup_ids);

  std::vector<aka::SubscriberKeys> keys;
  keys.reserve(spec.pool_size);
  for (std::size_t i = 0; i < spec.pool_size; ++i) {
    keys.push_back(home_->provision_subscriber(pool_supi(i)));
  }
  setup_.provision_s = seconds_since(t0);

  const auto t1 = WallClock::now();
  for (std::size_t i = 0; i < spec.pool_size; ++i) home_->home().disseminate(pool_supi(i));
  simulator_.run();
  setup_.disseminate_s = seconds_since(t1);

  // Tracing covers measured traffic only, and draws span ids from its own
  // generator so a traced run replays the untraced run's virtual timeline.
  if (trace) {
    tracer_ = std::make_unique<obs::Tracer>([this] { return simulator_.now(); }, &tracer_rng_);
    rpc_.set_tracer(tracer_.get());
  }

  const Time load_start = simulator_.now();
  if (spec.home_offline || spec.home_outage > 0) {
    network_.node(home_node_).set_online(false);
    rpc_.reset_connections(home_node_);
  }
  if (spec.home_offline) {
    // Steady state: the one-time home discovery timeout is not measured.
    serving_->serving().set_home_health(home_->id(), false);
  } else if (spec.home_outage > 0) {
    simulator_.at(load_start + spec.home_outage,
                  [this] { network_.node(home_node_).set_online(true); });
  }
  if (spec.serving_home_partition) {
    sim::LatencyModel cut;
    cut.loss = 1.0;
    network_.set_link(serving_node, home_node_, cut);
  }
  if (!spec.announced_outages.empty()) {
    injector_ = std::make_unique<sim::FailureInjector>(network_, &rpc_);
    for (const std::string& name : spec.announced_outages) {
      // Down past the last arrival (a fixed count, so the window varies) and
      // the longest drain the load allows.
      injector_->schedule_outage(node_named(network_, name), load_start,
                                 2 * spec.window() + minutes(10));
    }
  }

  const auto profile = ran::emulated_ran_profile(config.serving_network_name);
  for (std::size_t i = 0; i < spec.pool_size; ++i) {
    ues_.push_back(std::make_unique<ran::Ue>(rpc_, ran_node, serving_node, pool_supi(i),
                                             keys[i], profile));
  }
  setup_.total_s = seconds_since(t0);
}

Federation::~Federation() = default;

std::size_t Federation::live_backups() const noexcept {
  return spec_.backups.size() - spec_.announced_outages.size();
}

LoadLog Federation::run_load(bool sample_queues) {
  const auto t0 = WallClock::now();
  auto log = std::make_shared<LoadLog>();
  log->start = simulator_.now();
  if (sample_queues) log->queue_samples.resize(watched_.size());

  // Poisson arrivals drawn as ran::LoadGenerator draws them, but a fixed
  // count of them. The generator itself is not used because it keeps only
  // aggregate counts, and the correctness check needs every AttachRecord.
  const double mean_interarrival_ns = static_cast<double>(kMinute) / spec_.per_minute;
  std::vector<Time> arrivals;
  double t = 0;
  while (arrivals.size() < spec_.arrivals) {
    double u = simulator_.rng().next_double();
    if (u <= 0.0) u = 1e-12;
    t += -mean_interarrival_ns * std::log(u);
    arrivals.push_back(log->start + static_cast<Time>(t));
  }

  auto concluded = std::make_shared<std::size_t>(0);
  for (const Time when : arrivals) {
    simulator_.at(when, [this, log, concluded, sample_queues] {
      if (sample_queues) {
        for (std::size_t i = 0; i < watched_.size(); ++i) {
          log->queue_samples[i].push_back(network_.node(watched_[i]).queued_jobs());
        }
      }
      ran::Ue* ue = nullptr;
      for (std::size_t i = 0; i < ues_.size() && ue == nullptr; ++i) {
        ran::Ue* candidate = ues_[(round_robin_ + i) % ues_.size()].get();
        if (!candidate->busy()) {
          ue = candidate;
          round_robin_ = (round_robin_ + i + 1) % ues_.size();
        }
      }
      if (ue == nullptr) {
        ++log->skipped_busy;
        return;
      }
      const std::size_t slot = log->records.size();
      log->records.emplace_back();  // stays a failure if it never concludes
      ue->attach([log, concluded, slot](const ran::AttachRecord& record) {
        log->records[slot] = record;
        ++*concluded;
      });
    });
  }

  // Same drain as ran::LoadGenerator: past the window, then until every
  // attach has concluded, in bounded steps so report timers cannot wedge it.
  simulator_.run_until(arrivals.back());
  const Time grace_deadline = simulator_.now() + minutes(2);
  while (*concluded < log->records.size() && simulator_.now() < grace_deadline) {
    simulator_.run_until(simulator_.now() + sec(1));
  }
  log->end = simulator_.now();
  log->wall_s = seconds_since(t0);
  return *log;  // a copy: callbacks still hold the shared log
}

}  // namespace fedbench
