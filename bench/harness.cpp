#include "harness.h"

#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "sim/failure.h"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace dauth::bench {
namespace {

struct Placement {
  sim::Testbed testbed;
  sim::NodeIndex ran_node = 0;
  sim::NodeIndex serving_node = 0;
};

/// Adds the scenario-dependent nodes and links to a network that already
/// exists; `serving_workers` lets the baseline model Open5GS's
/// single-threaded core.
Placement build_placement(sim::Network& network, sim::Scenario scenario,
                          int serving_workers) {
  Placement p;
  p.testbed = sim::build_appendix_c_testbed(network);

  // The dAuth directory's node; the baseline adds it too, so both systems
  // number the nodes alike.
  auto dir_cfg = sim::profile(sim::NodeClass::kCloud, "directory");
  dir_cfg.workers = 4;
  network.add_node(dir_cfg);

  p.ran_node = sim::is_residential(scenario) ? p.testbed.ran_sites[0]   // home-A
                                             : p.testbed.ran_sites[1];  // uni-lab

  if (sim::is_cloud(scenario)) {
    auto cfg = sim::profile(sim::NodeClass::kCloud, "serving-cloud");
    cfg.workers = serving_workers;
    p.serving_node = network.add_node(cfg);
    if (!sim::is_residential(scenario)) {
      // Fiber RAN site ~5ms RTT from its nearby datacenter region; the
      // residential site keeps its natural (cable last-mile) path.
      sim::LatencyModel dc_link;
      dc_link.base = msf(2.5);
      dc_link.jitter_sigma = 0.15;
      network.set_link(p.ran_node, p.serving_node, dc_link);
    }
  } else {
    auto cfg = sim::profile(sim::is_residential(scenario)
                                ? sim::NodeClass::kResidentialEdge
                                : sim::NodeClass::kScnEdge,
                            "serving-edge");
    cfg.workers = serving_workers;
    p.serving_node = network.add_node(cfg);
    // The edge PC sits at the RAN site: sub-millisecond LAN link.
    sim::LatencyModel lan;
    lan.base = usf(250);
    lan.jitter_sigma = 0.05;
    network.set_link(p.ran_node, p.serving_node, lan);
  }
  return p;
}

Supi pool_supi(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "315010%09zu", index + 1);
  return Supi(buf);
}

}  // namespace

// ---- DauthBench -------------------------------------------------------------

namespace {

/// The scenario's federation: home-net (keys seed + 1), serving-net
/// (seed + 2, absent when the home serves) and `backup_count` backups drawn
/// from the pool (seed + 10 + rank), the whole UE pool homed at home-net.
core::FederationSpec dauth_spec(const DauthOptions& opts) {
  core::FederationSpec spec;
  spec.config = opts.config;
  spec.seed = opts.seed;
  spec.rpc = opts.rpc;
  spec.topology = [opts](sim::Network& network, core::FederationSpec& s) {
    const Placement placement = build_placement(network, opts.scenario, /*serving_workers=*/2);
    s.ran_node = network.node(placement.ran_node).name();

    // Home network: colocated with the serving core (Fig. 3 local mode) or
    // a nearby SCN edge PC on fiber.
    const std::string serving = network.node(placement.serving_node).name();
    std::string home = serving;
    if (!opts.home_is_serving) {
      home = "home-pc";
      network.add_node(sim::profile(sim::NodeClass::kScnEdge, home));
    }
    s.networks.push_back({NetworkId("home-net"), home, opts.seed + 1});
    if (!opts.home_is_serving) {
      s.networks.push_back({NetworkId("serving-net"), serving, opts.seed + 2});
    }

    // Backup networks on testbed core nodes.
    std::vector<sim::NodeIndex> candidates;
    if (opts.backup_pool == BackupPool::kNonCloud) {
      for (auto n : placement.testbed.scn_edges) candidates.push_back(n);
      for (auto n : placement.testbed.residential) candidates.push_back(n);
      for (auto n : placement.testbed.uni_lab) candidates.push_back(n);
    } else {
      candidates = placement.testbed.core_nodes();
    }
    // Deterministic shuffle ("8 random backups", §6.3.2 / Fig. 5).
    auto& rng = network.simulator().rng();
    for (std::size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1], candidates[rng.next_below(i)]);
    }
    core::HomeSpec declared{NetworkId("home-net"), {}, {}};
    const std::size_t count = std::min(opts.backup_count, candidates.size());
    for (std::size_t i = 0; i < count; ++i) {
      const std::string& node = network.node(candidates[i]).name();
      const NetworkId id("backup-" + node);
      s.networks.push_back({id, node, opts.seed + 10 + i});
      declared.backups.push_back(id);
    }
    for (std::size_t i = 0; i < opts.pool_size; ++i) declared.subscribers.push_back(pool_supi(i));
    s.homes.push_back(std::move(declared));
  };
  return spec;
}

}  // namespace

struct DauthBench::Impl {
  DauthOptions options;
  std::unique_ptr<core::FederationWorld> world;
  std::unique_ptr<sim::FailureInjector> injector;
  std::vector<std::unique_ptr<ran::Ue>> ues;
  std::unique_ptr<ran::LoadGenerator> generator;
  // Span ids come from their own stream: drawn from the simulator's RNG,
  // every span would shift the simulation it traces.
  Xoshiro256StarStar tracer_rng;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::EventJournal> journal;

  explicit Impl(const DauthOptions& opts)
      : options(opts), tracer_rng(opts.seed ^ 0x74726163652d726eULL) {
    note_seed(opts.seed);
    world = core::build(dauth_spec(opts));
    sim::Simulator& simulator = world->simulator;
    simulator.run();  // complete all dissemination

    // Observability goes live only now, so spans/events/counters describe
    // measured attaches rather than the provisioning storm.
    if (opts.trace) {
      tracer = std::make_unique<obs::Tracer>([&simulator] { return simulator.now(); },
                                             &tracer_rng);
      registry = std::make_unique<obs::MetricsRegistry>();
      journal = std::make_unique<obs::EventJournal>([&simulator] { return simulator.now(); });
      world->rpc.set_tracer(tracer.get());
      for (auto& net : world->nets) net->set_observability(registry.get(), journal.get());
    }

    if (opts.home_offline) {
      world->network.node(home().node()).set_online(false);
      world->rpc.reset_connections(home().node());
      // Pre-warm the health cache: steady-state backup-mode measurements
      // shouldn't include the one-time 800ms discovery timeout.
      if (!opts.home_is_serving) serving().serving().set_home_health(home().id(), false);
    }

    // Announced backup outages: the injector's liveness feed force-opens the
    // circuits toward the dead nodes at outage start, so the breakers (unless
    // turned off) never burn a timeout discovering them.
    if (opts.backup_outages > 0) {
      injector = std::make_unique<sim::FailureInjector>(world->network, &world->rpc);
      const std::size_t first = first_backup();
      const std::size_t down = std::min(opts.backup_outages, world->nets.size() - first);
      for (std::size_t i = 0; i < down; ++i) {
        injector->schedule_outage(world->net(first + i).node(),
                                  simulator.now() + opts.outage_start, opts.outage_duration);
      }
    }

    // UE pool on the RAN site, attached to the serving core.
    const auto profile = world->ue_profile(opts.physical_ran);
    for (std::size_t i = 0; i < opts.pool_size; ++i) {
      ues.push_back(world->make_ue(pool_supi(i), serving().node(), profile));
    }
    std::vector<ran::Ue*> pool;
    for (auto& ue : ues) pool.push_back(ue.get());
    generator = std::make_unique<ran::LoadGenerator>(simulator, std::move(pool));
  }

  core::DauthNode& home() { return world->net(0); }
  /// The network the UEs attach to: the home itself in Fig. 3 local mode.
  core::DauthNode& serving() { return world->net(options.home_is_serving ? 0 : 1); }
  std::size_t first_backup() const { return options.home_is_serving ? 1 : 2; }
};

DauthBench::DauthBench(const DauthOptions& options) : impl_(std::make_unique<Impl>(options)) {}
DauthBench::~DauthBench() = default;

ran::LoadResult DauthBench::run_load(double per_minute, Time duration) {
  return impl_->generator->run(per_minute, duration, /*poisson=*/true);
}

ran::AttachRecord DauthBench::single_attach() {
  std::optional<ran::AttachRecord> record;
  impl_->ues.front()->attach([&](const ran::AttachRecord& r) { record = r; });
  // Drain with run_until so any armed report retries don't wedge us.
  sim::Simulator& simulator = impl_->world->simulator;
  const Time deadline = simulator.now() + sec(30);
  while (!record && simulator.now() < deadline) {
    simulator.run_until(simulator.now() + ms(100));
  }
  if (!record) throw std::runtime_error("single_attach never completed");
  return *record;
}

const core::ServingMetrics& DauthBench::serving_metrics() const {
  return impl_->serving().serving().metrics();
}

sim::Simulator& DauthBench::simulator() { return impl_->world->simulator; }
const core::FederationWorld& DauthBench::world() const { return *impl_->world; }

obs::Tracer* DauthBench::tracer() { return impl_->tracer.get(); }
obs::MetricsRegistry* DauthBench::metrics_registry() { return impl_->registry.get(); }
obs::EventJournal* DauthBench::journal() { return impl_->journal.get(); }

// ---- BaselineBench ----------------------------------------------------------

struct BaselineBench::Impl {
  BaselineOptions options;
  sim::Simulator simulator;
  sim::Network network{simulator};
  sim::Rpc rpc{network};
  Placement placement;
  std::unique_ptr<baseline::StandaloneCore> serving_core;
  std::unique_ptr<baseline::StandaloneCore> home_core;  // roaming only
  std::vector<std::unique_ptr<ran::Ue>> ues;
  std::unique_ptr<ran::LoadGenerator> generator;

  explicit Impl(const BaselineOptions& opts) : options(opts), simulator(opts.seed) {
    note_seed(opts.seed);
    // Open5GS's auth path is single-threaded: one worker.
    placement = build_placement(network, opts.scenario, /*serving_workers=*/1);

    serving_core = std::make_unique<baseline::StandaloneCore>(
        rpc, placement.serving_node, "open5gs-serving", opts.core_config, opts.seed + 1);

    sim::NodeIndex hss_node = placement.serving_node;
    if (opts.roaming) {
      auto hss_cfg = sim::profile(sim::NodeClass::kCloud, "open5gs-home-hss");
      hss_cfg.workers = 1;
      hss_node = network.add_node(hss_cfg);
      // ~5ms RTT between the serving network and the subscriber's home
      // network (§6.3.2).
      sim::LatencyModel dc_link;
      dc_link.base = msf(2.5);
      dc_link.jitter_sigma = 0.15;
      network.set_link(placement.serving_node, hss_node, dc_link);
      home_core = std::make_unique<baseline::StandaloneCore>(
          rpc, hss_node, "open5gs-home", opts.core_config, opts.seed + 2);
      serving_core->set_remote_hss(hss_node);
      home_core->bind_services();
    }
    serving_core->bind_services();

    crypto::DeterministicDrbg key_rng("baseline-subscribers", opts.seed);
    const auto profile =
        opts.physical_ran
            ? ran::physical_ran_profile(opts.core_config.serving_network_name)
            : ran::emulated_ran_profile(opts.core_config.serving_network_name);
    for (std::size_t i = 0; i < opts.pool_size; ++i) {
      aka::SubscriberKeys keys;
      keys.k = key_rng.array<16>();
      keys.opc = crypto::derive_opc(keys.k, key_rng.array<16>());
      (opts.roaming ? *home_core : *serving_core).provision_subscriber(pool_supi(i), keys);
      ues.push_back(std::make_unique<ran::Ue>(rpc, placement.ran_node,
                                              placement.serving_node, pool_supi(i), keys,
                                              profile));
    }
    std::vector<ran::Ue*> pool;
    for (auto& ue : ues) pool.push_back(ue.get());
    generator = std::make_unique<ran::LoadGenerator>(simulator, std::move(pool));
  }
};

BaselineBench::BaselineBench(const BaselineOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}
BaselineBench::~BaselineBench() = default;

ran::LoadResult BaselineBench::run_load(double per_minute, Time duration) {
  return impl_->generator->run(per_minute, duration, /*poisson=*/true);
}

ran::AttachRecord BaselineBench::single_attach() {
  std::optional<ran::AttachRecord> record;
  impl_->ues.front()->attach([&](const ran::AttachRecord& r) { record = r; });
  impl_->simulator.run();
  if (!record) throw std::runtime_error("single_attach never completed");
  return *record;
}

sim::Simulator& BaselineBench::simulator() { return impl_->simulator; }

// ---- Sweep scheduling -------------------------------------------------------

Time duration_for(double per_minute, double target_arrivals, double min_minutes,
                  double max_minutes) {
  const double minutes =
      std::min(max_minutes, std::max(min_minutes, target_arrivals / per_minute));
  return static_cast<Time>(minutes * static_cast<double>(kMinute));
}

int sweep_threads() {
  if (const char* env = std::getenv("DAUTH_BENCH_THREADS"); env && *env) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<PointResult> run_sweep_collect(const std::vector<SweepPoint>& points,
                                           int threads) {
  if (threads <= 0) threads = sweep_threads();
  threads = std::min<int>(threads, static_cast<int>(points.size()));

  std::vector<PointResult> results(points.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      try {
        results[i] = points[i].run();
      } catch (const std::exception& e) {
        results[i].text = "point '" + points[i].name + "' failed: " + e.what() + "\n";
      }
      const std::size_t finished = done.fetch_add(1, std::memory_order_relaxed) + 1;
      std::lock_guard<std::mutex> lock(progress_mutex);
      std::fprintf(stderr, "[%zu/%zu] %s\n", finished, points.size(),
                   points[i].name.c_str());
    }
  };

  if (threads <= 1) {
    worker();  // in-line: no pool, same code path, same output
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  return results;
}

void run_sweep(const std::vector<SweepPoint>& points, BenchReport* report,
               int threads) {
  if (threads <= 0) threads = sweep_threads();
  if (report) report->set_threads(std::min<int>(threads, static_cast<int>(points.size())));
  const auto results = run_sweep_collect(points, threads);
  for (const PointResult& r : results) {
    std::fputs(r.text.c_str(), stdout);
    if (report) {
      for (const ReportRow& row : r.rows) report->add(row);
    }
  }
  std::fflush(stdout);
}

// ---- Output helpers ---------------------------------------------------------

namespace {

std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::string strprintf(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return std::string(
      buf, n < 0 ? 0 : std::min(static_cast<std::size_t>(n), sizeof buf - 1));
}

}  // namespace

void print_title(const std::string& title) {
  std::printf("\n# %s\n", title.c_str());
}

std::string format_summary(const std::string& label, SampleSet& samples) {
  return strprintf("%-42s %s\n", label.c_str(), samples.summary().c_str());
}

void print_summary(const std::string& label, SampleSet& samples) {
  std::fputs(format_summary(label, samples).c_str(), stdout);
}

std::string format_cdf(const std::string& label, SampleSet& samples,
                       std::size_t points) {
  std::string out;
  for (const auto& [x, f] : samples.cdf_points(points)) {
    out += strprintf("cdf,%s,%.1f,%.3f\n", label.c_str(), x, f);
  }
  return out;
}

void print_cdf(const std::string& label, SampleSet& samples, std::size_t points) {
  std::fputs(format_cdf(label, samples, points).c_str(), stdout);
}

std::string format_boxplot(const std::string& label, SampleSet& samples) {
  if (samples.empty()) return strprintf("box,%s,n=0\n", label.c_str());
  return strprintf("box,%s,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f\n", label.c_str(),
                   samples.min(), samples.quantile(0.25), samples.median(),
                   samples.quantile(0.75), samples.quantile(0.95), samples.max());
}

void print_boxplot(const std::string& label, SampleSet& samples) {
  std::fputs(format_boxplot(label, samples).c_str(), stdout);
}

std::string format_quantiles(const std::string& label, double load_per_minute,
                             SampleSet& samples) {
  if (samples.empty()) {
    return strprintf("quant,%s,%.0f,n=0\n", label.c_str(), load_per_minute);
  }
  return strprintf("quant,%s,%.0f,%.1f,%.1f,%.1f,%.1f\n", label.c_str(),
                   load_per_minute, samples.quantile(0.5), samples.quantile(0.9),
                   samples.quantile(0.95), samples.quantile(0.99));
}

void print_quantiles(const std::string& label, double load_per_minute, SampleSet& samples) {
  std::fputs(format_quantiles(label, load_per_minute, samples).c_str(), stdout);
}

}  // namespace dauth::bench
