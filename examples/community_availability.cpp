// Community-network availability study: a year of SCN-like operations.
//
// Simulates six community sites with realistic (sub-three-nines) uptime and
// measures the user experience directly: every hour of simulated time, a
// subscriber of each site tries to authenticate at a (reliable) serving
// site. Compares a standalone deployment (auth requires the home site)
// against dAuth (backups answer while the home is down). Long outages can
// still exhaust the pre-generated vector budget — the §7.3 trade-off.
//
// This is the end-to-end, protocol-level companion to
// bench/table1_availability (which computes the same story analytically).
//
// Build & run:  ./build/examples/community_availability   (~30s)
#include <cstdio>
#include <vector>

#include "core/federation_spec.h"
#include "sim/failure.h"

using namespace dauth;

int main() {
  const char* site_names[] = {"coworking", "school-1", "community-center-1",
                              "library-1", "school-2", "community-center-2"};
  const double mtbf_days[] = {21, 21, 14, 10, 10, 8};
  const double availability[] = {0.990, 0.990, 0.958, 0.918, 0.896, 0.872};

  core::FederationSpec spec;
  spec.seed = 365;
  spec.config.threshold = 2;
  spec.config.vectors_per_backup = 31;  // sized for multi-day outages (§7.3)
  spec.config.report_interval = minutes(10);
  spec.topology = [&site_names](sim::Network& network, core::FederationSpec&) {
    auto site_cfg = [](const char* name) {
      sim::NodeConfig cfg;
      cfg.name = name;
      cfg.access.base = ms(5);
      cfg.access.jitter_sigma = 0.3;
      return cfg;
    };
    network.add_node(site_cfg("directory"));
    network.add_node(site_cfg("ran"));
    for (const char* name : site_names) network.add_node(site_cfg(name));
    network.add_node(site_cfg("serving-site"));
  };
  for (int i = 0; i < 6; ++i) {
    spec.networks.push_back({NetworkId(site_names[i]), site_names[i], 500u + i});
  }
  // A dedicated, reliable serving site hosts the probes, so the comparison
  // isolates HOME availability (a standalone user doesn't roam at all, so
  // serving-side outages would only muddy the numbers).
  spec.networks.push_back({NetworkId("serving-site"), "serving-site", 999});
  // Each site homes one test subscriber, with every other site as backup.
  for (int i = 0; i < 6; ++i) {
    core::HomeSpec home{NetworkId(site_names[i]), {}, {}};
    home.subscribers.push_back(Supi("31501000000010" + std::to_string(i)));
    for (int j = 0; j < 6; ++j) {
      if (j != i) home.backups.push_back(NetworkId(site_names[j]));
    }
    spec.homes.push_back(std::move(home));
  }
  const auto world = core::build(spec);
  sim::Simulator& simulator = world->simulator;
  sim::Network& network = world->network;

  std::vector<sim::NodeIndex> site_nodes;
  std::vector<std::unique_ptr<ran::Ue>> ues;
  for (int i = 0; i < 6; ++i) {
    site_nodes.push_back(world->net(i).node());
    ues.push_back(world->make_ue(spec.homes[i].subscribers[0], world->net(6).node()));
  }
  simulator.run();

  // A quarter-year of random outages (full year would work; quarter keeps
  // the example snappy).
  const Time horizon = 90 * kDay;
  sim::FailureInjector injector(network, &world->rpc);
  for (int i = 0; i < 6; ++i) {
    const double u = 1.0 - availability[i];
    const Time mtbf = static_cast<Time>(mtbf_days[i] * static_cast<double>(kDay));
    const Time mttr = static_cast<Time>(static_cast<double>(mtbf) * u / (1.0 - u));
    injector.schedule_random_outages(site_nodes[i], mtbf, mttr, horizon);
  }

  // Probe attaches every hour; track whether the home was up (what a
  // standalone deployment could have served).
  struct Tally {
    int attempts = 0;
    int successes = 0;
    int home_was_up = 0;
    int via_backup = 0;
  };
  std::vector<Tally> tally(6);

  for (Time t = minutes(60); t < horizon; t += minutes(60)) {
    simulator.at(t, [&] {
      for (int i = 0; i < 6; ++i) {
        if (ues[i]->busy()) continue;
        Tally& site_tally = tally[i];
        ++site_tally.attempts;
        if (network.node(site_nodes[i]).online()) ++site_tally.home_was_up;
        ues[i]->attach([&site_tally](const ran::AttachRecord& record) {
          if (record.success) {
            ++site_tally.successes;
            if (record.path == "backup") ++site_tally.via_backup;
          }
        });
      }
    });
  }
  simulator.run_until(horizon + minutes(5));

  std::printf("90 simulated days, one roaming probe per site every hour\n\n");
  std::printf("%-20s %9s | %11s %11s %11s\n", "home site", "site-avail",
              "standalone", "dauth-auth", "via-backup");
  for (int i = 0; i < 6; ++i) {
    const Tally& site_tally = tally[i];
    const auto pct = [&](int n) {
      return site_tally.attempts > 0 ? 100.0 * n / site_tally.attempts : 0.0;
    };
    std::printf("%-20s %8.2f%% | %10.2f%% %10.2f%% %10.2f%%\n", site_names[i],
                100.0 * injector.availability(site_nodes[i], horizon),
                pct(site_tally.home_was_up), pct(site_tally.successes),
                pct(site_tally.via_backup));
  }
  std::printf("\n'standalone' = attaches a home-site-only deployment could have\n"
              "served (home up). 'dauth-auth' = attaches dAuth actually served.\n");
  return 0;
}
