// Table 1 reproduction: SCN site availability, plus the availability of the
// *authentication service* with and without dAuth.
//
// The paper's Table 1 reports measured uptime of the deployed LTE sites
// (87.2%-99.0%, none reaching three nines). We synthesize per-site outage
// processes (exponential MTBF/MTTR calibrated to the reported
// availabilities), then quantify the headline benefit of dAuth: a user can
// still authenticate during a home-site outage as long as at least one
// backup holds a vector and `threshold` backups are reachable for shares.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/failure.h"

namespace {

using namespace dauth;

struct Site {
  std::string name;
  double paper_availability;  // from Table 1
  Time mtbf;                  // calibrated failure process
};

}  // namespace

int main() {
  bench::print_title(
      "Table 1: SCN site availability and dAuth authentication availability");
  std::printf(
      "Synthetic outage traces (1 simulated year, exponential MTBF/MTTR)\n"
      "calibrated to the paper's measured site availabilities. 'auth-avail'\n"
      "is the fraction of time a site's subscribers can authenticate:\n"
      "standalone = home site up; dAuth(M) = home up OR >= M of the other\n"
      "sites (its backups) up.\n\n");

  // MTTR follows from availability: u = MTTR / (MTBF + MTTR).
  const std::vector<Site> sites = {
      {"co-working-space", 0.99021, 21 * kDay},
      {"school-1", 0.98998, 21 * kDay},
      {"community-center-1", 0.95815, 14 * kDay},
      {"library-1", 0.91821, 10 * kDay},
      {"school-2", 0.89562, 10 * kDay},
      {"community-center-2", 0.87171, 8 * kDay},
  };
  const Time kHorizon = 365 * kDay;

  constexpr std::uint64_t kSeed = 20240804;
  bench::note_seed(kSeed);
  sim::Simulator simulator(kSeed);
  sim::Network network(simulator);
  std::vector<sim::NodeIndex> nodes;
  for (const Site& site : sites) {
    sim::NodeConfig cfg;
    cfg.name = site.name;
    nodes.push_back(network.add_node(cfg));
  }

  sim::FailureInjector injector(network);
  std::vector<std::vector<sim::Outage>> outages(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const double unavailability = 1.0 - sites[i].paper_availability;
    const Time mttr = static_cast<Time>(static_cast<double>(sites[i].mtbf) *
                                        unavailability / (1.0 - unavailability));
    outages[i] = injector.schedule_random_outages(nodes[i], sites[i].mtbf, mttr, kHorizon);
  }

  // Timeline sweep in 1-minute steps.
  auto is_down = [&](std::size_t site, Time t) {
    for (const sim::Outage& o : outages[site]) {
      if (t >= o.start && t < o.start + o.duration) return true;
    }
    return false;
  };

  const int thresholds[] = {2, 3, 4};
  std::vector<Time> up_alone(sites.size(), 0);
  std::vector<std::array<Time, 3>> up_dauth(sites.size(), {0, 0, 0});

  for (Time t = 0; t < kHorizon; t += kMinute) {
    int total_up = 0;
    std::vector<bool> down(sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
      down[i] = is_down(i, t);
      if (!down[i]) ++total_up;
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (!down[i]) {
        up_alone[i] += kMinute;
        for (auto& u : up_dauth[i]) u += kMinute;
        continue;
      }
      // Home down: backups are the other 5 sites.
      const int backups_up = total_up;  // home is down, so all up sites are backups
      for (int k = 0; k < 3; ++k) {
        if (backups_up >= thresholds[k]) up_dauth[i][k] += kMinute;
      }
    }
  }

  std::printf("%-22s %10s %10s | %12s %12s %12s %12s\n", "site", "paper", "simulated",
              "standalone", "dauth(M=2)", "dauth(M=3)", "dauth(M=4)");
  const auto pct = [&](Time up) {
    return 100.0 * static_cast<double>(up) / static_cast<double>(kHorizon);
  };
  bench::BenchReport report("table1_availability");
  double worst_alone = 100.0, worst_dauth2 = 100.0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    std::printf("%-22s %9.3f%% %9.3f%% | %11.3f%% %11.3f%% %11.3f%% %11.3f%%\n",
                sites[i].name.c_str(), 100.0 * sites[i].paper_availability,
                pct(up_alone[i]), pct(up_alone[i]), pct(up_dauth[i][0]),
                pct(up_dauth[i][1]), pct(up_dauth[i][2]));
    report.add_scalar(sites[i].name + ":standalone_pct", pct(up_alone[i]));
    report.add_scalar(sites[i].name + ":dauth_m2_pct", pct(up_dauth[i][0]));
    report.add_scalar(sites[i].name + ":dauth_m3_pct", pct(up_dauth[i][1]));
    report.add_scalar(sites[i].name + ":dauth_m4_pct", pct(up_dauth[i][2]));
    worst_alone = std::min(worst_alone, pct(up_alone[i]));
    worst_dauth2 = std::min(worst_dauth2, pct(up_dauth[i][0]));
  }
  std::printf(
      "\nWorst-site auth availability: standalone %.3f%% -> dAuth(M=2) %.3f%%\n"
      "(the federation turns six sub-three-nines sites into a near-always-\n"
      "available authentication service, the core claim of the paper)\n",
      worst_alone, worst_dauth2);
  report.add_scalar("worst_site:standalone_pct", worst_alone);
  report.add_scalar("worst_site:dauth_m2_pct", worst_dauth2);
  report.write();
  return 0;
}
