// Federation resilience walkthrough: a Seattle-Community-Network-style day.
//
// Recreates the operational story that motivates the paper: a federation of
// small sites with imperfect uptime keeps its users authenticated through a
// multi-hour home-network outage, reconciles the books when the home
// returns, and then securely revokes a backup that is no longer trusted.
//
// Build & run:  ./build/examples/federation_resilience
#include <cstdio>

#include "core/dauth_node.h"
#include "ran/gnb.h"
#include "sim/failure.h"
#include "sim/topology.h"

using namespace dauth;

namespace {

void banner(const char* text) { std::printf("\n--- %s ---\n", text); }

}  // namespace

int main() {
  sim::Simulator simulator(20240808);
  sim::Network network(simulator);
  sim::Rpc rpc(network);

  // The Appendix C testbed: 10 heterogeneous core-capable nodes + 2 RAN sites.
  const sim::Testbed testbed = sim::build_appendix_c_testbed(network);
  const sim::NodeIndex dir_node =
      network.add_node(sim::profile(sim::NodeClass::kCloud, "directory"));

  directory::DirectoryServer directory_server;
  directory_server.bind(rpc, dir_node);

  core::FederationConfig config;
  config.threshold = 2;
  config.vectors_per_backup = 12;
  config.report_interval = minutes(5);

  // The library runs the home network; five other sites are its backups;
  // the community center doubles as the serving network for a visiting user.
  std::vector<std::unique_ptr<core::DauthNode>> nets;
  const std::vector<sim::NodeIndex> core_nodes = testbed.core_nodes();
  for (std::size_t i = 0; i < core_nodes.size(); ++i) {
    nets.push_back(std::make_unique<core::DauthNode>(
        rpc, core_nodes[i], NetworkId(network.node(core_nodes[i]).name()), dir_node,
        directory_server, config, 100 + i));
  }
  core::DauthNode& library = *nets[0];            // scn-library (home)
  core::DauthNode& community_center = *nets[1];   // serving site
  std::vector<NetworkId> backups;
  for (std::size_t i = 2; i < 8; ++i) backups.push_back(nets[i]->id());

  banner("provisioning");
  const Supi user("315010000000042");
  library.set_backups(backups);
  const auto sim_keys = library.provision_subscriber(user);
  library.home().disseminate(user, [&](std::size_t ok) {
    std::printf("library disseminated vectors+shares to %zu/%zu backups\n", ok,
                backups.size());
  });
  simulator.run();

  ran::Ue ue(rpc, testbed.ran_sites[1], community_center.node(), user, sim_keys,
             ran::emulated_ran_profile(config.serving_network_name));
  int failed = 0;  // the exit status: non-zero when any attach failed
  auto attach = [&](const char* label) {
    bool ok = false;
    std::string path;
    ue.attach([&](const ran::AttachRecord& r) {
      ok = r.success && r.key_confirmed;
      path = r.path;
    });
    simulator.run_until(simulator.now() + sec(20));
    std::printf("[t=%6.1fs] %-34s -> %s (%s)\n", to_sec(simulator.now()), label,
                ok ? "authenticated" : "FAILED", path.c_str());
    if (!ok) ++failed;
  };

  banner("normal operation: visiting the community center");
  attach("attach while library online");

  banner("the library's backhaul goes down for six hours");
  sim::FailureInjector injector(network, &rpc);
  injector.schedule_outage(library.node(), simulator.now() + minutes(1), hours(6));
  simulator.run_until(simulator.now() + minutes(2));

  for (int hour = 0; hour < 3; ++hour) {
    simulator.run_until(simulator.now() + hours(1));
    attach(("attach during outage, hour " + std::to_string(hour + 1)).c_str());
  }

  banner("library back online: reports reconcile automatically");
  simulator.run_until(simulator.now() + hours(4));
  std::printf("library ingested %llu usage proofs, replenished %llu vectors, "
              "%zu anomalies\n",
              static_cast<unsigned long long>(library.home().metrics().reports_processed),
              static_cast<unsigned long long>(library.home().metrics().replenishments),
              library.home().anomalies().size());
  // The serving network's health cache re-probes asynchronously: the first
  // attach after recovery still rides the backups, the next goes direct.
  attach("attach after recovery (probe)");
  attach("attach after recovery (direct)");

  banner("one backup site is compromised: revoke it");
  const NetworkId revoked = backups.front();
  library.home().revoke_backup(revoked, [&] {
    std::printf("revoked %s: remaining backups ordered to delete its sibling "
                "shares; flood vector issued\n",
                revoked.str().c_str());
  });
  simulator.run_until(simulator.now() + minutes(1));

  // Even with the home down again, auth works via the remaining backups --
  // and the revoked site can no longer complete an authentication: every
  // other backup deleted the key shares matching its cached vectors, so a
  // serving network that (through a stale cache) still consults the revoked
  // site can never assemble a threshold of shares. Model the revocation
  // notice reaching the serving site by refreshing its directory cache.
  community_center.directory().invalidate();
  injector.schedule_outage(library.node(), simulator.now() + sec(10), hours(1));
  simulator.run_until(simulator.now() + minutes(1));
  attach("attach post-revocation, home down");

  std::printf("\nbackups' view of the revoked site's material:\n");
  for (std::size_t i = 2; i < 8; ++i) {
    std::printf("  %-24s vectors=%zu shares=%zu\n", nets[i]->id().str().c_str(),
                nets[i]->backup().stored_vectors(library.id(), user),
                nets[i]->backup().stored_shares(library.id(), user));
  }
  return failed == 0 ? 0 : 1;
}
