// Federation resilience walkthrough: a Seattle-Community-Network-style day.
//
// Recreates the operational story that motivates the paper: a federation of
// small sites with imperfect uptime keeps its users authenticated through a
// multi-hour home-network outage, reconciles the books when the home
// returns, and then securely revokes a backup that is no longer trusted.
//
// Build & run:  ./build/examples/federation_resilience
#include <cstdio>

#include "core/federation_spec.h"
#include "sim/failure.h"
#include "sim/topology.h"

using namespace dauth;

namespace {

void banner(const char* text) { std::printf("\n--- %s ---\n", text); }

}  // namespace

int main() {
  // The Appendix C testbed: 10 heterogeneous core-capable nodes + 2 RAN
  // sites. The library runs the home network; six other sites are its
  // backups; the community center doubles as the serving network for a
  // visiting user.
  const Supi user("315010000000042");
  core::FederationSpec spec;
  spec.seed = 20240808;
  spec.config.threshold = 2;
  spec.config.vectors_per_backup = 12;
  spec.config.report_interval = minutes(5);
  spec.topology = [user](sim::Network& network, core::FederationSpec& s) {
    const sim::Testbed testbed = sim::build_appendix_c_testbed(network);
    network.add_node(sim::profile(sim::NodeClass::kCloud, "directory"));
    s.ran_node = network.node(testbed.ran_sites[1]).name();
    core::HomeSpec library{{}, {}, {user}};
    const std::vector<sim::NodeIndex> core_nodes = testbed.core_nodes();
    for (std::size_t i = 0; i < core_nodes.size(); ++i) {
      const std::string& name = network.node(core_nodes[i]).name();
      s.networks.push_back({NetworkId(name), name, 100 + i});
      if (i >= 2 && i < 8) library.backups.push_back(NetworkId(name));
    }
    library.home = s.networks[0].id;
    s.homes.push_back(std::move(library));
  };

  banner("provisioning");
  const auto world = core::build(spec);
  sim::Simulator& simulator = world->simulator;
  core::DauthNode& library = world->net(0);            // scn-library (home)
  core::DauthNode& community_center = world->net(1);   // serving site
  const std::vector<NetworkId>& backups = world->spec.homes[0].backups;
  simulator.run();
  std::printf("library disseminated vectors+shares to %zu/%zu backups\n",
              world->disseminated.at(user), backups.size());

  const auto ue = world->make_ue(user, community_center.node());
  int failed = 0;  // the exit status: non-zero when any attach failed
  auto attach = [&](const char* label) {
    bool ok = false;
    std::string path;
    ue->attach([&](const ran::AttachRecord& r) {
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
  sim::FailureInjector injector(world->network, &world->rpc);
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
  for (const NetworkId& id : backups) {
    const core::BackupNetwork& backup = world->net(id).backup();
    std::printf("  %-24s vectors=%zu shares=%zu\n", id.str().c_str(),
                backup.stored_vectors(library.id(), user),
                backup.stored_shares(library.id(), user));
  }
  return failed == 0 ? 0 : 1;
}
