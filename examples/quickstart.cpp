// Quickstart: a three-network dAuth federation in ~100 lines.
//
// Builds a simulated federation (directory + home + two backups + a serving
// network), provisions one subscriber, and walks through the three
// authentication paths of the paper:
//   1. local auth at the home network,
//   2. roaming auth through the home network (home online),
//   3. backup auth while the home network is offline.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/dauth_node.h"
#include "ran/gnb.h"

using namespace dauth;

int main() {
  // --- Simulation substrate --------------------------------------------------
  sim::Simulator simulator(/*seed=*/7);
  sim::Network network(simulator);
  sim::Rpc rpc(network);

  // Five nodes: a public directory, three operator networks, one RAN site.
  auto node_cfg = [](const char* name) {
    sim::NodeConfig cfg;
    cfg.name = name;
    cfg.access.base = ms(4);
    cfg.access.jitter_sigma = 0.2;
    return cfg;
  };
  const sim::NodeIndex dir_node = network.add_node(node_cfg("directory"));
  const sim::NodeIndex home_node = network.add_node(node_cfg("home"));
  const sim::NodeIndex backup1_node = network.add_node(node_cfg("backup-1"));
  const sim::NodeIndex backup2_node = network.add_node(node_cfg("backup-2"));
  const sim::NodeIndex serving_node = network.add_node(node_cfg("serving"));
  const sim::NodeIndex ran_node = network.add_node(node_cfg("ran"));

  // --- The federation ----------------------------------------------------------
  directory::DirectoryServer directory_server;
  directory_server.bind(rpc, dir_node);

  core::FederationConfig config;
  config.threshold = 2;           // 2-of-2 key shares must cooperate
  config.vectors_per_backup = 8;  // pre-generated challenges per backup
  config.report_interval = minutes(1);

  core::DauthNode home(rpc, home_node, NetworkId("home-net"), dir_node, directory_server,
                       config, 1);
  core::DauthNode backup1(rpc, backup1_node, NetworkId("backup-net-1"), dir_node,
                          directory_server, config, 2);
  core::DauthNode backup2(rpc, backup2_node, NetworkId("backup-net-2"), dir_node,
                          directory_server, config, 3);
  core::DauthNode serving(rpc, serving_node, NetworkId("serving-net"), dir_node,
                          directory_server, config, 4);

  // Alice is a subscriber of home-net, backed up on the two backup networks.
  const Supi alice("315010000000001");
  home.set_backups({backup1.id(), backup2.id()});
  const aka::SubscriberKeys sim_card_keys = home.provision_subscriber(alice);
  home.home().disseminate(alice, [](std::size_t backups_ok) {
    std::printf("[setup] key material disseminated to %zu backup networks\n", backups_ok);
  });
  simulator.run_until(simulator.now() + sec(5));

  // --- One UE, three attach paths ----------------------------------------------
  // Note: run_until (not run()) — with the home offline, backups keep
  // polling it to deliver their usage reports, so the event queue never
  // drains on its own. That endless polling is faithful to the paper.
  int failed = 0;  // the exit status: non-zero when any attach failed
  auto attach_and_report = [&](ran::Ue& ue, const char* what) {
    bool done = false;
    ue.attach([&, what](const ran::AttachRecord& record) {
      done = true;
      if (!record.success) ++failed;
      std::printf("[%7.1fms] %-28s %s via '%s' path%s\n", to_ms(simulator.now()), what,
                  record.success ? "SUCCESS" : "FAILED", record.path.c_str(),
                  record.key_confirmed ? " (session keys match)" : "");
    });
    while (!done) simulator.run_until(simulator.now() + ms(100));
  };

  // 1. Local authentication: the UE camps on its own home network.
  ran::Ue local_ue(rpc, ran_node, home_node, alice, sim_card_keys,
                   ran::emulated_ran_profile(config.serving_network_name));
  attach_and_report(local_ue, "local attach at home");

  // 2. Roaming: the UE appears at serving-net; home-net is online.
  ran::Ue roaming_ue(rpc, ran_node, serving_node, alice, sim_card_keys,
                     ran::emulated_ran_profile(config.serving_network_name));
  attach_and_report(roaming_ue, "roaming attach (home up)");

  // 3. Backup auth: home-net goes dark; the backups take over.
  network.node(home_node).set_online(false);
  serving.serving().set_home_health(home.id(), false);  // skip discovery timeout
  attach_and_report(roaming_ue, "roaming attach (home DOWN)");

  // The home network comes back and learns what happened while it was out.
  network.node(home_node).set_online(true);
  simulator.run_until(simulator.now() + minutes(3));
  std::printf("[report] home processed %llu usage proofs, %llu vectors replenished\n",
              static_cast<unsigned long long>(home.home().metrics().reports_processed),
              static_cast<unsigned long long>(home.home().metrics().replenishments));
  std::printf("[report] anomalies detected: %zu\n", home.home().anomalies().size());
  return failed == 0 ? 0 : 1;
}
