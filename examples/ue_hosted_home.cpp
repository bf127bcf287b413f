// §7.2 extension: eliminating the home network.
//
// "the secret key would only exist on the user's device and would be used
//  to generate auth tuples and key shares then proactively distributed
//  across the backup networks. After the UE is initially bootstrapped ...
//  the UE itself has all of the data necessary to act as a home network
//  with only one user."
//
// This example demonstrates exactly that: a *virtual pseudonetwork* hosted
// on the UE's own node generates and disseminates the authentication
// material, publishes its directory entries, and then disappears forever.
// The user keeps authenticating at serving networks purely through the
// backups — no infrastructure home network ever existed.
//
// Build & run:  ./build/examples/ue_hosted_home
#include <cstdio>

#include "core/dauth_node.h"
#include "ran/gnb.h"

using namespace dauth;

int main() {
  sim::Simulator simulator(72);
  sim::Network network(simulator);
  sim::Rpc rpc(network);

  auto cfg = [](const char* name) {
    sim::NodeConfig c;
    c.name = name;
    c.access.base = ms(4);
    c.access.jitter_sigma = 0.2;
    return c;
  };
  const auto dir_node = network.add_node(cfg("directory"));
  const auto phone_node = network.add_node(cfg("phone"));  // the UE's own device
  const auto b1_node = network.add_node(cfg("backup-1"));
  const auto b2_node = network.add_node(cfg("backup-2"));
  const auto b3_node = network.add_node(cfg("backup-3"));
  const auto serving_node = network.add_node(cfg("serving"));

  directory::DirectoryServer directory_server;
  directory_server.bind(rpc, dir_node);

  core::FederationConfig config;
  config.threshold = 2;
  // §7.2: the device pre-generates the "maximum permissible number" of
  // vectors before destroying/forgetting the key material server-side.
  config.vectors_per_backup = 16;
  config.report_interval = 0;

  core::DauthNode b1(rpc, b1_node, NetworkId("backup-1"), dir_node, directory_server, config, 1);
  core::DauthNode b2(rpc, b2_node, NetworkId("backup-2"), dir_node, directory_server, config, 2);
  core::DauthNode b3(rpc, b3_node, NetworkId("backup-3"), dir_node, directory_server, config, 3);
  core::DauthNode serving(rpc, serving_node, NetworkId("serving-net"), dir_node,
                          directory_server, config, 4);

  // The virtual pseudonetwork lives ON the phone: one subscriber, itself.
  const Supi me("315010000009999");
  core::DauthNode pseudo(rpc, phone_node, NetworkId("ue-net-9999"), dir_node,
                         directory_server, config, 5);
  pseudo.set_backups({b1.id(), b2.id(), b3.id()});
  const auto sim_keys = pseudo.provision_subscriber(me);

  std::printf("bootstrap: phone-hosted pseudonetwork disseminating material...\n");
  pseudo.home().disseminate(me, [](std::size_t ok) {
    std::printf("bootstrap: %zu backup networks primed\n", ok);
  });
  simulator.run();

  // The pseudonetwork now vanishes: the phone keeps only its SIM. There is
  // no home network to be online, ever.
  network.node(phone_node).set_online(false);
  serving.serving().set_home_health(pseudo.id(), false);
  std::printf("bootstrap complete: pseudonetwork retired — the secret key now\n"
              "exists only inside the phone's SIM\n\n");

  ran::Ue phone(rpc, phone_node, serving_node, me, sim_keys,
                ran::emulated_ran_profile(config.serving_network_name));
  // The phone's node is "offline" as a server, but the UE radio still works;
  // model the radio by bringing the node back online as a client only —
  // simplest: a separate RAN node stands in for the radio side.
  const auto ran_node = network.add_node(cfg("ran"));
  ran::Ue phone_radio(rpc, ran_node, serving_node, me, sim_keys,
                      ran::emulated_ran_profile(config.serving_network_name));

  int failed = 0;  // the exit status: non-zero when any attach failed
  for (int day = 1; day <= 3; ++day) {
    bool ok = false;
    std::string path;
    phone_radio.attach([&](const ran::AttachRecord& r) {
      ok = r.success && r.key_confirmed;
      path = r.path;
    });
    simulator.run_until(simulator.now() + sec(30));
    std::printf("day %d attach: %s via '%s' (no home network exists)\n", day,
                ok ? "SUCCESS" : "FAILED", path.c_str());
    if (!ok) ++failed;
    simulator.run_until(simulator.now() + hours(24));
  }

  std::printf("\nremaining pre-generated material per backup: %zu / %zu / %zu vectors\n",
              b1.backup().stored_vectors(pseudo.id(), me),
              b2.backup().stored_vectors(pseudo.id(), me),
              b3.backup().stored_vectors(pseudo.id(), me));
  std::printf("(when these run out, the phone must re-bootstrap — the §7.3\n"
              "pre-generation budget trade-off applies doubly here)\n");
  (void)phone;
  return failed == 0 ? 0 : 1;
}
