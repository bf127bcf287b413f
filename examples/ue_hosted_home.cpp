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

#include "core/federation_spec.h"

using namespace dauth;

int main() {
  const Supi me("315010000009999");
  core::FederationSpec spec;
  spec.seed = 72;
  spec.config.threshold = 2;
  // §7.2: the device pre-generates the "maximum permissible number" of
  // vectors before destroying/forgetting the key material server-side.
  spec.config.vectors_per_backup = 16;
  spec.config.report_interval = 0;
  // The phone is the UE's own device. Its radio is a separate RAN node: the
  // phone's node goes "offline" as a server once bootstrap is done, but the
  // UE radio still works.
  spec.topology = [](sim::Network& network, core::FederationSpec&) {
    for (const char* name :
         {"directory", "phone", "backup-1", "backup-2", "backup-3", "serving", "ran"}) {
      sim::NodeConfig c;
      c.name = name;
      c.access.base = ms(4);
      c.access.jitter_sigma = 0.2;
      network.add_node(c);
    }
  };
  spec.networks = {{NetworkId("backup-1"), "backup-1", 1},
                   {NetworkId("backup-2"), "backup-2", 2},
                   {NetworkId("backup-3"), "backup-3", 3},
                   {NetworkId("serving-net"), "serving", 4},
                   // The virtual pseudonetwork lives ON the phone: one
                   // subscriber, itself.
                   {NetworkId("ue-net-9999"), "phone", 5}};
  spec.homes = {{NetworkId("ue-net-9999"),
                 {NetworkId("backup-1"), NetworkId("backup-2"), NetworkId("backup-3")},
                 {me}}};

  std::printf("bootstrap: phone-hosted pseudonetwork disseminating material...\n");
  const auto world = core::build(spec);
  sim::Simulator& simulator = world->simulator;
  simulator.run();
  std::printf("bootstrap: %zu backup networks primed\n", world->disseminated.at(me));

  // The pseudonetwork now vanishes: the phone keeps only its SIM. There is
  // no home network to be online, ever.
  core::DauthNode& pseudo = world->net(NetworkId("ue-net-9999"));
  core::DauthNode& serving = world->net(NetworkId("serving-net"));
  world->network.node(pseudo.node()).set_online(false);
  serving.serving().set_home_health(pseudo.id(), false);
  std::printf("bootstrap complete: pseudonetwork retired — the secret key now\n"
              "exists only inside the phone's SIM\n\n");

  const auto phone_radio = world->make_ue(me, serving.node());

  int failed = 0;  // the exit status: non-zero when any attach failed
  for (int day = 1; day <= 3; ++day) {
    bool ok = false;
    std::string path;
    phone_radio->attach([&](const ran::AttachRecord& r) {
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
              world->net(0).backup().stored_vectors(pseudo.id(), me),
              world->net(1).backup().stored_vectors(pseudo.id(), me),
              world->net(2).backup().stored_vectors(pseudo.id(), me));
  std::printf("(when these run out, the phone must re-bootstrap — the §7.3\n"
              "pre-generation budget trade-off applies doubly here)\n");
  return failed == 0 ? 0 : 1;
}
