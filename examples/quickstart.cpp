// Quickstart: a four-network dAuth federation, declared in ~40 lines
// (quickstart_federation.h) and driven in ~70.
//
// Builds a simulated federation (directory + home + two backups + a serving
// network) from the declaration in quickstart_federation.h, provisions one
// subscriber, and walks through the three authentication paths of the paper:
//   1. local auth at the home network,
//   2. roaming auth through the home network (home online),
//   3. backup auth while the home network is offline.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "quickstart_federation.h"

using namespace dauth;

int main() {
  // --- The federation ----------------------------------------------------------
  // Declared in quickstart_federation.h: a directory, home-net backed up on
  // two backup networks (threshold 2), serving-net, one RAN site, and Alice.
  const auto world = core::build(examples::quickstart_spec());
  sim::Simulator& simulator = world->simulator;
  core::DauthNode& home = world->net(NetworkId("home-net"));
  core::DauthNode& serving = world->net(NetworkId("serving-net"));
  const Supi alice("315010000000001");
  simulator.run_until(simulator.now() + sec(5));
  std::printf("[setup] key material disseminated to %zu backup networks\n",
              world->disseminated.at(alice));

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
  const auto local_ue = world->make_ue(alice, home.node());
  attach_and_report(*local_ue, "local attach at home");

  // 2. Roaming: the UE appears at serving-net; home-net is online.
  const auto roaming_ue = world->make_ue(alice, serving.node());
  attach_and_report(*roaming_ue, "roaming attach (home up)");

  // 3. Backup auth: home-net goes dark; the backups take over.
  world->network.node(home.node()).set_online(false);
  serving.serving().set_home_health(home.id(), false);  // skip discovery timeout
  attach_and_report(*roaming_ue, "roaming attach (home DOWN)");

  // The home network comes back and learns what happened while it was out.
  world->network.node(home.node()).set_online(true);
  simulator.run_until(simulator.now() + minutes(3));
  std::printf("[report] home processed %llu usage proofs, %llu vectors replenished\n",
              static_cast<unsigned long long>(home.home().metrics().reports_processed),
              static_cast<unsigned long long>(home.home().metrics().replenishments));
  std::printf("[report] anomalies detected: %zu\n", home.home().anomalies().size());
  return failed == 0 ? 0 : 1;
}
