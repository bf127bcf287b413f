// SUCI privacy walkthrough: subscriber identifiers never cross the air in
// the clear, and — unique to dAuth — backup networks can de-conceal them
// during a home-network outage because the home shares its SUCI decryption
// key at dissemination time (paper §4.2.1).
//
// Build & run:  ./build/examples/suci_privacy
#include <cstdio>

#include "aka/suci.h"
#include "core/dauth_node.h"
#include "ran/gnb.h"

using namespace dauth;

int main() {
  std::printf("== SUCI concealment primitives ==\n");
  crypto::DeterministicDrbg rng("suci-example", 1);
  const crypto::X25519KeyPair home_keys = crypto::x25519_generate(rng);
  const Supi supi("315010000000077");

  const aka::Suci suci = aka::conceal_supi(supi, home_keys.public_key, rng);
  std::printf("SUPI              : %s\n", supi.str().c_str());
  std::printf("SUCI routing      : mcc=%s mnc=%s (cleartext, needed to route)\n",
              suci.mcc.c_str(), suci.mnc.c_str());
  std::printf("SUCI ciphertext   : %s\n", to_hex(suci.ciphertext).c_str());
  std::printf("SUCI eph. pubkey  : %s\n", to_hex(suci.ephemeral_public).c_str());

  const aka::Suci again = aka::conceal_supi(supi, home_keys.public_key, rng);
  std::printf("re-concealed      : %s  (fresh ephemeral key -> unlinkable)\n",
              to_hex(again.ciphertext).c_str());

  const auto recovered = aka::deconceal_suci(suci, home_keys.secret);
  std::printf("home de-conceals  : %s\n",
              recovered ? recovered->str().c_str() : "(failed)");

  std::printf("\n== SUCI attach through a backup network (home offline) ==\n");
  sim::Simulator simulator(11);
  sim::Network network(simulator);
  sim::Rpc rpc(network);
  auto cfg = [](const char* name) {
    sim::NodeConfig c;
    c.name = name;
    c.access.base = ms(3);
    return c;
  };
  const auto dir_node = network.add_node(cfg("directory"));
  const auto home_node = network.add_node(cfg("home"));
  const auto b1_node = network.add_node(cfg("backup-1"));
  const auto b2_node = network.add_node(cfg("backup-2"));
  const auto serving_node = network.add_node(cfg("serving"));
  const auto ran_node = network.add_node(cfg("ran"));

  directory::DirectoryServer directory_server;
  directory_server.bind(rpc, dir_node);

  core::FederationConfig config;
  config.threshold = 2;
  config.vectors_per_backup = 4;
  config.report_interval = 0;

  core::DauthNode home(rpc, home_node, NetworkId("home-net"), dir_node, directory_server,
                       config, 1);
  core::DauthNode b1(rpc, b1_node, NetworkId("backup-1"), dir_node, directory_server,
                     config, 2);
  core::DauthNode b2(rpc, b2_node, NetworkId("backup-2"), dir_node, directory_server,
                     config, 3);
  core::DauthNode serving(rpc, serving_node, NetworkId("serving-net"), dir_node,
                          directory_server, config, 4);

  home.set_backups({b1.id(), b2.id()});
  const auto keys = home.provision_subscriber(supi);
  home.home().disseminate(supi);
  simulator.run();

  network.node(home_node).set_online(false);
  serving.serving().set_home_health(home.id(), false);

  auto ue_profile = ran::emulated_ran_profile(config.serving_network_name);
  ue_profile.use_suci = true;
  ran::Ue ue(rpc, ran_node, serving_node, supi, keys, ue_profile);
  ue.configure_suci(home.id(), home.suci_keys().public_key);

  bool attached = false;
  ue.attach([&](const ran::AttachRecord& record) {
    attached = record.success;
    std::printf("attach with concealed id, home offline: %s via '%s'\n",
                record.success ? "SUCCESS" : "FAILED", record.path.c_str());
    std::printf("(the backup de-concealed the SUCI with the key the home network\n"
                " shared during dissemination; the identifier never crossed the\n"
                " air interface in the clear)\n");
  });
  simulator.run();
  return attached ? 0 : 1;
}
