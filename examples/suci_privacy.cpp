// SUCI privacy walkthrough: subscriber identifiers never cross the air in
// the clear, and — unique to dAuth — backup networks can de-conceal them
// during a home-network outage because the home shares its SUCI decryption
// key at dissemination time (paper §4.2.1).
//
// Build & run:  ./build/examples/suci_privacy
#include <cstdio>

#include "aka/suci.h"
#include "core/federation_spec.h"

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
  core::FederationSpec spec;
  spec.seed = 11;
  spec.config.threshold = 2;
  spec.config.vectors_per_backup = 4;
  spec.config.report_interval = 0;
  spec.topology = [](sim::Network& network, core::FederationSpec&) {
    for (const char* name : {"directory", "home", "backup-1", "backup-2", "serving", "ran"}) {
      sim::NodeConfig c;
      c.name = name;
      c.access.base = ms(3);
      network.add_node(c);
    }
  };
  spec.networks = {{NetworkId("home-net"), "home", 1},
                   {NetworkId("backup-1"), "backup-1", 2},
                   {NetworkId("backup-2"), "backup-2", 3},
                   {NetworkId("serving-net"), "serving", 4}};
  spec.homes = {{NetworkId("home-net"), {NetworkId("backup-1"), NetworkId("backup-2")}, {supi}}};
  const auto world = core::build(spec);
  world->simulator.run();

  core::DauthNode& home = world->net(NetworkId("home-net"));
  core::DauthNode& serving = world->net(NetworkId("serving-net"));
  world->network.node(home.node()).set_online(false);
  serving.serving().set_home_health(home.id(), false);

  auto ue_profile = world->ue_profile();
  ue_profile.use_suci = true;
  const auto ue = world->make_ue(supi, serving.node(), ue_profile);
  ue->configure_suci(home.id(), home.suci_keys().public_key);

  bool attached = false;
  ue->attach([&](const ran::AttachRecord& record) {
    attached = record.success;
    std::printf("attach with concealed id, home offline: %s via '%s'\n",
                record.success ? "SUCCESS" : "FAILED", record.path.c_str());
    std::printf("(the backup de-concealed the SUCI with the key the home network\n"
                " shared during dissemination; the identifier never crossed the\n"
                " air interface in the clear)\n");
  });
  world->simulator.run();
  return attached ? 0 : 1;
}
