// The quickstart federation, declared once: the quickstart example runs it
// and tests/core/federation_spec_test.cpp pins its key material.
#pragma once

#include "core/federation_spec.h"

namespace dauth::examples {

inline core::FederationSpec quickstart_spec() {
  core::FederationSpec spec;
  spec.seed = 7;
  spec.config.threshold = 2;           // 2-of-2 key shares must cooperate
  spec.config.vectors_per_backup = 8;  // pre-generated challenges per backup
  spec.config.report_interval = minutes(1);

  // Six nodes: a public directory, four operator networks, one RAN site.
  spec.topology = [](sim::Network& network, core::FederationSpec&) {
    for (const char* name : {"directory", "home", "backup-1", "backup-2", "serving", "ran"}) {
      sim::NodeConfig cfg;
      cfg.name = name;
      cfg.access.base = ms(4);
      cfg.access.jitter_sigma = 0.2;
      network.add_node(cfg);
    }
  };
  spec.networks = {{NetworkId("home-net"), "home", 1},
                   {NetworkId("backup-net-1"), "backup-1", 2},
                   {NetworkId("backup-net-2"), "backup-2", 3},
                   {NetworkId("serving-net"), "serving", 4}};
  // Alice is a subscriber of home-net, backed up on the two backup networks.
  spec.homes = {{NetworkId("home-net"),
                 {NetworkId("backup-net-1"), NetworkId("backup-net-2")},
                 {Supi("315010000000001")}}};
  return spec;
}

}  // namespace dauth::examples
