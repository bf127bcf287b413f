// Shared test fixture: a complete dAuth federation on a flat topology.
//
// Layout: node 0 hosts the directory, nodes 1..N host one dAuth network
// each ("net-1".."net-N"), and the last node hosts the RAN/UE emulator.
// Helpers provision subscribers, run dissemination to completion, and
// build UEs wired to any serving network.
#pragma once

#include <memory>
#include <vector>

#include "core/dauth_node.h"
#include "ran/gnb.h"
#include "ran/ue.h"
#include "store/kv_store.h"
#include "wire/reader.h"

namespace dauth::testing {

/// Every held batch a store-backed backup has persisted, decoded.
inline std::vector<core::BatchRecord> held_records(const store::KvStore& store) {
  std::vector<core::BatchRecord> records;
  for (const auto& key : store.keys_with_prefix("batch/")) {
    records.push_back(wire::decode<core::BatchRecord>(store.get(key).value()));
  }
  return records;
}

struct Federation {
  sim::Simulator simulator;
  sim::Network network{simulator};
  sim::Rpc rpc;
  directory::DirectoryServer directory_server;
  sim::NodeIndex directory_node = 0;
  sim::NodeIndex ran_node = 0;
  std::vector<std::unique_ptr<core::DauthNode>> nets;
  core::FederationConfig config;

  explicit Federation(std::size_t n_networks, core::FederationConfig cfg = test_config(),
                      std::uint64_t seed = 1, sim::RpcConfig rpc_config = {})
      : simulator(seed), rpc(network, rpc_config), config(std::move(cfg)) {
    sim::NodeConfig nc;
    nc.name = "directory";
    nc.access.base = ms(2);
    nc.access.jitter_sigma = 0.1;
    nc.workers = 4;
    directory_node = network.add_node(nc);
    directory_server.bind(rpc, directory_node);

    for (std::size_t i = 0; i < n_networks; ++i) {
      nc.name = "net-" + std::to_string(i + 1);
      nc.workers = 2;
      const sim::NodeIndex node = network.add_node(nc);
      nets.push_back(std::make_unique<core::DauthNode>(
          rpc, node, NetworkId(nc.name), directory_node, directory_server, config,
          seed + 100 + i));
    }

    nc.name = "ran";
    ran_node = network.add_node(nc);
  }

  /// Test-friendly defaults: no periodic report timer (tests drive
  /// reporting explicitly), small vector budgets.
  static core::FederationConfig test_config() {
    core::FederationConfig cfg;
    cfg.report_interval = 0;
    cfg.vectors_per_backup = 4;
    cfg.threshold = 2;
    return cfg;
  }

  /// Transport of the pre-resilience arm (with ResilienceConfig::none()):
  /// no circuit ever trips and liveness hints are dropped.
  static sim::RpcConfig breakers_off() {
    sim::RpcConfig rpc_config;
    rpc_config.breaker.failure_threshold = 0;
    return rpc_config;
  }

  core::DauthNode& net(std::size_t index) { return *nets.at(index); }

  /// Provisions `supi` at nets[home], sets nets[backups...] as its backup
  /// networks, disseminates, and runs the simulator until dissemination
  /// completes. Returns the SIM keys.
  aka::SubscriberKeys provision(const Supi& supi, std::size_t home,
                                const std::vector<std::size_t>& backups) {
    std::vector<NetworkId> backup_ids;
    backup_ids.reserve(backups.size());
    for (std::size_t b : backups) backup_ids.push_back(net(b).id());
    net(home).set_backups(backup_ids);
    const aka::SubscriberKeys keys = net(home).provision_subscriber(supi);

    bool done = false;
    net(home).home().disseminate(supi, [&](std::size_t) { done = true; });
    simulator.run();
    if (!done) throw std::runtime_error("dissemination did not complete");
    return keys;
  }

  /// Builds a UE camped on nets[serving]'s RAN.
  std::unique_ptr<ran::Ue> make_ue(const Supi& supi, const aka::SubscriberKeys& keys,
                                   std::size_t serving) {
    return std::make_unique<ran::Ue>(
        rpc, ran_node, net(serving).node(), supi, keys,
        ran::emulated_ran_profile(config.serving_network_name));
  }

  /// Runs one attach to completion and returns the record.
  ran::AttachRecord attach(ran::Ue& ue) {
    std::optional<ran::AttachRecord> record;
    ue.attach([&](const ran::AttachRecord& r) { record = r; });
    simulator.run();
    if (!record) throw std::runtime_error("attach never completed");
    return *record;
  }
};

}  // namespace dauth::testing
