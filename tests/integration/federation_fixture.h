// Shared test fixture: a complete dAuth federation on a flat topology,
// declared as a core::FederationSpec.
//
// Layout: node 0 hosts the directory, nodes 1..N host one dAuth network
// each ("net-1".."net-N"), and the last node hosts the RAN/UE emulator.
// Helpers provision subscribers, run dissemination to completion, build
// UEs wired to any serving network, and run an attach on the schedule
// production runs: to its record and one share-leg deadline more, never
// draining the queue, so RTT samples stay fresh across attaches and share
// rounds rank their legs as a loaded serving network's do.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/federation_spec.h"
#include "crypto/pairwise.h"
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

struct Federation : core::FederationWorld {
  explicit Federation(std::size_t n_networks, core::FederationConfig cfg = test_config(),
                      std::uint64_t seed = 1, sim::RpcConfig rpc_config = {})
      : Federation(flat(n_networks, std::move(cfg), seed, std::move(rpc_config))) {}
  explicit Federation(core::FederationSpec declared) : FederationWorld(std::move(declared)) {}

  /// Nodes "directory", "net-1".."net-N" and "ran" on one flat profile;
  /// net-i's keys come from seed + 99 + i.
  static core::FederationSpec flat(std::size_t n_networks,
                                   core::FederationConfig cfg = test_config(),
                                   std::uint64_t seed = 1, sim::RpcConfig rpc_config = {}) {
    core::FederationSpec declared;
    declared.config = std::move(cfg);
    declared.seed = seed;
    declared.rpc = std::move(rpc_config);
    declared.topology = [n_networks](sim::Network& network, core::FederationSpec&) {
      sim::NodeConfig nc;
      nc.name = "directory";
      nc.access.base = ms(2);
      nc.access.jitter_sigma = 0.1;
      nc.workers = 4;
      network.add_node(nc);
      nc.workers = 2;
      for (std::size_t i = 1; i <= n_networks; ++i) {
        nc.name = "net-" + std::to_string(i);
        network.add_node(nc);
      }
      nc.name = "ran";
      network.add_node(nc);
    };
    for (std::size_t i = 1; i <= n_networks; ++i) {
      const std::string name = "net-" + std::to_string(i);
      declared.networks.push_back({NetworkId(name), name, seed + 99 + i});
    }
    return declared;
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

  /// Provisions `supi` at nets[home], sets nets[backups...] as its backup
  /// networks, disseminates, and runs the simulator until dissemination
  /// completes. Returns the SIM keys.
  aka::SubscriberKeys provision(const Supi& supi, std::size_t home,
                                const std::vector<std::size_t>& backups) {
    core::HomeSpec declared{net(home).id(), {}, {supi}};
    for (std::size_t b : backups) declared.backups.push_back(net(b).id());
    declare(declared);
    simulator.run();
    if (!disseminated.contains(supi)) throw std::runtime_error("dissemination did not complete");
    return keys.at(supi);
  }

  /// Tags `push` as nets[home]'s push to nets[backup]: store_tag under their
  /// push key, as HomeNetwork::push makes it.
  void tag_push(core::StoreMaterialRequest& push, std::size_t home, std::size_t backup) {
    push.tag = core::store_tag(push_key(home, backup), net(backup).id(), push);
  }

  /// Tags `revoke` as nets[home]'s revoke to nets[backup]: revoke_tag under
  /// their push key, as HomeNetwork::push makes it.
  void tag_revoke(core::RevokeSharesRequest& revoke, std::size_t home, std::size_t backup) {
    revoke.tag = core::revoke_tag(push_key(home, backup), net(backup).id(), revoke);
  }

  /// The push key of nets[home] to nets[backup] (crypto/pairwise.h).
  crypto::HmacSha256 push_key(std::size_t home, std::size_t backup) {
    return crypto::derive_pairwise_key(net(home).channel_keys().secret,
                                       net(backup).channel_keys().public_key, core::kPushKeyLabel,
                                       net(home).id().str(), net(backup).id().str())
        .value();
  }

  using FederationWorld::make_ue;
  /// Builds a UE camped on nets[serving]'s RAN.
  std::unique_ptr<ran::Ue> make_ue(const Supi& supi, const aka::SubscriberKeys& sim_keys,
                                   std::size_t serving) {
    return std::make_unique<ran::Ue>(rpc, ran_node, net(serving).node(), supi, sim_keys,
                                     ue_profile());
  }

  /// Runs one attach to its record, then one share-leg deadline more
  /// (ServingNetwork::kKeyShareTimeout; a vector leg times out as soon), so
  /// every leg the attach launched has concluded, and returns the record.
  /// Later events stay queued, as they would in production: the UE's NAS
  /// timeouts, report timers, an injector's outage ends. Every attach in
  /// tests/integration/ runs here, but for the concurrent and instrumented
  /// sites tools/check.sh lists (ATTACH_SITES).
  ran::AttachRecord attach(ran::Ue& ue) {
    constexpr Time kLeg = core::ServingNetwork::kKeyShareTimeout;
    std::optional<ran::AttachRecord> record;
    ue.attach([&](const ran::AttachRecord& r) { record = r; });
    const Time give_up = simulator.now() + minutes(2);  // past every NAS timeout
    while (!record && simulator.now() < give_up) simulator.run_until(simulator.now() + kLeg);
    if (!record) throw std::runtime_error("attach never completed");
    simulator.run_until(record->completed + kLeg);
    return *record;
  }
};

}  // namespace dauth::testing
