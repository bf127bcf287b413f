#include "core/federation_spec.h"

#include <stdexcept>

#include "ran/gnb.h"

namespace dauth::core {
namespace {

/// The node named `name`; throws if the topology added none.
sim::NodeIndex node_named(const sim::Network& network, const std::string& name) {
  for (sim::NodeIndex i = 0; i < network.node_count(); ++i) {
    if (network.node(i).name() == name) return i;
  }
  throw std::invalid_argument("no node named " + name);
}

}  // namespace

FederationWorld::FederationWorld(FederationSpec declared)
    : spec(std::move(declared)), simulator(spec.seed), rpc(network, spec.rpc) {
  spec.topology(network, spec);
  directory_node = node_named(network, kDirectoryNode);
  directory_server.bind(rpc, directory_node);
  for (const NetworkSpec& n : spec.networks) {
    stores.push_back(n.durable ? std::make_unique<store::KvStore>() : nullptr);
    nets.push_back(std::make_unique<DauthNode>(rpc, node_named(network, n.node), n.id,
                                               directory_node, directory_server, spec.config,
                                               n.key_seed, stores.back().get()));
  }
  ran_node = node_named(network, spec.ran_node);
  for (const HomeSpec& home : spec.homes) declare(home);
}

DauthNode& FederationWorld::net(const NetworkId& id) {
  for (const auto& n : nets) {
    if (n->id() == id) return *n;
  }
  throw std::invalid_argument("no network " + id.str());
}

void FederationWorld::declare(const HomeSpec& home) {
  DauthNode& daemon = net(home.home);
  daemon.set_backups(home.backups);
  for (const Supi& supi : home.subscribers) {
    keys[supi] = daemon.provision_subscriber(supi);
    disseminated.erase(supi);
    daemon.home().disseminate(supi, [this, supi](std::size_t ok) { disseminated[supi] = ok; });
  }
}

ran::UeConfig FederationWorld::ue_profile(bool physical) const {
  return physical ? ran::physical_ran_profile(config.serving_network_name)
                  : ran::emulated_ran_profile(config.serving_network_name);
}

std::unique_ptr<ran::Ue> FederationWorld::make_ue(const Supi& supi, sim::NodeIndex core_node,
                                                  std::optional<ran::UeConfig> profile) {
  return std::make_unique<ran::Ue>(rpc, ran_node, core_node, supi, keys.at(supi),
                                   profile ? std::move(*profile) : ue_profile());
}

std::unique_ptr<FederationWorld> build(FederationSpec spec) {
  return std::make_unique<FederationWorld>(std::move(spec));
}

}  // namespace dauth::core
