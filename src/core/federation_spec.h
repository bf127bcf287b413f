// FederationSpec: a dAuth federation as one declaration (paper §3.5, §5.1).
//
// Operators each run one daemon, register it in the public directory, and
// each home names its backups. A spec says exactly that, plus where the
// simulation puts it: the nodes and links, which node hosts the RAN and
// each network's daemon, and the seeds. build(spec) turns it into a
// FederationWorld that owns the simulator, network, RPC layer, directory,
// daemons and the SIM keys it provisioned. Every test, bench and example
// federation outside fedbench/ is built this way, so a builder states only
// what differs: its nodes and placement, and its seeds.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dauth_node.h"
#include "ran/ue.h"

namespace dauth::core {

/// The node every topology runs the public directory on.
inline constexpr char kDirectoryNode[] = "directory";

/// One operator's daemon: its network id, the node it runs on, and the
/// seed its key pairs and its subscribers' SIM keys are drawn from. A
/// durable daemon keeps its backup role's state in a store the world owns
/// (the prototype's database), so DauthNode::restart_backup() restores it.
struct NetworkSpec {
  NetworkId id;
  std::string node;
  std::uint64_t key_seed = 0;
  bool durable = false;
};

/// One home's declaration: the backups it names, in order, and the
/// subscribers it provisions and disseminates to them.
struct HomeSpec {
  NetworkId home;
  std::vector<NetworkId> backups;
  std::vector<Supi> subscribers;
};

struct FederationSpec {
  FederationConfig config;
  std::uint64_t seed = 1;  // the simulator's stream
  sim::RpcConfig rpc;
  /// Adds every node and link to the world's network, before anything else
  /// runs. A placement drawn from the simulator's stream (the bench
  /// harness's random backups) completes `networks` and `homes` here, so
  /// its draws stay the stream's first.
  std::function<void(sim::Network&, FederationSpec&)> topology;
  std::string ran_node = "ran";
  std::vector<NetworkSpec> networks;  // daemons start in this order
  std::vector<HomeSpec> homes;        // declared after every daemon, in order
};

class FederationWorld {
 public:
  /// Runs the topology, binds the directory, starts every network's daemon
  /// (each registers its NetworkEntry), then declares every home: its
  /// BackupsEntry, and each subscriber provisioned and its dissemination
  /// started. Runs no event: the caller settles dissemination with the
  /// simulator.
  explicit FederationWorld(FederationSpec spec);
  FederationWorld(const FederationWorld&) = delete;
  FederationWorld& operator=(const FederationWorld&) = delete;

  DauthNode& net(std::size_t index) { return *nets.at(index); }
  DauthNode& net(const NetworkId& id);

  /// Declares `home`'s backups (its BackupsEntry), provisions each of its
  /// subscribers and starts disseminating their material.
  void declare(const HomeSpec& home);

  /// The RAN profile for this federation's serving network name: UERANSIM's,
  /// or the srsUE testbed's when `physical`.
  ran::UeConfig ue_profile(bool physical = false) const;
  /// A UE at the RAN node, camped on `core_node`, with `supi`'s SIM keys
  /// and `profile` (default: ue_profile()).
  std::unique_ptr<ran::Ue> make_ue(const Supi& supi, sim::NodeIndex core_node,
                                   std::optional<ran::UeConfig> profile = std::nullopt);

  FederationSpec spec;  // as the topology completed it
  const FederationConfig& config = spec.config;
  sim::Simulator simulator;
  sim::Network network{simulator};
  sim::Rpc rpc;
  directory::DirectoryServer directory_server;
  sim::NodeIndex directory_node = 0;
  sim::NodeIndex ran_node = 0;
  /// Each durable network's in-memory store, null for the others; in
  /// spec.networks order, like `nets`, which must not outlive them.
  std::vector<std::unique_ptr<store::KvStore>> stores;
  std::vector<std::unique_ptr<DauthNode>> nets;
  std::map<Supi, aka::SubscriberKeys> keys;  // every SIM provisioned
  /// Backups that stored each subscriber's last dissemination round,
  /// once it completed.
  std::map<Supi, std::size_t> disseminated;
};

/// The world `spec` declares.
std::unique_ptr<FederationWorld> build(FederationSpec spec);

}  // namespace dauth::core
