// DauthNode: one operator's dAuth service daemon (paper §5.1).
//
// Binds all three roles — home, backup, serving — to a single simulator
// node, owns the operator's key material and directory client, and handles
// registration with the public directory. core::build (core/federation_spec.h)
// starts one per network a FederationSpec declares.
#pragma once

#include <memory>
#include <string>

#include "core/backup_network.h"
#include "core/home_network.h"
#include "core/serving_network.h"
#include "directory/client.h"
#include "directory/directory.h"
#include "sim/rpc.h"
#include "store/kv_store.h"

namespace dauth::core {

class DauthNode {
 public:
  /// Creates the daemon on `node`, generates its key pairs from `seed` (the
  /// channel key from a stream of its own, so the others do not move), and
  /// registers its NetworkEntry with `directory_server` (setup is performed
  /// synchronously — it is administrative, not part of any measured flow).
  /// `store` (optional) persists backup-role state.
  DauthNode(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
            sim::NodeIndex directory_node, directory::DirectoryServer& directory_server,
            const FederationConfig& config, std::uint64_t seed,
            store::KvStore* store = nullptr);

  const NetworkId& id() const noexcept { return id_; }
  sim::NodeIndex node() const noexcept { return node_; }

  HomeNetwork& home() noexcept { return *home_; }
  BackupNetwork& backup() noexcept { return *backup_; }
  ServingNetwork& serving() noexcept { return *serving_; }
  directory::DirectoryClient& directory() noexcept { return *directory_client_; }

  const crypto::Ed25519KeyPair& signing_keys() const noexcept { return signing_key_; }
  const crypto::X25519KeyPair& suci_keys() const noexcept { return suci_key_; }
  /// The X25519 key its home and backup roles derive their push keys from.
  const crypto::X25519KeyPair& channel_keys() const noexcept { return channel_key_; }

  /// Provisions a subscriber in the home role AND publishes the signed
  /// user->home mapping in the directory. Returns the keys to load into the
  /// matching Usim.
  aka::SubscriberKeys provision_subscriber(const Supi& supi);

  /// Declares this network's backup set: configures the home role and
  /// publishes the signed BackupsEntry.
  void set_backups(const std::vector<NetworkId>& backups);

  /// Crashes and restarts the backup role, at any point of a run: the
  /// in-memory instance is dropped with every event it had queued (its
  /// report timer, lookups, node jobs and RPC replies never run, so a
  /// request it had taken gets no reply), and a fresh one restores from the
  /// store and takes over the backup services. Without a store it comes back
  /// empty. The fresh role reports to the registry and journal that
  /// set_observability was given, under the same names.
  void restart_backup();

  /// Wires all three roles into the observability layer: counters register
  /// as `{home,backup,serving}.<id>.*` views, the serving role opens its
  /// attach-latency histogram, and lifecycle events flow into `journal`.
  /// Either pointer may be null; both must outlive this node while set.
  void set_observability(obs::MetricsRegistry* registry, obs::EventJournal* journal);

 private:
  /// Wires the backup role into the registry and journal last set.
  void observe_backup();

  sim::Rpc& rpc_;
  sim::NodeIndex node_;
  NetworkId id_;
  directory::DirectoryServer& directory_server_;
  FederationConfig config_;
  store::KvStore* store_;
  crypto::DeterministicDrbg rng_;
  crypto::Ed25519KeyPair signing_key_;
  crypto::X25519KeyPair suci_key_;
  crypto::X25519KeyPair channel_key_;
  std::unique_ptr<directory::DirectoryClient> directory_client_;
  std::unique_ptr<HomeNetwork> home_;
  std::unique_ptr<BackupNetwork> backup_;
  std::unique_ptr<ServingNetwork> serving_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::EventJournal* journal_ = nullptr;
};

}  // namespace dauth::core
