#include "core/dauth_node.h"

namespace dauth::core {

DauthNode::DauthNode(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
                     sim::NodeIndex directory_node,
                     directory::DirectoryServer& directory_server,
                     const FederationConfig& config, std::uint64_t seed,
                     store::KvStore* store)
    : rpc_(rpc),
      node_(node),
      id_(std::move(id)),
      directory_server_(directory_server),
      config_(config),
      store_(store),
      rng_("dauth-node:" + id_.str(), seed) {
  signing_key_ = crypto::ed25519_generate(rng_);
  suci_key_ = crypto::x25519_generate(rng_);
  crypto::DeterministicDrbg channel_rng("channel:" + id_.str(), seed);
  channel_key_ = crypto::x25519_generate(channel_rng);

  directory_client_ = std::make_unique<directory::DirectoryClient>(rpc_, node_, directory_node);
  home_ = std::make_unique<HomeNetwork>(rpc_, node_, id_, signing_key_, suci_key_,
                                        channel_key_.secret, *directory_client_, config,
                                        crypto::DeterministicDrbg("home:" + id_.str(), seed));
  backup_ = std::make_unique<BackupNetwork>(rpc_, node_, id_, channel_key_.secret,
                                            *directory_client_, config, store);
  serving_ = std::make_unique<ServingNetwork>(rpc_, node_, id_, signing_key_,
                                              *directory_client_, config, home_.get());

  home_->bind_services();
  backup_->bind_services();
  serving_->bind_services();

  // Administrative registration: publish our self-signed NetworkEntry.
  directory_server_.register_network(
      directory::make_network_entry(id_, signing_key_, suci_key_.public_key,
                                    channel_key_.public_key, static_cast<std::uint64_t>(node_)));
}

aka::SubscriberKeys DauthNode::provision_subscriber(const Supi& supi) {
  aka::SubscriberKeys keys;
  keys.k = rng_.array<16>();
  const crypto::MilenageOp op = rng_.array<16>();
  keys.opc = crypto::derive_opc(keys.k, op);

  home_->provision_subscriber(supi, keys);
  directory_server_.register_user(directory::make_user_entry(supi, id_, signing_key_));
  return keys;
}

void DauthNode::set_backups(const std::vector<NetworkId>& backups) {
  home_->set_backups(backups);
  directory_server_.set_backups(directory::make_backups_entry(id_, backups, signing_key_));
}

void DauthNode::restart_backup() {
  backup_.reset();
  backup_ = std::make_unique<BackupNetwork>(rpc_, node_, id_, channel_key_.secret,
                                            *directory_client_, config_, store_);
  backup_->bind_services();
  observe_backup();
}

void DauthNode::set_observability(obs::MetricsRegistry* registry,
                                  obs::EventJournal* journal) {
  registry_ = registry;
  journal_ = journal;
  if (registry != nullptr) register_metrics(*registry, "home." + id_.str(), home_->metrics());
  home_->set_journal(journal);
  observe_backup();
  serving_->set_observability(registry, journal);
}

void DauthNode::observe_backup() {
  if (registry_ != nullptr) {
    register_metrics(*registry_, "backup." + id_.str(), backup_->metrics());
  }
  backup_->set_journal(journal_);
}

}  // namespace dauth::core
