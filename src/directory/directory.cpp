#include "directory/directory.h"

namespace dauth::directory {
namespace {

constexpr std::string_view kNetworkPrefix = "dir/net/";
constexpr std::string_view kUserPrefix = "dir/user/";
constexpr std::string_view kBackupsPrefix = "dir/backups/";

}  // namespace

// ---- Signed entries -----------------------------------------------------------

bool NetworkEntry::verify() const {
  return crypto::ed25519_verify(signed_payload(), signature, signing_key);
}

bool UserEntry::verify(const crypto::Ed25519PublicKey& home_key) const {
  return crypto::ed25519_verify(signed_payload(), signature, home_key);
}

bool BackupsEntry::verify(const crypto::Ed25519PublicKey& home_key) const {
  return crypto::ed25519_verify(signed_payload(), signature, home_key);
}

// ---- Builders ---------------------------------------------------------------

NetworkEntry make_network_entry(const NetworkId& id, const crypto::Ed25519KeyPair& key_pair,
                                const crypto::X25519Point& suci_key,
                                const crypto::X25519Point& channel_key, std::uint64_t address) {
  NetworkEntry e;
  e.id = id;
  e.signing_key = key_pair.public_key;
  e.suci_key = suci_key;
  e.channel_key = channel_key;
  e.address = address;
  e.signature = crypto::ed25519_sign(e.signed_payload(), key_pair);
  return e;
}

UserEntry make_user_entry(const Supi& supi, const NetworkId& home,
                          const crypto::Ed25519KeyPair& home_key) {
  UserEntry e;
  e.supi = supi;
  e.home_network = home;
  e.signature = crypto::ed25519_sign(e.signed_payload(), home_key);
  return e;
}

BackupsEntry make_backups_entry(const NetworkId& home, std::vector<NetworkId> backups,
                                const crypto::Ed25519KeyPair& home_key) {
  BackupsEntry e;
  e.home_network = home;
  e.backups = std::move(backups);
  e.signature = crypto::ed25519_sign(e.signed_payload(), home_key);
  return e;
}

// ---- DirectoryServer --------------------------------------------------------

DirectoryServer::DirectoryServer(store::KvStore* persistent) : store_(persistent) {
  if (store_ != nullptr) load_persisted();
}

void DirectoryServer::persist(const std::string& path, ByteView value) {
  if (store_ != nullptr) store_->put(path, value);
}

void DirectoryServer::load_persisted() {
  for (const auto& key : store_->keys_with_prefix(std::string(kNetworkPrefix))) {
    const auto entry = wire::decode<NetworkEntry>(*store_->get(key));
    networks_[entry.id] = entry;
  }
  for (const auto& key : store_->keys_with_prefix(std::string(kUserPrefix))) {
    const auto entry = wire::decode<UserEntry>(*store_->get(key));
    users_[entry.supi] = entry;
  }
  for (const auto& key : store_->keys_with_prefix(std::string(kBackupsPrefix))) {
    const auto entry = wire::decode<BackupsEntry>(*store_->get(key));
    backups_[entry.home_network] = entry;
  }
}

bool DirectoryServer::register_network(const NetworkEntry& entry) {
  if (!entry.verify()) return false;
  networks_[entry.id] = entry;
  persist(std::string(kNetworkPrefix) + entry.id.str(), wire::encode(entry));
  return true;
}

bool DirectoryServer::register_user(const UserEntry& entry) {
  const auto home = networks_.find(entry.home_network);
  if (home == networks_.end()) return false;
  if (!entry.verify(home->second.signing_key)) return false;
  users_[entry.supi] = entry;
  persist(std::string(kUserPrefix) + entry.supi.str(), wire::encode(entry));
  return true;
}

bool DirectoryServer::set_backups(const BackupsEntry& entry) {
  const auto home = networks_.find(entry.home_network);
  if (home == networks_.end()) return false;
  if (!entry.verify(home->second.signing_key)) return false;
  backups_[entry.home_network] = entry;
  persist(std::string(kBackupsPrefix) + entry.home_network.str(), wire::encode(entry));
  return true;
}

std::optional<NetworkEntry> DirectoryServer::network(const NetworkId& id) const {
  const auto it = networks_.find(id);
  if (it == networks_.end()) return std::nullopt;
  return it->second;
}

std::optional<UserEntry> DirectoryServer::user(const Supi& supi) const {
  const auto it = users_.find(supi);
  if (it == users_.end()) return std::nullopt;
  return it->second;
}

std::optional<BackupsEntry> DirectoryServer::backups(const NetworkId& home) const {
  const auto it = backups_.find(home);
  if (it == backups_.end()) return std::nullopt;
  return it->second;
}

void DirectoryServer::bind(sim::Rpc& rpc, sim::NodeIndex node) {
  sim::serve(rpc, node, kGetNetwork,
             [this](NameLookup lookup, sim::TypedResponder<NetworkEntry> r) {
               const NetworkId id(lookup.name);
               const auto entry = network(id);
               if (!entry) {
                 r.fail(sim::AppErrorCode::kNotFound, "unknown network " + id.str());
                 return;
               }
               r.reply(*entry);
             });

  sim::serve(rpc, node, kGetHome, [this](NameLookup lookup, sim::TypedResponder<UserEntry> r) {
    const auto entry = user(Supi(lookup.name));
    if (!entry) {
      r.fail(sim::AppErrorCode::kNotFound, "unknown user");
      return;
    }
    r.reply(*entry);
  });

  sim::serve(rpc, node, kGetBackups,
             [this](NameLookup lookup, sim::TypedResponder<BackupsEntry> r) {
               const NetworkId home(lookup.name);
               const auto entry = backups(home);
               if (!entry) {
                 r.fail(sim::AppErrorCode::kNotFound, "no backups registered for " + home.str());
                 return;
               }
               r.reply(*entry);
             });

  sim::serve(rpc, node, kRegisterNetwork,
             [this](NetworkEntry entry, sim::TypedResponder<sim::Ack> r) {
               if (register_network(entry)) {
                 r.reply({});
               } else {
                 r.fail(sim::AppErrorCode::kUnauthorized, "invalid network entry signature");
               }
             });

  sim::serve(rpc, node, kRegisterUser, [this](UserEntry entry, sim::TypedResponder<sim::Ack> r) {
    if (register_user(entry)) {
      r.reply({});
    } else {
      r.fail(sim::AppErrorCode::kUnauthorized, "invalid user entry");
    }
  });

  sim::serve(rpc, node, kSetBackups, [this](BackupsEntry entry, sim::TypedResponder<sim::Ack> r) {
    if (set_backups(entry)) {
      r.reply({});
    } else {
      r.fail(sim::AppErrorCode::kUnauthorized, "invalid backups entry");
    }
  });
}

}  // namespace dauth::directory
