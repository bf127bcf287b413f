// Public distributed directory service (paper §3.4, §5.3).
//
// The directory holds only *non-sensitive, slow-changing* data:
//   * per-network entries: Ed25519 signing key, X25519 SUCI and channel
//     keys, address — self-signed by the network;
//   * subscriber -> home-network mappings — signed by the home network;
//   * home-network -> backup-network lists — signed by the home network.
// Because every entry carries its owner's signature, the directory itself
// needs no trust: clients verify signatures against the network keys
// (anchored the same way a verifiable key directory / DNSSEC chain would
// be). Entries change rarely, so clients cache aggressively (§5.1 opt. 2).
//
// DirectoryServer exposes both a synchronous local API (for tests) and RPC
// services ("dir.*") when bound to a simulator node.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "crypto/ed25519.h"
#include "crypto/x25519.h"
#include "sim/service.h"
#include "store/kv_store.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::directory {

/// Request payload for the "dir.get_*" lookups: a bare name — a network id
/// for get_network/get_backups, a SUPI for get_home. (Wire-compatible with
/// the original raw length-prefixed string request.)
struct NameLookup {
  std::string name;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.name);
  }
};

/// Self-signed descriptor of one federation member.
struct NetworkEntry {
  NetworkId id;
  crypto::Ed25519PublicKey signing_key{};
  crypto::X25519Point suci_key{};
  /// The key this network derives its pairwise keys with each peer from
  /// (crypto/pairwise.h). Not the SUCI key: a home hands its SUCI secret to
  /// every backup.
  crypto::X25519Point channel_key{};
  std::uint64_t address = 0;  // sim::NodeIndex of the network's dAuth daemon
  crypto::Ed25519Signature signature{};

  static constexpr std::string_view kDomain = "network-entry-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.id, m.signing_key, m.suci_key, m.channel_key, m.address);
    f.tail(m.signature);
  }
  Bytes signed_payload() const { return wire::signed_payload(*this); }
  bool verify() const;
};

/// Subscriber -> home mapping, signed by the home network.
struct UserEntry {
  Supi supi;
  NetworkId home_network;
  crypto::Ed25519Signature signature{};

  static constexpr std::string_view kDomain = "user-entry-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.home_network);
    f.tail(m.signature);
  }
  Bytes signed_payload() const { return wire::signed_payload(*this); }
  bool verify(const crypto::Ed25519PublicKey& home_key) const;
};

/// Home -> elected backup networks, signed by the home network.
struct BackupsEntry {
  NetworkId home_network;
  std::vector<NetworkId> backups;
  crypto::Ed25519Signature signature{};

  static constexpr std::string_view kDomain = "backups-entry-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.home_network, m.backups);
    f.tail(m.signature);
  }
  Bytes signed_payload() const { return wire::signed_payload(*this); }
  bool verify(const crypto::Ed25519PublicKey& home_key) const;
};

class DirectoryServer {
 public:
  /// `store` may be null for a purely in-memory directory.
  explicit DirectoryServer(store::KvStore* persistent = nullptr);

  // -- Local (synchronous) API ------------------------------------------------
  /// Accepts an entry after verifying its self-signature.
  bool register_network(const NetworkEntry& entry);
  /// Accepts a mapping after verifying the home network's signature.
  bool register_user(const UserEntry& entry);
  bool set_backups(const BackupsEntry& entry);

  std::optional<NetworkEntry> network(const NetworkId& id) const;
  std::optional<UserEntry> user(const Supi& supi) const;
  std::optional<BackupsEntry> backups(const NetworkId& home) const;

  std::size_t network_count() const noexcept { return networks_.size(); }

  // -- RPC binding -------------------------------------------------------------
  /// Serves the dir.* services below on `node`.
  void bind(sim::Rpc& rpc, sim::NodeIndex node);

 private:
  void persist(const std::string& path, ByteView value);
  void load_persisted();

  std::map<NetworkId, NetworkEntry> networks_;
  std::map<Supi, UserEntry> users_;
  std::map<NetworkId, BackupsEntry> backups_;
  store::KvStore* store_;
};

/// The directory's services: three lookups by name, and three signed
/// registrations, each acknowledged once its signature verifies.
inline constexpr sim::Service<NameLookup, NetworkEntry> kGetNetwork{"dir.get_network"};
inline constexpr sim::Service<NameLookup, UserEntry> kGetHome{"dir.get_home"};
inline constexpr sim::Service<NameLookup, BackupsEntry> kGetBackups{"dir.get_backups"};
inline constexpr sim::Service<NetworkEntry, sim::Ack> kRegisterNetwork{"dir.register_network"};
inline constexpr sim::Service<UserEntry, sim::Ack> kRegisterUser{"dir.register_user"};
inline constexpr sim::Service<BackupsEntry, sim::Ack> kSetBackups{"dir.set_backups"};

/// Signing helpers used by networks when producing their own entries.
NetworkEntry make_network_entry(const NetworkId& id, const crypto::Ed25519KeyPair& key_pair,
                                const crypto::X25519Point& suci_key,
                                const crypto::X25519Point& channel_key, std::uint64_t address);
UserEntry make_user_entry(const Supi& supi, const NetworkId& home,
                          const crypto::Ed25519KeyPair& home_key);
BackupsEntry make_backups_entry(const NetworkId& home, std::vector<NetworkId> backups,
                                const crypto::Ed25519KeyPair& home_key);

}  // namespace dauth::directory
