// Backup-network role: semi-trusted custodian of pre-generated material.
//
// A backup network stores home-signed vector bundles (its own SQN slice)
// and key-share bundles (its share of every sibling vector). It serves
// vectors to any serving network, but releases a key share only against a
// valid usage proof — the serving network's signed RES* preimage (§4.2.2).
// Consumed-vector proofs are persisted and reported to the home network
// when it is reachable again (§4.2.3). The backup never sees K_i, a
// complete K_seaf, or more than its single share.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "core/typed_stub.h"
#include "directory/client.h"
#include "sim/rpc.h"
#include "store/kv_store.h"

namespace dauth::obs {
class EventJournal;
}  // namespace dauth::obs

namespace dauth::core {

class BackupNetwork {
 public:
  /// `store` may be null (ephemeral); when set, all delegated material
  /// (vectors, key shares, pending proofs, per-home keys) is persisted and
  /// restored on construction — a restarted daemon picks up where it left
  /// off (§5.1: "It uses SQLite to store persistent state").
  BackupNetwork(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
                directory::DirectoryClient& directory, FederationConfig config,
                store::KvStore* store = nullptr);

  const NetworkId& id() const noexcept { return id_; }

  /// Registers "backup.store" / "backup.get_vector" / "backup.get_share" /
  /// "backup.revoke_shares" services, and starts the report timer.
  void bind_services();

  /// Number of stored vectors for a user (tests).
  std::size_t stored_vectors(const NetworkId& home, const Supi& supi) const;
  /// Number of stored key shares for a user (tests).
  std::size_t stored_shares(const NetworkId& home, const Supi& supi) const;
  /// Usage proofs not yet acknowledged by the home network.
  std::size_t pending_reports(const NetworkId& home) const;

  const BackupMetrics& metrics() const noexcept { return metrics_; }

  /// Records lifecycle events (bundles stored, shares released, revocations,
  /// reports) in the shared journal. Null (default) disables.
  void set_journal(obs::EventJournal* journal) noexcept { journal_ = journal; }

  /// Immediately attempts to report pending proofs to one home network
  /// (the periodic timer calls this; tests may force it).
  void report_now(const NetworkId& home);

 private:
  struct UserKey {
    NetworkId home;
    Supi supi;
    bool operator<(const UserKey& other) const {
      return std::tie(home, supi) < std::tie(other.home, other.supi);
    }
  };
  /// What a stored bundle's path is rebuilt from: its batch's Merkle tree
  /// and the batch's round path, held once for all of the batch's bundles.
  struct HeldBatch {
    crypto::MerkleTree tree;
    std::vector<crypto::Sha256Digest> round;

    /// The served path of leaf `index`: in-batch path, then round path.
    std::vector<crypto::Sha256Digest> path(std::size_t index) const;
    /// The persisted batch record: the leaf hashes, then the round path.
    Bytes encode() const;
    static HeldBatch decode(ByteView data);
  };
  /// Null for a lone bundle (its path is empty).
  using SharedBatch = std::shared_ptr<const HeldBatch>;
  /// Stored bundles keep an empty path: it is rebuilt from the held batch
  /// whenever the bundle is served.
  struct HeldVector {
    AuthVectorBundle bundle;
    SharedBatch batch;
  };
  /// A share is kept in wire form (self-wiping): once checked at store
  /// time the backup only serves it, so a decoded copy would cost ~150 B
  /// more per share for nothing.
  struct HeldShare {
    SecretBytes wire;
    SharedBatch batch;
  };
  struct UserState {
    std::deque<HeldVector> vectors;                // flood vectors at the front
    std::map<ByteArray<16>, HeldShare> shares;     // by H(XRES*)
  };
  struct HomeState {
    std::optional<crypto::X25519Scalar> suci_secret;
    crypto::Ed25519PublicKey home_key{};
    bool home_key_known = false;
    std::vector<UsageProof> pending_proofs;
    bool report_armed = false;
  };

  void handle_store(ByteView request, sim::Responder responder);
  void handle_get_vector(ByteView request, sim::Responder responder);
  void handle_get_share(ByteView request, sim::Responder responder);
  void handle_revoke_shares(ByteView request, sim::Responder responder);
  /// Arms a one-shot report attempt for `home` after report_interval,
  /// unless one is already armed. Event-driven (no standing timer): the
  /// simulator queue drains once nothing is pending.
  void arm_report(const NetworkId& home);
  void persist_proof(const NetworkId& home, const UsageProof& proof);
  /// A stored bundle with its inclusion path (in-batch, then round)
  /// attached: a vector encoded, a share decoded (it rides inside a
  /// ShareReply).
  static Bytes served(const HeldVector& held);
  static KeyShareBundle served(const HeldShare& held);
  /// Called before a held bundle is dropped: erases the persisted batch
  /// record once no stored bundle references the batch any more.
  void release_batch(const NetworkId& home, const SharedBatch& batch);
  /// Rebuilds in-memory state from the persistent store (called at
  /// construction when a store is present).
  void restore_from_store();

  sim::Rpc& rpc_;
  sim::NodeIndex node_;
  NetworkId id_;
  directory::DirectoryClient& directory_;
  FederationConfig config_;
  store::KvStore* store_;

  TypedStub<ReportRequest, Ack> report_stub_;

  std::map<UserKey, UserState> users_;
  std::map<NetworkId, HomeState> homes_;
  BackupMetrics metrics_;
  obs::EventJournal* journal_ = nullptr;
};

}  // namespace dauth::core
