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
#include "crypto/pairwise.h"
#include "directory/client.h"
#include "sim/rpc.h"
#include "store/kv_store.h"
#include "wire/sequence.h"

namespace dauth::obs {
class EventJournal;
}  // namespace dauth::obs

namespace dauth::core {

/// A leaf a backup no longer holds, in a BatchRecord: its index and its leaf
/// hash, which the paths of the leaves still held in its group need.
struct ReleasedLeaf {
  std::uint16_t leaf = 0;
  crypto::Sha256Digest hash{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.leaf, m.hash);
  }
};

/// A backup's record of one held batch, the value of "batch/<home>/<batch
/// root>" in its store and, encoded, the batch itself in its memory (one
/// buffer, shared with the store): the batch as its home pushed it
/// (StoreBatch), but for its tree; the leaves the backup has let go, by
/// hash; then the leaves it still holds, each with nothing but its own
/// fields, in the order they were pushed. A held batch's first record is
/// its push's leaf sequences, copied. Every leaf of the batch is one or the
/// other, once, so the hashes give the tree back. Every batch is one user's, and a lone bundle is a
/// one-leaf batch. The bundles served, after a restart too, are rebuilt from
/// it, byte for byte. Every leaf's fields have a fixed width, so a held
/// batch reads them in place (wire/sequence.h).
struct BatchRecord {
  Supi supi;
  std::uint16_t batch_index = 0;
  std::uint16_t batch_count = 1;
  crypto::Ed25519Signature signature{};
  std::vector<crypto::Sha256Digest> round;  // the round path
  std::vector<ReleasedLeaf> released;       // in the order they were let go
  wire::EncodedSequence<VectorLeaf> vectors;
  wire::EncodedSequence<ShareLeaf, SecretBytes> shares;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.batch_index, m.batch_count, m.signature, m.round, m.released, m.vectors);
    f.field(m.shares);  // DAUTH_DISCLOSE(a held batch's record keeps the backup's own shares of K_seaf, §4.2.1)
  }
};

/// A BatchRecord's leading fields, up to its leaves: what a served bundle
/// takes from its batch but for the tree.
struct BatchHeader {
  Supi supi;
  std::uint16_t batch_index = 0;
  std::uint16_t batch_count = 1;
  crypto::Ed25519Signature signature{};
  std::vector<crypto::Sha256Digest> round;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.batch_index, m.batch_count, m.signature, m.round);
  }
};

/// A pending usage proof's entry in its home's open segment, the value of
/// "proof/<home>/<first sequence number>" in a backup's store: what a
/// restore cannot rebuild. Its H(XRES*) is H(RES*), and the home is the
/// key's. A segment is its entries' encodings back to back, appended one at
/// a time (KvStore::append), in the order they were pended.
struct ProofEntry {
  Supi supi;
  NetworkId serving_network;
  crypto::ResStar res_star{};
  Time timestamp = 0;
  crypto::Ed25519Signature serving_signature{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.serving_network);
    f.field(m.res_star);  // DAUTH_DISCLOSE(a pending proof keeps its spent RES* until its home acks the report, §4.2.3)
    f.field(m.timestamp, m.serving_signature);
  }
};

class BackupNetwork {
 public:
  /// `store` may be null (ephemeral); when set, all delegated material
  /// (held batches, pending proofs, each home's SUCI secret) is persisted and
  /// restored on construction — a restarted daemon picks up where it left
  /// off (§5.1: "It uses SQLite to store persistent state").
  /// `channel_secret` is the network's channel key (DauthNode), from which
  /// the role derives its push key with each home (store_tag, revoke_tag).
  BackupNetwork(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
                crypto::X25519Scalar channel_secret, directory::DirectoryClient& directory,
                FederationConfig config, store::KvStore* store = nullptr);

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
  /// A held batch: its tree, as its home pushed it or rebuilt at restore,
  /// which keeps no leaf level (a served path's group comes from the held
  /// leaves, rehashed, and the released ones),
  /// and its BatchRecord, encoded, in one immutable buffer that a backup
  /// with a store shares with it; a backup without one owns the only
  /// reference. Held vectors, shares and released leaves are read from the
  /// record's bytes in place, and the offsets of its three leaf sequences
  /// are kept beside it. The record's vectors are in serve order
  /// (`served_before`: floods first, §4.3, then by SQN) and its shares
  /// sorted by H(XRES*). Every change to its leaves builds the record's next
  /// version and swaps it in.
  struct HeldBatch {
    crypto::MerkleTree tree;
    store::Value record;
    std::uint32_t released_at = 0;  // where each leaf sequence starts
    std::uint32_t vectors_at = 0;
    std::uint32_t vectors_end = 0;  // the shares' start

    /// Finds the record's leaf sequences, given how many leaves each holds.
    void locate(std::size_t released_count, std::size_t vector_count, std::size_t share_count);
    BatchHeader header() const;
    wire::FixedSequence<ReleasedLeaf> released() const;
    wire::FixedSequence<VectorLeaf> vectors() const;
    wire::FixedSequence<ShareLeaf> shares() const;
    /// Lets go of held leaf `index` of the record's `Leaf` sequence (vectors
    /// or shares): the next record version leaves it out and appends its
    /// hash to the released leaves.
    template <typename Leaf>
    void release(const UserKey& user, std::size_t index);
  };
  // Budget, so the decoded leaves cannot silently grow back beside the
  // record: a held batch is its tree, a shared record and three offsets.
  static_assert(sizeof(HeldBatch) <= 64, "a held batch outgrew its budget");
  struct UserState {
    std::map<crypto::Sha256Digest, HeldBatch> batches;  // by batch root
    /// Vectors held across every batch.
    std::size_t vectors() const;
  };
  /// A usage proof waiting for its home's ack, at its own bytes: what the
  /// proof does not share with its user, its home's FIFO and the backup's
  /// table of serving networks. Its H(XRES*) is H(RES*), recomputed; `tag`
  /// is that digest's first four bytes, which order the dedupe index
  /// without a hash per comparison.
  struct PendingProof {
    crypto::ResStar res_star{};
    crypto::Ed25519Signature signature{};
    Time timestamp = 0;
    const UserKey* user = nullptr;  // a key of users_, which erases none
    std::uint32_t serving = 0;      // index into serving_networks_
    std::uint32_t tag = 0;
  };
  // Budget, so a pending proof cannot grow back into two strings in a
  // vector that only doubles: RES* 16 + signature 64 + timestamp 8 + user 8
  // + serving 4 + tag 4, in 416 B deque chunks of four.
  static_assert(sizeof(PendingProof) <= 104, "a pending proof outgrew its budget");
  struct HomeState {
    std::optional<crypto::X25519Scalar> suci_secret;
    /// Proofs not yet acked, one per (H(XRES*), serving network), oldest
    /// first; the front's sequence number is `first_seq` and each later
    /// one's is one more. An ack pops the prefix its report listed.
    std::deque<PendingProof> pending;
    std::uint64_t first_seq = 0;
    /// The sequence numbers of `pending`, sorted by (H(XRES*), serving
    /// network), so a proof already pending is found and not added again.
    std::vector<std::uint64_t> by_proof;
    /// With a store: the first sequence number of the segment a released
    /// share's proof is appended to, unset once report_now has sealed it at
    /// its report's end, so every report ends on a segment boundary and its
    /// ack erases whole segments.
    std::optional<std::uint64_t> open_segment;
    bool report_armed = false;
  };

  void handle_store(StoreMaterialRequest req, sim::TypedResponder<sim::Ack> responder);
  void handle_get_vector(GetVectorRequest req,
                         sim::TypedResponder<AuthVectorBundle> responder);
  void handle_get_share(UsageProof proof, sim::TypedResponder<ShareReply> responder);
  void handle_revoke_shares(RevokeSharesRequest req, sim::TypedResponder<sim::Ack> responder);
  /// Arms a one-shot report attempt for `home` after report_interval,
  /// unless one is already armed. Event-driven (no standing timer): the
  /// simulator queue drains once nothing is pending.
  void arm_report(const NetworkId& home);
  /// Adds `proof`, of `user`'s (a key of users_), to its home's pending
  /// proofs unless one of its H(XRES*) and serving network is already there;
  /// false when it was. A released share and restore enter every proof
  /// here.
  bool pend(const UserKey& user, const UsageProof& proof);
  /// The pending proof `pending` as the serving network signed it.
  UsageProof proof_of(const PendingProof& pending) const;
  /// Appends `proof`, the last one `home` pended, to its open segment,
  /// opening one at its sequence number when none is.
  void persist_proof(const NetworkId& home, const UsageProof& proof);
  /// Pops `home`'s pending proofs below sequence number `end`, the ones a
  /// report listed, from memory, and erases the segments that start below
  /// `end` from the store; one its home acked already, by a later report,
  /// is not cleared twice.
  void acked(const NetworkId& home, std::uint64_t end);
  /// The leaf hashes of the group of `held`'s leaf `leaf`, which a served
  /// path is cut from (MerkleTree::path): a held leaf's rehashed from its
  /// encoded fields and `user`, a released one's as kept.
  static std::vector<crypto::Sha256Digest> group(const UserKey& user, const HeldBatch& held,
                                                 std::uint16_t leaf);
  /// The held share of `hxres` among `user`'s batches, as its batch and its
  /// index in the batch's shares, or nullopt.
  static std::optional<std::pair<HeldBatch*, std::size_t>> find_share(UserState& user,
                                                                      const ByteArray<16>& hxres);
  /// Holds the batch of `tree` and `record`, whose leaves are in held order
  /// (a pushed batch is well_formed; restore puts a stored record back in
  /// it), as one of `user`'s. `stored` is the record's encoding when it has
  /// one (restore); else the record is encoded, its leaf sequences copied.
  /// nullptr when a batch of its root is already held. Store and restore
  /// enter every batch here.
  static HeldBatch* hold(UserState& user, crypto::MerkleTree tree, const BatchRecord& record,
                         store::Value stored = nullptr);
  /// The batch that serves `user`'s next vector: of the batches holding
  /// one, the one whose front vector is served first. nullptr when none.
  static HeldBatch* next_batch(UserState& user);
  /// Releases `user`'s held vector of `hxres`, if any, and returns its batch.
  static HeldBatch* take_vector(const UserKey& key, UserState& user, const ByteArray<16>& hxres);
  /// Puts `held`'s BatchRecord in the store, or, once it holds nothing,
  /// erases the record and drops the batch from `state`. Every change to a
  /// batch's held leaves (store, serve, flood-copy drop, revoke) ends here,
  /// once per batch.
  void persist_batch(const UserKey& user, UserState& state, const HeldBatch& held);
  /// Rebuilds in-memory state from the persistent store (called at
  /// construction when a store is present).
  void restore_from_store();
  /// Pends every home's stored segments' entries, in key order and each
  /// segment's order, appending the restored proofs of each home to one
  /// segment under a key past its stored ones, then erases those. So a
  /// sequence number is never reused while its segment is live, and
  /// `pending` and the segments number their proofs alike.
  void restore_proofs();
  /// `fn`, made to run only while this instance lives. Every callback the
  /// role queues (a node job, the report timer, a directory lookup, an RPC
  /// reply) is wrapped here, so that a restart (DauthNode::restart_backup)
  /// drops the old instance's events, as a crashed daemon's work is lost.
  /// The node is not crashed (sim::Node::set_online would drop its other
  /// roles' jobs too), so the token is the role's own.
  template <typename Fn>
  auto live(Fn fn) const {
    return [alive = std::weak_ptr<const bool>(alive_), fn = std::move(fn)](
               auto&&... args) mutable {
      if (!alive.expired()) fn(std::forward<decltype(args)>(args)...);
    };
  }

  sim::Rpc& rpc_;
  sim::NodeIndex node_;
  NetworkId id_;
  /// Keys of the push tags, one per home (crypto/pairwise.h).
  crypto::PairwiseKeys push_keys_;
  directory::DirectoryClient& directory_;
  FederationConfig config_;
  store::KvStore* store_;

  std::map<UserKey, UserState> users_;
  std::map<NetworkId, HomeState> homes_;
  /// Every serving network a pending proof has named, interned: a proof
  /// reaches pend only once its signature verified under the directory's
  /// key for that network, so the table is bounded by the directory.
  std::vector<NetworkId> serving_networks_;
  BackupMetrics metrics_;
  obs::EventJournal* journal_ = nullptr;
  /// Expires with this instance; see live().
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace dauth::core
