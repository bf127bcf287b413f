// Home-network role: the anchor of a subscriber's identity (paper §3.3).
//
// Responsibilities:
//   * hold subscriber keys (K, OPc) and the per-slice SQN allocator;
//   * serve one-time vectors to serving networks while online (§4.1,
//     Fig. 8), releasing K_seaf only after a valid RES* preimage;
//   * pre-generate vector + key-share material, one SQN slice per backup
//     network, and disseminate it (§4.2.1);
//   * process usage reports from backups: per user, invalidate the consumed
//     vectors' sibling key shares with one tagged revoke and refill the
//     consumed slots with one signed round, and cross-check for
//     inconsistent reports (§4.2.3);
//   * revoke a compromised backup (§4.3): supersede its SQN slice, flood a
//     fresh vector to the remaining backups, and order the matching key
//     shares deleted.
//
// The federation shares one PLMN / serving-network name (the CBRS
// shared-HNI deployment model used by community networks), which is what
// makes 5G-AKA vector pre-generation possible — see DESIGN.md.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "aka/auth_vector.h"
#include "aka/sqn.h"
#include "aka/suci.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "crypto/pairwise.h"
#include "directory/client.h"
#include "sim/rpc.h"

namespace dauth::obs {
class EventJournal;
}  // namespace dauth::obs

namespace dauth::core {

/// Computes dAuth's share/vector index: H(XRES*) truncated to 16 bytes.
/// (Distinct from 3GPP's HXRES*, which binds RAND; backups must be able to
/// check the preimage without holding the vector, so the index hashes the
/// response alone — exactly the H(XRES) of the paper's Algorithm 1.)
ByteArray<16> hxres_index(const crypto::ResStar& res_star);

class HomeNetwork {
 public:
  HomeNetwork(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
              crypto::Ed25519KeyPair signing_key, crypto::X25519KeyPair suci_key,
              crypto::X25519Scalar channel_secret,
              directory::DirectoryClient& directory, FederationConfig config,
              crypto::DeterministicDrbg rng);

  const NetworkId& id() const noexcept { return id_; }

  /// Adds a subscriber. Must be called before dissemination or auth.
  void provision_subscriber(const Supi& supi, const aka::SubscriberKeys& keys);
  bool has_subscriber(const Supi& supi) const { return subscribers_.contains(supi); }

  /// Configures the backup set. Backup i is assigned SQN slice i+1
  /// (slice 0 stays with the home network). At most kSliceCount-1 backups.
  void set_backups(const std::vector<NetworkId>& backups);
  const std::vector<NetworkId>& backups() const noexcept { return backup_ids_; }

  /// Pre-generates and pushes `config.vectors_per_backup` vectors per backup
  /// for one subscriber as one round (§4.2.1). `done(ok_count)` fires after
  /// all backup stores complete or fail.
  void disseminate(const Supi& supi, std::function<void(std::size_t)> done = nullptr);

  /// Revokes a backup network (§4.3). Removes it from the backup set,
  /// orders remaining backups to delete the revoked network's sibling key
  /// shares, supersedes its SQN slices, and floods one fresh vector per
  /// subscriber to the remaining backups.
  void revoke_backup(const NetworkId& revoked, std::function<void()> done = nullptr);

  /// Local vector generation for this network's own serving role (LocalAuth
  /// endpoint): no signing, no network hop.
  AuthVectorBundle generate_local_vector(const Supi& supi, crypto::Key256& k_seaf_out);

  /// Local AUTS resynchronisation (serving == home): validates MAC-S,
  /// brings the allocator past SQNms, and returns a fresh vector; nullopt
  /// on an invalid AUTS.
  std::optional<AuthVectorBundle> resync_and_generate_local(const Supi& supi,
                                                           const crypto::Rand& failed_rand,
                                                           const aka::Auts& auts,
                                                           crypto::Key256& k_seaf_out);

  /// Registers "home.get_vector" / "home.get_key" / "home.report" /
  /// "home.resync" on the node. Call once after construction.
  void bind_services();

  /// Models losing SQN allocator state (crash + restore from a stale
  /// backup): subsequent vectors repeat old sequence numbers until an AUTS
  /// resynchronisation (TS 33.102 §6.3.5) brings the allocator forward.
  void reset_subscriber_sqn(const Supi& supi);

  const HomeMetrics& metrics() const noexcept { return metrics_; }

  /// Records lifecycle events (vectors served, keys released, anomalies,
  /// revocations...) in the shared journal. Null (default) disables.
  void set_journal(obs::EventJournal* journal) noexcept { journal_ = journal; }

  /// Inconsistencies observed in reports (distinct serving networks claiming
  /// the same vector, bad signatures...) — §4.2.3 accountability.
  const std::vector<std::string>& anomalies() const noexcept { return anomalies_; }

  /// §7.4 billing hook: authenticated usage per serving network, built from
  /// verified usage proofs ("as these are reported when used by serving
  /// networks, operators ensure that users receive Internet access and that
  /// revenue can be shared with serving networks").
  const std::map<NetworkId, std::uint64_t>& usage_ledger() const noexcept {
    return usage_ledger_;
  }

  /// Disseminated vectors of `supi` not yet reported used (tests).
  std::size_t outstanding_vectors(const Supi& supi) const {
    const auto it = subscribers_.find(supi);
    return it == subscribers_.end() ? 0 : it->second.outstanding.size();
  }

  /// Keys of home-online vectors of `supi` awaiting their proof (tests).
  std::size_t pending_keys(const Supi& supi) const {
    const auto it = subscribers_.find(supi);
    return it == subscribers_.end() ? 0 : it->second.pending_keys.size();
  }

  /// The X25519 SUCI key pair (secret shared with backups at dissemination).
  const crypto::X25519KeyPair& suci_keys() const noexcept { return suci_key_; }

 private:
  struct DisseminatedVector {
    std::uint64_t sqn = 0;
    int holder = -1;  // SQN slice of the backup holding the vector itself
  };

  // Per-vector state is keyed by the vector's H(XRES*) index.
  struct Subscriber {
    aka::SubscriberKeys keys;
    aka::SqnAllocator sqn;
    // Home-online flow: keys awaiting the RES* proof.
    std::map<ByteArray<16>, crypto::Key256> pending_keys;
    // All outstanding disseminated vectors.
    std::map<ByteArray<16>, DisseminatedVector> outstanding;
    // Seen usage proofs -> serving network, for consistency checks across
    // backup reports.
    std::map<ByteArray<16>, NetworkId> seen_proofs;
  };

  /// The one vector issue path: allocates the next SQN in `slice`, fills
  /// `leaf` with it and `rand` and returns its K_seaf. A lone vector
  /// (home-online, resync) draws its RAND as one request; a round's come
  /// from generate_material.
  crypto::Key256 new_vector(Subscriber& subscriber, int slice, const crypto::Rand& rand,
                            VectorLeaf& leaf);

  /// Issues one vector in each of `slices`, in order, and returns them, and
  /// sets the shares of the batch of `requests[b]`, for each b: a share of
  /// every vector's K_seaf at x = b + 1, the one of vector i numbered
  /// vectors_held[b] + i (the batch's vectors come first), in H(XRES*)
  /// order (StoreBatch). The round's randomness is two requests on rng_:
  /// every RAND, then every vector's threshold - 1 coefficient rows.
  std::vector<VectorLeaf> generate_material(Subscriber& subscriber, std::span<const int> slices,
                                            bool flood, std::span<StoreMaterialRequest> requests,
                                            std::span<const std::size_t> vectors_held);
  /// The one round builder (§4.2.1, §4.2.3). Charges the dissemination
  /// cost of every vector in `counts` as one job; the job then generates
  /// `counts[backup]` vectors in each backup's slice, for the backup set as
  /// it stands when the job runs, and sends them with push_round. A queued
  /// round thus holds no material, and a backup revoked while it waits is
  /// out of it. `done(ok_count)` fires once every push completes or fails.
  void send_round(const Supi& supi, std::map<NetworkId, std::size_t> counts,
                  std::function<void(std::size_t)> done = nullptr);
  /// Signs `requests`, request b for backup b of the set, as one round, and
  /// pushes each to its backup, tagged for it. Dissemination, refills and
  /// floods (§4.3) are all sent here. `done(ok_count)`, when
  /// set, fires once every push completes or fails.
  void push_round(std::vector<StoreMaterialRequest> requests,
                  std::function<void(std::size_t)> done);
  /// The one revoke path (§4.2.3, §4.3): pushes one RevokeSharesRequest of
  /// `hxres_indices` for `supi` to every backup in the set, which drops its
  /// shares of those vectors and any copy of the vectors.
  void send_revoke(const Supi& supi, std::vector<ByteArray<16>> hxres_indices);

  void handle_get_vector(GetVectorRequest request,
                         sim::TypedResponder<AuthVectorBundle> responder);
  void handle_get_key(UsageProof proof, sim::TypedResponder<KeyReply> responder);
  void handle_report(ReportRequest report, sim::TypedResponder<sim::Ack> responder);
  void handle_resync(ResyncRequest request, sim::TypedResponder<AuthVectorBundle> responder);
  /// Issues, signs and sends one slice-0 vector for `supi`, a key of
  /// subscribers_ (which erases none), after the vector-generation cost,
  /// filing its K_seaf until the RES* proof arrives.
  void serve_vector(const Supi& supi, Subscriber& subscriber,
                    sim::TypedResponder<AuthVectorBundle> responder);
  /// Validates one reported proof and records its use: the slice of the
  /// holder of the vector it consumed, or nullopt for a bad, repeated or
  /// unknown proof.
  std::optional<int> process_proof(const NetworkId& reporter, const UsageProof& proof);
  /// Records an accountability anomaly (§4.2.3) in-memory and, when a
  /// journal is attached, as a durable kAnomaly event.
  void note_anomaly(std::string what);
  int slice_of(const NetworkId& backup) const;
  /// The one home -> backup send path: resolves `backup` in the directory,
  /// sets the request's `tag` to `tag(key, backup, request)` under the
  /// pair's push key (store_tag, revoke_tag), then pushes it as an
  /// idempotent call retried under the resilience policy. `done(ok)`, when
  /// set, fires once; an unresolvable backup, or one whose channel key
  /// gives no push key, is a failed push.
  template <typename Request, typename Tag>
  void push(const sim::Service<Request, sim::Ack>& service, const NetworkId& backup,
            Request request, Tag tag, std::function<void(bool)> done = nullptr);

  sim::Rpc& rpc_;
  sim::NodeIndex node_;
  NetworkId id_;
  crypto::Ed25519KeyPair signing_key_;
  crypto::X25519KeyPair suci_key_;
  /// Keys of the push tags, one per backup, from this network's channel
  /// key and the backup's (crypto/pairwise.h).
  crypto::PairwiseKeys push_keys_;
  directory::DirectoryClient& directory_;
  FederationConfig config_;
  crypto::DeterministicDrbg rng_;

  std::map<Supi, Subscriber> subscribers_;
  std::vector<NetworkId> backup_ids_;
  // Persistent backup -> SQN-slice assignment. Slices are never reassigned
  // while material for them may still be outstanding; a revoked backup's
  // slice is retired and new backups get the lowest slice never used.
  std::map<NetworkId, int> slice_map_;
  int next_free_slice_ = 1;
  HomeMetrics metrics_;
  std::vector<std::string> anomalies_;
  std::map<NetworkId, std::uint64_t> usage_ledger_;
  obs::EventJournal* journal_ = nullptr;
};

}  // namespace dauth::core
