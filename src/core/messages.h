// dAuth protocol messages (the protobuf schema of the paper's prototype).
//
// Three bundle types carry all security-critical state:
//   * AuthVectorBundle — one pre-generated challenge, signed by the home
//     network, stored at ONE backup network (paper §4.2.1).
//   * KeyShareBundle — one Shamir share of that vector's K_seaf, indexed by
//     H(XRES*), signed by the home network, stored at a DIFFERENT backup.
//   * UsageProof — the serving network's signed statement that the UE
//     answered challenge H(XRES*) with preimage RES* (paper §4.2.2); it is
//     both the authorization to release key shares and the audit record
//     reported back to the home network (§4.2.3).
// Every struct names its fields once, in wire order, in a `fields` template
// (wire/writer.h): its encoding, its decoding and, for a signed message, the
// domain-separated payload its signature covers all come from that list.
//
// The home network signs a user's dissemination, a report's refill of
// that user's consumed slots, and a revocation's flood (§4.3) as one round
// each. Each (user,
// backup) store request is a batch: a Merkle tree (crypto/merkle.h) over
// its bundle payloads. One more tree over the batch roots gives the round
// root, and one Ed25519 signature covers it. Each bundle carries that
// signature and its BatchPath, so every bundle stays individually
// verifiable and attributable to the home, and every bundle of a round
// verifies against the same signed message. A lone vector (home-online,
// resync) is a round of one batch of one leaf, with an empty path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "aka/auth_vector.h"
#include "common/ids.h"
#include "common/secret.h"
#include "common/time.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/shamir.h"
#include "sim/service.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::core {

/// A bundle's place in the home-signed round it was disseminated in: leaf
/// `leaf_index` of a `leaf_count`-leaf batch, whose root is leaf
/// `batch_index` of a `batch_count`-batch round. A bundle's leaf is
/// SHA-256(0x00 || signed_payload()) (leaf_hash()), a batch's round leaf is
/// SHA-256(0x00 || leaf_count || batch root), and `home_signature` covers
/// "bundle-round-v1" || home || batch_count || round root. Every position
/// is a u16, in memory and on the wire.
struct BatchPath {
  std::uint16_t leaf_index = 0;
  std::uint16_t leaf_count = 1;
  std::uint16_t batch_index = 0;
  std::uint16_t batch_count = 1;
  /// The in-batch inclusion path, then the round path, each leaf level
  /// first; crypto::merkle_path_length(leaf_index, leaf_count) splits them.
  /// Empty for a lone bundle and inside a StoreMaterialRequest, whose
  /// receiver rebuilds the batch tree and takes the round path from the
  /// request.
  std::vector<crypto::Sha256Digest> siblings;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.leaf_index, m.leaf_count, m.batch_index, m.batch_count, m.siblings);
  }
};

/// One pre-generated authentication vector as disseminated to a backup.
struct AuthVectorBundle {
  NetworkId home_network;
  Supi supi;
  std::uint64_t sqn = 0;  // lets backups order vectors inside their slice
  crypto::Rand rand{};
  aka::Autn autn{};
  ByteArray<16> hxres_star{};
  bool flood = false;  // §4.3: flood vectors jump the queue
  BatchPath batch;
  crypto::Ed25519Signature home_signature{};  // over the round root

  static constexpr std::string_view kDomain = "auth-vector-bundle-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.home_network, m.supi, m.sqn, m.rand, m.autn, m.hxres_star, m.flood);
    f.tail(m.batch, m.home_signature);
  }

  /// The batch leaf, merkle_leaf_hash(signed_payload()), hashed from the
  /// fields themselves with no payload built.
  crypto::Sha256Digest leaf_hash() const;
  /// The leaf's data: every field above `batch`, domain-separated.
  Bytes signed_payload() const { return wire::signed_payload(*this); }
  /// The message `home_signature` covers, with the round root recomputed
  /// from this bundle's leaf and path; nullopt when the path cannot fit the
  /// declared batch and round.
  std::optional<Bytes> batch_payload() const;
  /// The benchmark package's bundle codec row calls these two by name
  /// (fedbench/src/layers.cpp); everything else uses wire::encode/decode.
  Bytes encode() const { return wire::encode(*this); }
  static AuthVectorBundle decode(ByteView data) { return wire::decode<AuthVectorBundle>(data); }
  bool verify(const crypto::Ed25519PublicKey& home_key) const;
};

/// One key share of K_seaf, indexed by the vector's H(XRES*).
struct KeyShareBundle {
  NetworkId home_network;
  Supi supi;
  ByteArray<16> hxres_star{};
  crypto::ShamirShare share;  // share of K_seaf (32 bytes)
  BatchPath batch;
  crypto::Ed25519Signature home_signature{};  // over the round root

  static constexpr std::string_view kDomain = "key-share-bundle-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.home_network, m.supi, m.hxres_star, m.share.x);
    f.field(m.share.y);  // DAUTH_DISCLOSE(Shamir share ordinate: below-threshold subsets reveal nothing, §4.1)
    f.tail(m.batch, m.home_signature);
  }

  /// See AuthVectorBundle::leaf_hash and signed_payload.
  crypto::Sha256Digest leaf_hash() const;
  Bytes signed_payload() const { return wire::signed_payload(*this); }
  /// See AuthVectorBundle::batch_payload.
  std::optional<Bytes> batch_payload() const;
  Bytes encode() const { return wire::encode(*this); }
  static KeyShareBundle decode(ByteView data) { return wire::decode<KeyShareBundle>(data); }
  bool verify(const crypto::Ed25519PublicKey& home_key) const;
};

/// A round as its home signed it: the message `signature` covers
/// ("bundle-round-v1" || home || batch_count || round root), and the
/// signature. A store push's tag covers it for each of the push's batches.
struct SignedRound {
  Bytes payload;
  crypto::Ed25519Signature signature{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.payload, m.signature);
  }
};

/// Signs `vectors` then `shares` as a round of ONE batch: a single Ed25519
/// signature over the Merkle root of their leaves. Sets every bundle's
/// home_signature and position, with empty paths (see BatchPath), and
/// returns the round. Throws std::invalid_argument when the bundles name
/// different home networks or number more than 65,535; signs nothing for no
/// bundles.
SignedRound sign_batch(std::span<AuthVectorBundle> vectors, std::span<KeyShareBundle> shares,
                       const crypto::Ed25519KeyPair& key);
/// A lone vector (home-online, resync): a round of one batch of one leaf.
SignedRound sign_single(AuthVectorBundle& bundle, const crypto::Ed25519KeyPair& key);

/// Serving network's proof that the UE was present and answered correctly.
struct UsageProof {
  NetworkId serving_network;
  Supi supi;
  ByteArray<16> hxres_star{};
  crypto::ResStar res_star{};  // preimage: H(RAND,RES*) == hxres_star
  Time timestamp = 0;
  crypto::Ed25519Signature serving_signature{};

  static constexpr std::string_view kDomain = "usage-proof-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.serving_network, m.supi, m.hxres_star);
    f.field(m.res_star);  // DAUTH_DISCLOSE(RES* preimage release is the proof of vector use, §4.2.2)
    f.field(m.timestamp);
    f.tail(m.serving_signature);
  }

  Bytes signed_payload() const { return wire::signed_payload(*this); }
  bool verify(const crypto::Ed25519PublicKey& serving_key) const;
};

// ---- RPC payloads -----------------------------------------------------------

/// home -> backup: replace/extend the stored material for a set of users.
struct StoreMaterialRequest {
  NetworkId home_network;
  std::vector<AuthVectorBundle> vectors;
  std::vector<KeyShareBundle> shares;
  /// The round path of this request's batch (see BatchPath), carried once
  /// here instead of in every bundle. Empty for a round of one batch.
  std::vector<crypto::Sha256Digest> round;
  /// §4.2.1: "if 5G ID encryption is used ... the home network shares the ID
  /// decryption key with the backup networks". Empty when not shared.
  /// A private key in transit — self-wiping, redacted in any formatter.
  SecretBytes suci_secret;
  /// store_tag under the (home, recipient) push key: what the recipient
  /// checks before it holds anything. The bundles' home signatures are for
  /// the networks they are later served to.
  crypto::Sha256Digest tag{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.home_network, m.vectors);
    f.field(m.shares);  // DAUTH_DISCLOSE(a store push carries the backup's own shares of K_seaf, §4.2.1 and §4.3)
    f.field(m.round);
    f.field(m.suci_secret);  // DAUTH_DISCLOSE(deconcealment secret is provisioned to backups by design, §4.2)
    f.field(m.tag);
  }
};

/// The label of the home -> backup push keys (crypto/pairwise.h): each is
/// derived from the home's and the backup's channel keys, for the ordered
/// pair (home id, backup id).
inline constexpr std::string_view kPushKeyLabel = "dauth-push-v1";

/// The tag of a store push to `backup` under the pair's push key: an HMAC
/// over the recipient's id, the push's `suci_secret`, then each of its
/// batches' signed round, in order, encoded as a message field list would
/// be. The batch roots in the rounds commit every bundle, so the tag binds
/// the push's whole content to the one backup it was made for.
crypto::Sha256Digest store_tag(const crypto::HmacSha256& key, const NetworkId& backup,
                               const SecretBytes& suci_secret,
                               std::span<const SignedRound> rounds);

/// Signs one user's dissemination round: each request's bundles (vectors,
/// then shares) form batch i, and one Ed25519 signature covers the root of
/// the tree over the batch roots. Sets every bundle's home_signature and
/// position, with empty paths, and every request's `round` path, and
/// returns the round. Throws std::invalid_argument when the bundles name
/// different home networks, a request has no bundles, or a batch or the
/// round passes 65,535 leaves; signs nothing for no requests.
SignedRound sign_round(std::span<StoreMaterialRequest> requests,
                       const crypto::Ed25519KeyPair& key);

/// One home-signed batch of a StoreMaterialRequest, rebuilt by the receiving
/// backup from the bundles themselves: every field its bundles share. A
/// backup keeps its tree, and its other fields once in the batch's record.
struct BundleBatch {
  crypto::MerkleTree tree;
  std::uint16_t batch_index = 0;
  std::uint16_t batch_count = 1;
  std::vector<crypto::Sha256Digest> round;  // the request's round path
  crypto::Ed25519Signature signature{};

  /// The round this batch's root and round path imply, as `home` would have
  /// signed it, with `signature`; nullopt when the path cannot fit the
  /// batch's round position.
  std::optional<SignedRound> signed_round(const NetworkId& home) const;
};

/// The served position of leaf `leaf_index` of batch `tree`, at
/// `batch_index` of a `batch_count`-batch round, its path attached: the
/// in-batch path, then the round path `round`. `group` holds the leaf
/// hashes of tree.group(leaf_index), which the tree does not keep.
BatchPath batch_position(const crypto::MerkleTree& tree, std::uint16_t leaf_index,
                         std::uint16_t batch_index, std::uint16_t batch_count,
                         std::span<const crypto::Sha256Digest> round,
                         std::span<const crypto::Sha256Digest> group);

/// Splits a store request's bundles (vectors, then shares) into the batches
/// their positions declare, in order, hashing each bundle once: a batch's
/// bundles are the request's next `tree.leaf_count()`. nullopt for a
/// request without bundles (its other fields are unsigned) and when the
/// positions are inconsistent: a gap, a leaf count, round position,
/// signature or user that changes inside a batch (a batch is one user's), a
/// carried path, a round path whose length does not fit a batch's round
/// position, or a bundle of another home network.
std::optional<std::vector<BundleBatch>> split_batches(const StoreMaterialRequest& request);

/// serving -> home or backup: request the next auth vector for a user.
/// The user is identified by SUPI (or by SUCI ciphertext, which home/backup
/// networks can de-conceal; the SUCI path carries the encoded SUCI).
struct GetVectorRequest {
  NetworkId serving_network;
  Supi supi;  // empty when suci is used
  Bytes suci; // encoded aka::Suci, empty when supi is used

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.serving_network, m.supi, m.suci);
  }
};

/// backup -> serving: the key share released against a usage proof, plus
/// `vectors_left`, the number of vectors the backup still holds for the
/// user after this attach. The count is outside the home signature and is
/// a ranking hint only: a backup that reports 0 stops leading the user's
/// vector fetches, so a lying backup can demote only itself, or cost one
/// promotion per share reply that lies. Wire form: the share bundle's
/// encoding, then the count as a u32.
struct ShareReply {
  KeyShareBundle share;
  std::uint32_t vectors_left = 0;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.share);  // DAUTH_DISCLOSE(key-share release after RES* preimage and signature checks, §4.2.2)
    f.field(m.vectors_left);
  }
};

/// backup -> home (report, §4.2.3): consumed vectors + proofs.
struct ReportRequest {
  NetworkId backup_network;
  std::vector<UsageProof> proofs;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.backup_network, m.proofs);
  }
};

/// home -> backup (§4.3): delete key shares for the given H(XRES*) indices.
/// Tagged by the home network for its recipient (revoke_tag): an
/// unauthenticated revoke would let any peer destroy a user's backup
/// material (denial of service).
struct RevokeSharesRequest {
  NetworkId home_network;
  Supi supi;
  std::vector<ByteArray<16>> hxres_indices;
  /// revoke_tag under the (home, recipient) push key.
  crypto::Sha256Digest tag{};

  static constexpr std::string_view kDomain = "revoke-shares-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.home_network, m.supi, m.hxres_indices);
    f.tail(m.tag);
  }
};

/// The tag of a revoke to `backup` under the pair's push key (kPushKeyLabel):
/// an HMAC over the recipient's id, then every field above `tag`,
/// domain-separated as wire::write_signed lays them out.
crypto::Sha256Digest revoke_tag(const crypto::HmacSha256& key, const NetworkId& backup,
                                const RevokeSharesRequest& revoke);

// ---- Small service payloads -------------------------------------------------

/// serving -> prior serving (§4.1): map a GUTI back to its subscriber.
struct GutiResolveRequest {
  std::uint64_t guti = 0;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.guti);
  }
};

struct GutiResolveReply {
  Supi supi;
  NetworkId home;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.home);
  }
};

/// target -> source serving (§7.4): the signed fetch of the session the UE
/// names by its GUTI at the source. The signature proves the target's
/// identity before the source releases K_ho; the label binds it to this use.
struct HandoverContextRequest {
  std::uint64_t guti = 0;
  NetworkId target;
  crypto::Ed25519Signature signature{};

  static constexpr std::string_view kDomain = "handover-context-v1";
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.guti, m.target);
    f.tail(m.signature);
  }
  Bytes signed_payload() const { return wire::signed_payload(*this); }
};

struct HandoverContextReply {
  Supi supi;
  NetworkId home;
  crypto::Key256 k_ho{};
  std::uint32_t counter = 0;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.home);
    f.field(m.k_ho);  // DAUTH_DISCLOSE(K_ho handover key; only sent to a signature-verified target network, §4.4)
    f.field(m.counter);
  }
};

/// serving -> home (TS 33.102 §6.3.5): AUTS-driven SQN resynchronisation.
/// The home answers with a fresh AuthVectorBundle.
struct ResyncRequest {
  Supi supi;
  crypto::Rand rand{};  // of the challenge the UE rejected
  aka::Auts auts{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.rand, m.auts);
  }
};

/// home -> serving: K_seaf released after a verified usage proof. Wire
/// format is the raw 32 key bytes (unchanged from the pre-stub protocol).
struct KeyReply {
  crypto::Key256 k_seaf{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.k_seaf);  // DAUTH_DISCLOSE(K_seaf release to the serving network that proved vector use, §4.2.2)
  }
};

// ---- Services -----------------------------------------------------------------
// Each federation service between dAuth roles, declared once: its name and
// its (request, reply) pair (sim/service.h). The UE-facing serving.* frames
// are aka/nas.h's, the dir.* services directory/directory.h's.

inline constexpr sim::Service<StoreMaterialRequest, sim::Ack> kBackupStore{"backup.store"};
inline constexpr sim::Service<GetVectorRequest, AuthVectorBundle> kBackupGetVector{
    "backup.get_vector"};
inline constexpr sim::Service<UsageProof, ShareReply> kBackupGetShare{"backup.get_share"};
inline constexpr sim::Service<RevokeSharesRequest, sim::Ack> kBackupRevokeShares{
    "backup.revoke_shares"};
inline constexpr sim::Service<GetVectorRequest, AuthVectorBundle> kHomeGetVector{
    "home.get_vector"};
inline constexpr sim::Service<UsageProof, KeyReply> kHomeGetKey{"home.get_key"};
inline constexpr sim::Service<ReportRequest, sim::Ack> kHomeReport{"home.report"};
inline constexpr sim::Service<ResyncRequest, AuthVectorBundle> kHomeResync{"home.resync"};
inline constexpr sim::Service<sim::Ack, sim::Ack> kHomePing{"home.ping"};
inline constexpr sim::Service<GutiResolveRequest, GutiResolveReply> kServingResolveGuti{
    "serving.resolve_guti"};
inline constexpr sim::Service<HandoverContextRequest, HandoverContextReply>
    kServingHandoverContext{"serving.handover_context"};

}  // namespace dauth::core
