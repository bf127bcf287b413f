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
// each. Each (user, backup) store request is a batch: a Merkle tree
// (crypto/merkle.h) over its leaves. One more tree over the batch roots
// gives the round root, and one Ed25519 signature covers it. A backup holds
// a batch as it is pushed (StoreBatch): the signature, the round path and
// the tree once, each leaf with its own fields only. Every bundle it serves
// is rebuilt from them with its BatchPath, so every bundle stays
// individually verifiable and attributable to the home, and every bundle of
// a round verifies against the same signed message. A lone vector
// (home-online, resync) is a round of one batch of one leaf, with an empty
// path.
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
#include "wire/sequence.h"
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
  /// Empty for a lone bundle.
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

/// Signs a lone vector (home-online, resync) as a round of one batch of one
/// leaf: sets its home_signature, and its position, with an empty path.
void sign_single(AuthVectorBundle& bundle, const crypto::Ed25519KeyPair& key);

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

/// A pushed or held vector's own fields: its leaf index in its batch, then
/// every signed field its user and batch do not give.
struct VectorLeaf {
  std::uint16_t leaf = 0;
  std::uint64_t sqn = 0;
  crypto::Rand rand{};
  aka::Autn autn{};
  ByteArray<16> hxres_star{};
  bool flood = false;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.leaf, m.sqn, m.rand, m.autn, m.hxres_star, m.flood);
  }
};

/// The one serve order of a user's held vectors: floods first (§4.3), then
/// by SQN, the order the USIM accepts a slice's SQNs in. A batch is pushed
/// and held with its vectors in it, so it needs no persisted state and
/// survives a restart.
bool served_before(const VectorLeaf& a, const VectorLeaf& b);

/// A pushed or held key share's own fields.
struct ShareLeaf {
  std::uint16_t leaf = 0;
  ByteArray<16> hxres_star{};
  std::uint8_t x = 0;
  Secret<32> y;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.leaf, m.hxres_star, m.x);
    f.field(m.y);  // DAUTH_DISCLOSE(Shamir share ordinate: below-threshold subsets reveal nothing, §4.1)
  }
};

/// A ShareLeaf's public leading fields, read and written in its encoding
/// (wire::FixedSequence::prefix, wire::EncodedSequence::write_prefix): the
/// home writes them and then the ordinate, and a backup finds a held share
/// by them.
struct ShareIndex {
  std::uint16_t leaf = 0;
  ByteArray<16> hxres_star{};
  std::uint8_t x = 0;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.leaf, m.hxres_star, m.x);
  }
};

/// The bundle `leaf` is, of `home`'s user `supi`: its signed fields, with
/// no position or signature.
AuthVectorBundle bundle_of(const NetworkId& home, const Supi& supi, const VectorLeaf& leaf);
KeyShareBundle bundle_of(const NetworkId& home, const Supi& supi, const ShareLeaf& leaf);

/// The Merkle leaves of `home`'s user `supi`'s leaves of one kind (Leaf is
/// VectorLeaf or ShareLeaf), each hashed from its encoded fields
/// (wire::FixedSequence::fields) as bundle_of(home, supi, leaf).leaf_hash(),
/// with no bundle built. A leaf's message is the prefix every one of them
/// shares, the leaf tag, the bundle's domain, the home and the SUPI, then
/// the leaf's own fields as the bundle writes them: all of one kind have one
/// length, so a batch of them is hashed together (crypto::sha256_each). The
/// home signs these, and a backup rehashes them for a served path, a
/// released leaf and a restored record.
template <typename Leaf>
class LeafHasher {
 public:
  LeafHasher(const NetworkId& home, const Supi& supi);
  /// One leaf's hash. Its message is kept until the hasher is destroyed,
  /// and wiped then.
  crypto::Sha256Digest operator()(ByteView fields) noexcept;
  /// Every leaf of `leaves`, out[i] leaf i's (out.size() == leaves.size()):
  /// their messages are written into one buffer, wiped when it is freed.
  void operator()(wire::FixedSequence<Leaf> leaves, std::span<crypto::Sha256Digest> out) const;

 private:
  /// Writes the leaf's own part of its message, after the prefix, to `at`.
  void write_fields(ByteView fields, std::uint8_t* at) const noexcept;

  std::size_t prefix_size_ = 0;
  SecretBytes message_;  // the prefix, then one leaf's own part
};
extern template class LeafHasher<VectorLeaf>;
extern template class LeafHasher<ShareLeaf>;

/// The Merkle leaf of `leaf`, of `home`'s user `supi`: its LeafHasher's hash
/// of its encoding.
crypto::Sha256Digest leaf_hash(const NetworkId& home, const Supi& supi, const VectorLeaf& leaf);
crypto::Sha256Digest leaf_hash(const NetworkId& home, const Supi& supi, const ShareLeaf& leaf);

/// A stored node of a batch tree (crypto::MerkleTree::nodes) on the wire: a
/// list of digests is a Merkle path there, of at most 32.
struct TreeNode {
  crypto::Sha256Digest hash{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.hash);
  }
};

/// One (user, backup) batch of a round as its home pushes it, in the layout
/// and the order its backup holds it (BatchRecord): its user, its place in
/// the round, the round's signature and the round path, then the nodes its
/// tree stores, then its leaves, each sequence as its encoding. The v
/// vectors are leaves 0 to v - 1, in serve order (served_before); the s
/// shares are leaves v to v + s - 1, each once, in the order their vectors
/// were generated, and are pushed in strictly increasing H(XRES*) order.
struct StoreBatch {
  Supi supi;
  std::uint16_t batch_index = 0;
  std::uint16_t batch_count = 1;
  crypto::Ed25519Signature signature{};
  std::vector<crypto::Sha256Digest> round;
  std::vector<TreeNode> nodes;
  wire::EncodedSequence<VectorLeaf> vectors;
  wire::EncodedSequence<ShareLeaf, SecretBytes> shares;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.batch_index, m.batch_count, m.signature, m.round, m.nodes, m.vectors);
    f.field(m.shares);  // DAUTH_DISCLOSE(a store push carries the backup's own shares of K_seaf, §4.2.1 and §4.3)
  }
};

/// home -> backup: extend the stored material of its users.
struct StoreMaterialRequest {
  NetworkId home_network;
  std::vector<StoreBatch> batches;
  /// §4.2.1: "if 5G ID encryption is used ... the home network shares the ID
  /// decryption key with the backup networks". Empty when not shared.
  /// A private key in transit — self-wiping, redacted in any formatter.
  SecretBytes suci_secret;
  /// store_tag under the (home, recipient) push key: what the recipient
  /// checks before it holds anything. The round signatures are for the
  /// networks the bundles are later served to.
  crypto::Sha256Digest tag{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.home_network, m.batches);
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
/// batches, every field, node and leaf, encoded as a message field list
/// would be. It binds the push's whole content to the one backup it was
/// made for.
crypto::Sha256Digest store_tag(const crypto::HmacSha256& key, const NetworkId& backup,
                               const StoreMaterialRequest& push);

/// Signs one user's round: the batches of `requests`, in order, are its
/// batches, and one Ed25519 signature covers the root of the tree over their
/// roots. Each batch's leaves are hashed from their encoding and placed in
/// its tree by their numbers. Sets every batch's place in the round, its
/// signature, its round path and its tree's nodes. Throws
/// std::invalid_argument when the requests name different home networks, a
/// batch's leaves are not as StoreBatch lays them out (1 to 65,535 of
/// them), or the round passes 65,535 batches; signs nothing for no batches.
void sign_round(std::span<StoreMaterialRequest> requests, const crypto::Ed25519KeyPair& key);

/// Whether `push` has the layout its home makes: at least one batch, and in
/// each a place in the round with a round path that fits it, and 1 to
/// 65,535 leaves laid out as StoreBatch says (vectors numbered in serve
/// order, shares numbered once each and in strictly increasing H(XRES*)
/// order). Hashes nothing and reads every leaf in place: a backup checks it
/// before the push's tag, builds the trees (batch_tree) after, and holds
/// the batch in the order it was pushed.
bool well_formed(const StoreMaterialRequest& push);

/// The tree of `batch` built from its nodes (crypto::MerkleTree::from_nodes),
/// or nullopt when they are not as many as its leaves' tree stores or do not
/// hash into one another.
std::optional<crypto::MerkleTree> batch_tree(const StoreBatch& batch);

/// The served position of leaf `leaf_index` of batch `tree`, at
/// `batch_index` of a `batch_count`-batch round, its path attached: the
/// in-batch path, then the round path `round`. `group` holds the leaf
/// hashes of tree.group(leaf_index), which the tree does not keep.
BatchPath batch_position(const crypto::MerkleTree& tree, std::uint16_t leaf_index,
                         std::uint16_t batch_index, std::uint16_t batch_count,
                         std::span<const crypto::Sha256Digest> round,
                         std::span<const crypto::Sha256Digest> group);

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
