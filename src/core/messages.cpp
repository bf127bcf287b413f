#include "core/messages.h"

#include <stdexcept>

namespace dauth::core {
namespace {

constexpr std::size_t kMaxPositions = 0xffff;  // a position is a u16

// Feeds a SHA-256 state the bytes a wire::Writer would hold, and wipes the
// state (which can hold a share ordinate, or be an HMAC's keyed inner hash)
// when done: a Merkle leaf hash from merkle_leaf_hasher(), a MAC from
// HmacSha256::start().
class HashEncoder : public wire::Encoder<HashEncoder> {
 public:
  explicit HashEncoder(crypto::Sha256 start = crypto::merkle_leaf_hasher()) noexcept
      : hash_(start) {}
  HashEncoder(const HashEncoder&) = delete;
  HashEncoder& operator=(const HashEncoder&) = delete;
  ~HashEncoder() { secure_wipe(&hash_, sizeof(hash_)); }

  void raw(ByteView data) noexcept { hash_.update(data); }
  crypto::Sha256Digest finish() noexcept { return hash_.finish(); }
  crypto::Sha256Digest finish(const crypto::HmacSha256& key) noexcept { return key.finish(hash_); }

 private:
  crypto::Sha256 hash_;
};

// A batch's leaf in its round tree: its leaf count travels with its root,
// since an RFC 9162 path does not pin the size of the tree it climbs.
crypto::Sha256Digest round_leaf(std::uint16_t leaf_count, const crypto::Sha256Digest& batch_root) {
  HashEncoder leaf;
  leaf.field(leaf_count, batch_root);
  return leaf.finish();
}

// The message a round's home signature covers.
Bytes round_signed_payload(const NetworkId& home, std::uint16_t batch_count,
                           const crypto::Sha256Digest& round_root) {
  wire::Writer w;
  w.string("bundle-round-v1");
  w.field(home, batch_count, round_root);
  return std::move(w).take();
}

// The signed message implied by a batch root and the round path above it.
std::optional<Bytes> round_payload(const NetworkId& home, std::uint16_t leaf_count,
                                   const crypto::Sha256Digest& batch_root,
                                   std::uint16_t batch_index, std::uint16_t batch_count,
                                   std::span<const crypto::Sha256Digest> round) {
  const auto root = crypto::merkle_root_from_path(round_leaf(leaf_count, batch_root),
                                                  batch_index, batch_count, round);
  if (!root) return std::nullopt;
  return round_signed_payload(home, batch_count, *root);
}

template <typename Bundle>
crypto::Sha256Digest leaf_of(const Bundle& b) {
  HashEncoder leaf;
  wire::write_signed(leaf, b);
  return leaf.finish();
}

template <typename Bundle>
std::optional<Bytes> bundle_payload(const Bundle& bundle) {
  const BatchPath& p = bundle.batch;
  const std::span<const crypto::Sha256Digest> path(p.siblings);
  const std::size_t in_batch = crypto::merkle_path_length(p.leaf_index, p.leaf_count);
  if (path.size() < in_batch) return std::nullopt;
  const auto batch_root = crypto::merkle_root_from_path(bundle.leaf_hash(), p.leaf_index,
                                                        p.leaf_count, path.first(in_batch));
  if (!batch_root) return std::nullopt;
  return round_payload(bundle.home_network, p.leaf_count, *batch_root, p.batch_index,
                       p.batch_count, path.subspan(in_batch));
}

template <typename Bundle>
bool verify_bundle(const Bundle& bundle, const crypto::Ed25519PublicKey& home_key) {
  const auto payload = bundle_payload(bundle);
  return payload && crypto::ed25519_verify(*payload, bundle.home_signature, home_key);
}

// One batch of a round being signed: its bundles, and where its round path
// goes (null when the caller keeps none, as for a round of one batch).
struct RoundBatch {
  std::span<AuthVectorBundle> vectors;
  std::span<KeyShareBundle> shares;
  std::vector<crypto::Sha256Digest>* round = nullptr;
};

SignedRound sign_batches(std::span<const RoundBatch> batches, const crypto::Ed25519KeyPair& key) {
  if (batches.size() > kMaxPositions) throw std::invalid_argument("sign_round: too many batches");
  const NetworkId* home = nullptr;  // the first bundle's
  std::vector<crypto::Sha256Digest> round_leaves;
  round_leaves.reserve(batches.size());
  for (const RoundBatch& batch : batches) {
    const std::size_t count = batch.vectors.size() + batch.shares.size();
    if (count == 0) throw std::invalid_argument("sign_round: empty batch");
    if (count > kMaxPositions) throw std::invalid_argument("sign_round: batch too large");
    std::vector<crypto::Sha256Digest> leaves;
    leaves.reserve(count);
    const auto add_leaf = [&](const auto& bundle) {
      if (home == nullptr) home = &bundle.home_network;
      if (bundle.home_network != *home) {
        throw std::invalid_argument("sign_round: bundles of different home networks");
      }
      leaves.push_back(bundle.leaf_hash());
    };
    for (const auto& v : batch.vectors) add_leaf(v);
    for (const auto& s : batch.shares) add_leaf(s);
    round_leaves.push_back(
        round_leaf(static_cast<std::uint16_t>(count), crypto::MerkleTree(leaves).root()));
  }

  const auto batch_count = static_cast<std::uint16_t>(batches.size());
  const crypto::MerkleTree round(round_leaves);
  SignedRound signed_round{round_signed_payload(*home, batch_count, round.root()), {}};
  signed_round.signature = crypto::ed25519_sign(signed_round.payload, key);
  for (std::uint16_t b = 0; b < batch_count; ++b) {
    const RoundBatch& batch = batches[b];
    if (batch.round != nullptr) {
      const crypto::MerkleGroup group = round.group(b);
      *batch.round = round.path(b, std::span(round_leaves).subspan(group.first, group.size));
    }
    const auto leaf_count = static_cast<std::uint16_t>(batch.vectors.size() + batch.shares.size());
    std::uint16_t index = 0;
    const auto place = [&](auto& bundle) {
      bundle.batch = BatchPath{index++, leaf_count, b, batch_count, {}};
      bundle.home_signature = signed_round.signature;
    };
    for (auto& v : batch.vectors) place(v);
    for (auto& s : batch.shares) place(s);
  }
  return signed_round;
}

}  // namespace

// ---- AuthVectorBundle -------------------------------------------------------

crypto::Sha256Digest AuthVectorBundle::leaf_hash() const { return leaf_of(*this); }

std::optional<Bytes> AuthVectorBundle::batch_payload() const { return bundle_payload(*this); }

bool AuthVectorBundle::verify(const crypto::Ed25519PublicKey& home_key) const {
  return verify_bundle(*this, home_key);
}

// ---- KeyShareBundle ---------------------------------------------------------

crypto::Sha256Digest KeyShareBundle::leaf_hash() const { return leaf_of(*this); }

std::optional<Bytes> KeyShareBundle::batch_payload() const { return bundle_payload(*this); }

bool KeyShareBundle::verify(const crypto::Ed25519PublicKey& home_key) const {
  return verify_bundle(*this, home_key);
}

// ---- Dissemination rounds ---------------------------------------------------

SignedRound sign_batch(std::span<AuthVectorBundle> vectors, std::span<KeyShareBundle> shares,
                       const crypto::Ed25519KeyPair& key) {
  if (vectors.empty() && shares.empty()) return {};
  const RoundBatch batch{vectors, shares};
  return sign_batches({&batch, 1}, key);
}

SignedRound sign_single(AuthVectorBundle& bundle, const crypto::Ed25519KeyPair& key) {
  return sign_batch({&bundle, 1}, {}, key);
}

SignedRound sign_round(std::span<StoreMaterialRequest> requests,
                       const crypto::Ed25519KeyPair& key) {
  if (requests.empty()) return {};
  std::vector<RoundBatch> batches;
  batches.reserve(requests.size());
  for (StoreMaterialRequest& request : requests) {
    batches.push_back({request.vectors, request.shares, &request.round});
  }
  return sign_batches(batches, key);
}

// ---- Signed requests --------------------------------------------------------

bool UsageProof::verify(const crypto::Ed25519PublicKey& serving_key) const {
  return crypto::ed25519_verify(signed_payload(), serving_signature, serving_key);
}

// ---- Push tags ----------------------------------------------------------------

crypto::Sha256Digest store_tag(const crypto::HmacSha256& key, const NetworkId& backup,
                               const SecretBytes& suci_secret,
                               std::span<const SignedRound> rounds) {
  HashEncoder mac(key.start());
  mac.field(backup, suci_secret);  // DAUTH_DISCLOSE(the secret is MACed, not sent: the tag is one-way)
  for (const SignedRound& round : rounds) mac.field(round);
  return mac.finish(key);
}

crypto::Sha256Digest revoke_tag(const crypto::HmacSha256& key, const NetworkId& backup,
                                const RevokeSharesRequest& revoke) {
  HashEncoder mac(key.start());
  mac.field(backup);
  wire::write_signed(mac, revoke);
  return mac.finish(key);
}

// ---- Store requests -----------------------------------------------------------

std::optional<SignedRound> BundleBatch::signed_round(const NetworkId& home) const {
  auto payload = round_payload(home, static_cast<std::uint16_t>(tree.leaf_count()), tree.root(),
                               batch_index, batch_count, round);
  if (!payload) return std::nullopt;
  return SignedRound{std::move(*payload), signature};
}

BatchPath batch_position(const crypto::MerkleTree& tree, std::uint16_t leaf_index,
                         std::uint16_t batch_index, std::uint16_t batch_count,
                         std::span<const crypto::Sha256Digest> round,
                         std::span<const crypto::Sha256Digest> group) {
  BatchPath path{leaf_index, static_cast<std::uint16_t>(tree.leaf_count()), batch_index,
                 batch_count, tree.path(leaf_index, group)};
  path.siblings.insert(path.siblings.end(), round.begin(), round.end());
  return path;
}

std::optional<std::vector<BundleBatch>> split_batches(const StoreMaterialRequest& request) {
  struct Open {
    BatchPath position;  // the first bundle's, without a path
    crypto::Ed25519Signature signature;
    const Supi* supi;  // the first bundle's
    std::vector<crypto::Sha256Digest> leaves;
  };
  const std::size_t total = request.vectors.size() + request.shares.size();
  if (total == 0) return std::nullopt;  // nothing signed: nothing to accept
  std::vector<BundleBatch> batches;
  std::optional<Open> open;
  std::size_t position = 0;
  const auto add = [&](const auto& bundle) {
    const BatchPath& path = bundle.batch;
    if (bundle.home_network != request.home_network || !path.siblings.empty()) return false;
    if (!open) {
      if (path.leaf_index != 0 || path.leaf_count == 0 || path.leaf_count > total - position ||
          request.round.size() != crypto::merkle_path_length(path.batch_index, path.batch_count)) {
        return false;
      }
      open = Open{path, bundle.home_signature, &bundle.supi, {}};
      open->leaves.reserve(path.leaf_count);
    } else if (path.leaf_index != open->leaves.size() ||
               path.leaf_count != open->position.leaf_count ||
               path.batch_index != open->position.batch_index ||
               path.batch_count != open->position.batch_count ||
               bundle.home_signature != open->signature || bundle.supi != *open->supi) {
      return false;
    }
    open->leaves.push_back(bundle.leaf_hash());
    ++position;
    if (open->leaves.size() == open->position.leaf_count) {
      batches.push_back({crypto::MerkleTree(open->leaves),
                         open->position.batch_index, open->position.batch_count, request.round,
                         open->signature});
      open.reset();
    }
    return true;
  };
  for (const auto& v : request.vectors) {
    if (!add(v)) return std::nullopt;
  }
  for (const auto& s : request.shares) {
    if (!add(s)) return std::nullopt;
  }
  if (open) return std::nullopt;  // the last batch is missing bundles
  return batches;
}

}  // namespace dauth::core
