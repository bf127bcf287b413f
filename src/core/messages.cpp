#include "core/messages.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace dauth::core {
namespace {

constexpr std::size_t kMaxPositions = 0xffff;  // a position is a u16
constexpr std::size_t kOrdinateBytes = 32;     // a share of the 32-byte K_seaf

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
  const auto root = crypto::merkle_root_from_path(round_leaf(p.leaf_count, *batch_root),
                                                  p.batch_index, p.batch_count,
                                                  path.subspan(in_batch));
  if (!root) return std::nullopt;
  return round_signed_payload(bundle.home_network, p.batch_count, *root);
}

template <typename Bundle>
bool verify_bundle(const Bundle& bundle, const crypto::Ed25519PublicKey& home_key) {
  const auto payload = bundle_payload(bundle);
  return payload && crypto::ed25519_verify(*payload, bundle.home_signature, home_key);
}

// Whether `batch`'s leaves are laid out as StoreBatch says: 1 to 65,535 of
// them, the vectors numbered 0 to v - 1 in serve order, the shares numbered
// v to v + s - 1, each once, in strictly increasing H(XRES*) order. Read in
// place.
bool in_held_order(const StoreBatch& batch) {
  const auto vectors = batch.vectors.view();
  const auto shares = batch.shares.view();
  const std::size_t count = vectors.size() + shares.size();
  if (count == 0 || count > kMaxPositions) return false;
  VectorLeaf previous;
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    if (vectors.leading<std::uint16_t>(v) != v) return false;
    VectorLeaf vector = vectors[v];
    if (v > 0 && served_before(vector, previous)) return false;
    previous = vector;
  }
  // A share's H(XRES*), which is public, follows its number in its encoding.
  const auto hxres = [&shares](std::size_t p) {
    return shares.fields(p).data() + sizeof(std::uint16_t);
  };
  std::vector<bool> numbered(shares.size());
  for (std::size_t p = 0; p < shares.size(); ++p) {
    const std::size_t leaf = shares.leading<std::uint16_t>(p);
    if (leaf < vectors.size() || leaf >= count || numbered[leaf - vectors.size()]) return false;
    numbered[leaf - vectors.size()] = true;
    if (p > 0 && std::memcmp(hxres(p - 1), hxres(p), sizeof(ByteArray<16>)) >= 0) return false;
  }
  return true;
}

// One batch of a round being signed: its leaf hashes, and where its round
// path and its tree's nodes go (null when the caller keeps none, as for a
// lone bundle).
struct RoundBatch {
  std::vector<crypto::Sha256Digest> leaves;
  std::vector<crypto::Sha256Digest>* round = nullptr;
  std::vector<TreeNode>* nodes = nullptr;
};

crypto::Ed25519Signature sign_batches(const NetworkId& home, std::span<const RoundBatch> batches,
                                      const crypto::Ed25519KeyPair& key) {
  if (batches.size() > kMaxPositions) throw std::invalid_argument("sign_round: too many batches");
  std::vector<crypto::Sha256Digest> round_leaves;
  round_leaves.reserve(batches.size());
  for (const RoundBatch& batch : batches) {
    const std::size_t count = batch.leaves.size();
    if (count == 0) throw std::invalid_argument("sign_round: empty batch");
    if (count > kMaxPositions) throw std::invalid_argument("sign_round: batch too large");
    const crypto::MerkleTree tree(batch.leaves);
    round_leaves.push_back(round_leaf(static_cast<std::uint16_t>(count), tree.root()));
    if (batch.nodes != nullptr) {
      batch.nodes->clear();
      for (const crypto::Sha256Digest& node : tree.nodes()) batch.nodes->push_back({node});
    }
  }

  const auto batch_count = static_cast<std::uint16_t>(batches.size());
  const crypto::MerkleTree round(round_leaves);
  const auto signature =
      crypto::ed25519_sign(round_signed_payload(home, batch_count, round.root()), key);
  for (std::uint16_t b = 0; b < batch_count; ++b) {
    if (batches[b].round != nullptr) {
      const crypto::MerkleGroup group = round.group(b);
      *batches[b].round = round.path(b, std::span(round_leaves).subspan(group.first, group.size));
    }
  }
  return signature;
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

void sign_single(AuthVectorBundle& bundle, const crypto::Ed25519KeyPair& key) {
  const RoundBatch batch{{bundle.leaf_hash()}};
  bundle.home_signature = sign_batches(bundle.home_network, {&batch, 1}, key);
  bundle.batch = BatchPath{};  // leaf 0 of 1, batch 0 of 1
}

void sign_round(std::span<StoreMaterialRequest> requests, const crypto::Ed25519KeyPair& key) {
  std::vector<StoreBatch*> pushed;
  for (StoreMaterialRequest& request : requests) {
    if (request.home_network != requests.front().home_network) {
      throw std::invalid_argument("sign_round: batches of different home networks");
    }
    for (StoreBatch& batch : request.batches) pushed.push_back(&batch);
  }
  if (pushed.empty()) return;
  const NetworkId& home = requests.front().home_network;
  std::vector<RoundBatch> batches(pushed.size());
  std::vector<crypto::Sha256Digest> share_hashes;  // one batch's, in push order
  for (std::size_t b = 0; b < pushed.size(); ++b) {
    StoreBatch& batch = *pushed[b];
    if (!in_held_order(batch)) throw std::invalid_argument("sign_round: leaves out of held order");
    RoundBatch& signing = batches[b];
    const auto vectors = batch.vectors.view();
    const auto shares = batch.shares.view();
    signing.leaves.resize(vectors.size() + shares.size());
    // Each leaf at its number: the vectors are the first ones, in order, and
    // the shares follow, in H(XRES*) order.
    const std::span<crypto::Sha256Digest> leaves(signing.leaves);
    LeafHasher<VectorLeaf>(home, batch.supi)(vectors, leaves.first(vectors.size()));
    share_hashes.resize(shares.size());
    LeafHasher<ShareLeaf>(home, batch.supi)(shares, share_hashes);
    for (std::size_t p = 0; p < shares.size(); ++p) {
      signing.leaves[shares.leading<std::uint16_t>(p)] = share_hashes[p];
    }
    signing.round = &batch.round;
    signing.nodes = &batch.nodes;
  }
  const auto signature = sign_batches(home, batches, key);
  for (std::size_t b = 0; b < pushed.size(); ++b) {
    pushed[b]->batch_index = static_cast<std::uint16_t>(b);
    pushed[b]->batch_count = static_cast<std::uint16_t>(pushed.size());
    pushed[b]->signature = signature;
  }
}

// ---- Signed requests --------------------------------------------------------

bool UsageProof::verify(const crypto::Ed25519PublicKey& serving_key) const {
  return crypto::ed25519_verify(signed_payload(), serving_signature, serving_key);
}

// ---- Leaves and push tags -----------------------------------------------------

AuthVectorBundle bundle_of(const NetworkId& home, const Supi& supi, const VectorLeaf& leaf) {
  return {home, supi, leaf.sqn, leaf.rand, leaf.autn, leaf.hxres_star, leaf.flood, {}, {}};
}

KeyShareBundle bundle_of(const NetworkId& home, const Supi& supi, const ShareLeaf& leaf) {
  return {home, supi, leaf.hxres_star, {leaf.x, SecretBytes(ByteView(leaf.y))}, {}, {}};
}

bool served_before(const VectorLeaf& a, const VectorLeaf& b) {
  if (a.flood != b.flood) return a.flood;
  return a.sqn < b.sqn;
}

template <typename Leaf>
LeafHasher<Leaf>::LeafHasher(const NetworkId& home, const Supi& supi) {
  using Bundle = decltype(bundle_of(home, supi, std::declval<const Leaf&>()));
  const auto write_prefix = [&](auto& sink) {
    sink.u8(crypto::kMerkleLeafTag);
    sink.string(Bundle::kDomain);
    sink.field(home, supi);
  };
  wire::ByteCounter prefix;
  write_prefix(prefix);
  prefix_size_ = prefix.size();
  // A leaf's own part is its fields but for its number, which leads them; a
  // share's ordinate is framed as the bundle's SecretBytes.
  std::size_t own = wire::fixed_size<Leaf>() - sizeof(std::uint16_t);
  if constexpr (std::is_same_v<Leaf, ShareLeaf>) own += sizeof(std::uint32_t);
  message_ = SecretBytes(prefix_size_ + own);
  wire::SpanWriter at({message_.data(), message_.size()});
  write_prefix(at);
}

template <typename Leaf>
void LeafHasher<Leaf>::write_fields(ByteView fields, std::uint8_t* at) const noexcept {
  constexpr std::size_t kNumber = sizeof(std::uint16_t);
  if constexpr (std::is_same_v<Leaf, VectorLeaf>) {
    std::ranges::copy(fields.subspan(kNumber), at);
  } else {
    // The ordinate follows the public fields, as the bundle's SecretBytes:
    // its length, then its bytes.
    const std::size_t head = wire::fixed_size<ShareIndex>();
    constexpr std::uint8_t kLength[4] = {kOrdinateBytes, 0, 0, 0};
    at = std::ranges::copy(fields.subspan(kNumber, head - kNumber), at).out;
    at = std::ranges::copy(kLength, at).out;
    std::ranges::copy(fields.subspan(head), at);
  }
}

template <typename Leaf>
crypto::Sha256Digest LeafHasher<Leaf>::operator()(ByteView fields) noexcept {
  write_fields(fields, message_.data() + prefix_size_);
  crypto::Sha256Digest hash;
  crypto::sha256_each(message_, message_.size(), {&hash, 1});
  return hash;
}

template <typename Leaf>
void LeafHasher<Leaf>::operator()(wire::FixedSequence<Leaf> leaves,
                                  std::span<crypto::Sha256Digest> out) const {
  const std::size_t size = message_.size();
  SecretBytes messages(leaves.size() * size);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    std::uint8_t* at = messages.data() + i * size;
    std::copy_n(message_.data(), prefix_size_, at);
    write_fields(leaves.fields(i), at + prefix_size_);
  }
  crypto::sha256_each(messages, size, out);
}

template class LeafHasher<VectorLeaf>;
template class LeafHasher<ShareLeaf>;

crypto::Sha256Digest leaf_hash(const NetworkId& home, const Supi& supi, const VectorLeaf& leaf) {
  const wire::EncodedSequence<VectorLeaf> encoded({&leaf, 1});
  return LeafHasher<VectorLeaf>(home, supi)(encoded.view().fields(0));
}

crypto::Sha256Digest leaf_hash(const NetworkId& home, const Supi& supi, const ShareLeaf& leaf) {
  const wire::EncodedSequence<ShareLeaf, SecretBytes> encoded({&leaf, 1});
  return LeafHasher<ShareLeaf>(home, supi)(encoded.view().fields(0));
}

crypto::Sha256Digest store_tag(const crypto::HmacSha256& key, const NetworkId& backup,
                               const StoreMaterialRequest& push) {
  HashEncoder mac(key.start());
  mac.field(backup, push.suci_secret);  // DAUTH_DISCLOSE(the secret is MACed, not sent: the tag is one-way)
  for (const StoreBatch& batch : push.batches) {
    mac.field(batch);  // DAUTH_DISCLOSE(the MAC's pass over the pushed shares' ordinates: the tag is one-way)
  }
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

bool well_formed(const StoreMaterialRequest& push) {
  const auto batch_ok = [](const StoreBatch& batch) {
    return batch.batch_index < batch.batch_count &&
           batch.round.size() == crypto::merkle_path_length(batch.batch_index, batch.batch_count) &&
           in_held_order(batch);
  };
  return !push.batches.empty() && std::ranges::all_of(push.batches, batch_ok);
}

std::optional<crypto::MerkleTree> batch_tree(const StoreBatch& batch) {
  std::vector<crypto::Sha256Digest> nodes;
  nodes.reserve(batch.nodes.size());
  for (const TreeNode& node : batch.nodes) nodes.push_back(node.hash);
  return crypto::MerkleTree::from_nodes(batch.vectors.size() + batch.shares.size(), nodes);
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

}  // namespace dauth::core
