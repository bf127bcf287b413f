// Round signing of disseminated bundles: the Merkle tree itself (checked
// against RFC 6962's recursive definition), inclusion paths through a batch
// and then its round, and every way a peer might try to pass off a bundle
// the home network did not sign.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "batch_layout.h"
#include "core/messages.h"
#include "crypto/drbg.h"
#include "crypto/merkle.h"

namespace dauth::core {
namespace {

using crypto::MerkleTree;
using testing::edit_leaf;
using testing::lay_out;
using testing::leaf_hashes;
using crypto::Sha256Digest;

crypto::Ed25519KeyPair keys(std::uint64_t seed) {
  crypto::DeterministicDrbg rng("batch-test", seed);
  return crypto::ed25519_generate(rng);
}

/// The path of leaf `i` of `tree`, its group cut from the tree's `leaves`.
std::vector<Sha256Digest> path_of(const MerkleTree& tree, std::span<const Sha256Digest> leaves,
                                  std::size_t i) {
  const crypto::MerkleGroup group = tree.group(i);
  return tree.path(i, leaves.subspan(group.first, group.size));
}

std::vector<Sha256Digest> leaves_of(std::size_t n) {
  std::vector<Sha256Digest> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Bytes data(i + 1, static_cast<std::uint8_t>(i));
    out.push_back(crypto::merkle_leaf_hash(data));
  }
  return out;
}

/// RFC 6962 §2.1 MTH, written recursively as the RFC states it.
Sha256Digest reference_root(std::span<const Sha256Digest> leaves) {
  if (leaves.size() == 1) return leaves[0];
  std::size_t k = 1;
  while (k * 2 < leaves.size()) k *= 2;
  return crypto::merkle_node_hash(reference_root(leaves.subspan(0, k)),
                                  reference_root(leaves.subspan(k)));
}

AuthVectorBundle vector_for(const char* supi, std::uint64_t sqn) {
  AuthVectorBundle b;
  b.home_network = NetworkId("home-net");
  b.supi = Supi(supi);
  b.sqn = sqn;
  b.rand[0] = static_cast<std::uint8_t>(sqn);
  b.hxres_star[0] = static_cast<std::uint8_t>(sqn);
  return b;
}

/// One (user, backup) dissemination batch, signed, with every bundle's
/// inclusion path attached as a backup would serve it.
struct ServedBatch {
  std::vector<AuthVectorBundle> vectors;
  std::vector<KeyShareBundle> shares;
};

VectorLeaf vector_leaf(std::uint64_t sqn) {
  VectorLeaf v;
  v.sqn = sqn;
  v.rand[0] = static_cast<std::uint8_t>(sqn);
  v.hxres_star[0] = static_cast<std::uint8_t>(sqn);
  return v;
}

ShareLeaf share_leaf(std::uint8_t index) {
  ShareLeaf s;
  s.hxres_star[0] = index;
  s.x = 1;
  ByteArray<32> y;
  y.fill(index);
  s.y = y;
  return s;
}

/// The bundles of one pushed batch of `home`'s, as a backup serves them:
/// each rebuilt from its leaf, its inclusion path (in-batch, then round)
/// cut from the tree of the batch's leaves.
ServedBatch served_from(const NetworkId& home, const StoreBatch& batch) {
  const std::vector<Sha256Digest> leaves = leaf_hashes(home, batch);
  const MerkleTree tree(leaves);
  ServedBatch served;
  const auto serve = [&](const auto& leaf) {
    auto bundle = bundle_of(home, batch.supi, leaf);
    const crypto::MerkleGroup group = tree.group(leaf.leaf);
    bundle.batch = batch_position(tree, leaf.leaf, batch.batch_index, batch.batch_count,
                                  batch.round,
                                  std::span<const Sha256Digest>(leaves).subspan(group.first,
                                                                                group.size));
    bundle.home_signature = batch.signature;
    return bundle;
  };
  for (const auto& v : batch.vectors) served.vectors.push_back(serve(v));
  for (const auto& s : batch.shares) served.shares.push_back(serve(s));
  return served;
}

ServedBatch served_batch(const char* supi, std::size_t vectors, std::size_t shares,
                         const crypto::Ed25519KeyPair& signer) {
  StoreMaterialRequest push;
  push.home_network = NetworkId("home-net");
  StoreBatch& batch = push.batches.emplace_back();
  batch.supi = Supi(supi);
  std::vector<VectorLeaf> vector_leaves;
  for (std::size_t i = 0; i < vectors; ++i) vector_leaves.push_back(vector_leaf(32 * i + 1));
  std::vector<ShareLeaf> share_leaves;
  for (std::size_t i = 0; i < shares; ++i) {
    share_leaves.push_back(share_leaf(static_cast<std::uint8_t>(i + 1)));
  }
  lay_out(batch, vector_leaves, share_leaves);
  sign_round({&push, 1}, signer);
  return served_from(push.home_network, batch);
}

/// Whether every bundle served from `batch` verifies under `home_key`.
bool all_verify(const NetworkId& home, const StoreBatch& batch,
                const crypto::Ed25519PublicKey& home_key) {
  const ServedBatch served = served_from(home, batch);
  return std::ranges::all_of(served.vectors, [&](const auto& b) { return b.verify(home_key); }) &&
         std::ranges::all_of(served.shares, [&](const auto& b) { return b.verify(home_key); });
}

/// One user's dissemination round of `batches` store pushes, signed: two
/// vectors and three shares each.
std::vector<StoreMaterialRequest> pushed_round(const char* supi, std::size_t batches,
                                               const crypto::Ed25519KeyPair& signer) {
  std::vector<StoreMaterialRequest> round(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    round[b].home_network = NetworkId("home-net");
    StoreBatch& batch = round[b].batches.emplace_back();
    batch.supi = Supi(supi);
    std::vector<ShareLeaf> shares;
    for (std::size_t i = 0; i < 3; ++i) {
      shares.push_back(share_leaf(static_cast<std::uint8_t>(16 * b + i)));
    }
    lay_out(batch, {vector_leaf(32 * b), vector_leaf(32 * b + 1)}, shares);
  }
  sign_round(round, signer);
  return round;
}

/// The same round, each batch as its bundles are served.
std::vector<ServedBatch> served_round(const char* supi, std::size_t batches,
                                      const crypto::Ed25519KeyPair& signer) {
  std::vector<ServedBatch> served;
  for (const StoreMaterialRequest& push : pushed_round(supi, batches, signer)) {
    served.push_back(served_from(push.home_network, push.batches[0]));
  }
  return served;
}

/// The round part of a served path.
std::vector<Sha256Digest> round_part(const BatchPath& p) {
  const auto in_batch = crypto::merkle_path_length(p.leaf_index, p.leaf_count);
  return {p.siblings.begin() + static_cast<std::ptrdiff_t>(in_batch), p.siblings.end()};
}

void set_round_part(BatchPath& p, const std::vector<Sha256Digest>& round) {
  p.siblings.resize(crypto::merkle_path_length(p.leaf_index, p.leaf_count));
  p.siblings.insert(p.siblings.end(), round.begin(), round.end());
}

// ---- The tree ------------------------------------------------------------

// Every size up to 40, plus a dissemination batch (16 vectors + 8 x 16
// shares) and sizes around a power of two.
std::vector<std::size_t> tree_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  for (std::size_t n : {144, 255, 256, 257}) sizes.push_back(n);
  return sizes;
}

TEST(MerkleTree, RootMatchesRfc6962ForEverySize) {
  for (std::size_t n : tree_sizes()) {
    const auto leaves = leaves_of(n);
    EXPECT_EQ(MerkleTree(leaves).root(), reference_root(leaves)) << n << " leaves";
  }
}

TEST(MerkleTree, EveryPathLeadsToTheRoot) {
  for (std::size_t n : tree_sizes()) {
    const auto leaves = leaves_of(n);
    const MerkleTree tree(leaves);
    const auto height = static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(n))));
    for (std::size_t i = 0; i < n; ++i) {
      const auto path = path_of(tree, leaves, i);
      EXPECT_LE(path.size(), height);
      const auto root = crypto::merkle_root_from_path(leaves[i], i, n, path);
      ASSERT_TRUE(root.has_value()) << "leaf " << i << " of " << n;
      EXPECT_EQ(*root, tree.root()) << "leaf " << i << " of " << n;
    }
  }
}

TEST(MerkleTree, PathOfTheWrongShapeIsRejected) {
  const auto leaves = leaves_of(9);
  const MerkleTree tree(leaves);
  const Sha256Digest leaf = leaves[4];
  auto path = path_of(tree, leaves, 4);
  EXPECT_FALSE(crypto::merkle_root_from_path(leaf, 9, 9, path));  // index out of range
  auto shorter = path;
  shorter.pop_back();
  EXPECT_FALSE(crypto::merkle_root_from_path(leaf, 4, 9, shorter));
  auto longer = path;
  longer.push_back(tree.root());
  EXPECT_FALSE(crypto::merkle_root_from_path(leaf, 4, 9, longer));
  // The right shape at the wrong position reaches some other root.
  const auto moved = crypto::merkle_root_from_path(leaf, 5, 9, path);
  EXPECT_TRUE(!moved || *moved != tree.root());
}

TEST(MerkleTree, InteriorNodeIsNeverALeaf) {
  const auto l = leaves_of(4);
  const MerkleTree tree(l);
  const Sha256Digest interior = crypto::merkle_node_hash(l[0], l[1]);
  // Domain separation: hashing the node's preimage as leaf data does not
  // reproduce the node...
  Bytes preimage(l[0].begin(), l[0].end());
  preimage.insert(preimage.end(), l[1].begin(), l[1].end());
  EXPECT_NE(crypto::merkle_leaf_hash(preimage), interior);
  // ...and the node cannot stand in for a leaf of the four-leaf tree.
  const auto path = path_of(tree, l, 0);
  const std::vector<Sha256Digest> upper(path.begin() + 1, path.end());
  EXPECT_FALSE(crypto::merkle_root_from_path(interior, 0, 4, upper));
}

TEST(MerkleTree, PathLengthMatchesThePath) {
  for (std::size_t n = 1; n <= 300; ++n) {
    const auto leaves = leaves_of(n);
    const MerkleTree tree(leaves);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(crypto::merkle_path_length(i, n), path_of(tree, leaves, i).size())
          << i << " of " << n;
    }
    EXPECT_EQ(crypto::merkle_path_length(n, n), 0u);
  }
}

TEST(MerkleTree, EmptyTreeAndBadIndexThrow) {
  EXPECT_THROW(MerkleTree({}), std::invalid_argument);
  const auto leaves = leaves_of(3);
  EXPECT_THROW((void)MerkleTree(leaves).path(3, leaves), std::out_of_range);
}

TEST(MerkleTree, PathRefusesAGroupNotOfItsLeaf) {
  // The tree keeps no leaf level, so a path is only as good as the group
  // its caller hands in: one of the wrong size, or one whose hashes do not
  // rebuild the node the tree keeps above them, is refused.
  for (std::size_t n : {1, 5, 8, 20, 144}) {
    const auto leaves = leaves_of(n);
    const MerkleTree tree(leaves);
    const std::size_t i = n - 1;
    const crypto::MerkleGroup group = tree.group(i);
    ASSERT_LE(group.size, 8u);
    const auto cut = std::span<const Sha256Digest>(leaves).subspan(group.first, group.size);
    std::vector<Sha256Digest> wrong(cut.begin(), cut.end());
    wrong.back()[0] ^= 1;
    EXPECT_THROW((void)tree.path(i, wrong), std::invalid_argument) << n << " leaves";
    wrong.pop_back();
    EXPECT_THROW((void)tree.path(i, wrong), std::invalid_argument) << n << " leaves";
  }
}

TEST(MerkleTree, TreeFromItsNodesIsTheTreeOfItsLeaves) {
  // A backup adopts the nodes its home's tree stores: the tree they build
  // has the root and every path of the tree of the leaves.
  for (std::size_t n = 1; n <= 300; ++n) {
    const auto leaves = leaves_of(n);
    const MerkleTree tree(leaves);
    const auto adopted = MerkleTree::from_nodes(n, tree.nodes());
    ASSERT_TRUE(adopted.has_value()) << n << " leaves";
    ASSERT_EQ(adopted->leaf_count(), n);
    ASSERT_EQ(adopted->root(), tree.root()) << n << " leaves";
    ASSERT_TRUE(std::ranges::equal(adopted->nodes(), tree.nodes())) << n << " leaves";
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(path_of(*adopted, leaves, i), path_of(tree, leaves, i)) << i << " of " << n;
    }
  }
}

TEST(MerkleTree, TreeFromNodesRefusesNodesThatDoNotHashTogether) {
  for (std::size_t n : {1, 4, 5, 9, 20, 144}) {
    const auto leaves = leaves_of(n);
    const MerkleTree tree(leaves);
    const std::vector<Sha256Digest> nodes(tree.nodes().begin(), tree.nodes().end());
    EXPECT_FALSE(MerkleTree::from_nodes(0, nodes).has_value()) << n << " leaves";
    std::vector<Sha256Digest> longer = nodes;
    longer.push_back(tree.root());
    EXPECT_FALSE(MerkleTree::from_nodes(n, longer).has_value()) << n << " leaves";
    EXPECT_FALSE(MerkleTree::from_nodes(n, std::span(nodes).first(nodes.size() - 1)).has_value())
        << n << " leaves";
    // Any one node changed: a lone root is the leaves' business (a path's
    // group check), every other stored node must hash into the ones above.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::vector<Sha256Digest> edited = nodes;
      edited[i][0] ^= 1;
      EXPECT_EQ(MerkleTree::from_nodes(n, edited).has_value(), nodes.size() == 1)
          << "node " << i << " of " << n << " leaves";
    }
  }
}

TEST(MerkleTree, PathRefusesLeavesTheAdoptedTreeWasNotBuiltOver) {
  // A tree adopted from the nodes of other leaves serves no path for a leaf
  // whose group differs, and every other path still leads to its root.
  const auto leaves = leaves_of(20);
  auto other = leaves;
  other[9][0] ^= 1;
  const auto adopted = MerkleTree::from_nodes(20, MerkleTree(other).nodes());
  ASSERT_TRUE(adopted.has_value());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (adopted->group(i).first == adopted->group(9).first) {
      EXPECT_THROW((void)path_of(*adopted, leaves, i), std::invalid_argument) << i;
    } else {
      EXPECT_EQ(crypto::merkle_root_from_path(leaves[i], i, 20, path_of(*adopted, leaves, i)),
                adopted->root())
          << i;
    }
  }
}

// ---- Signed bundles --------------------------------------------------------

TEST(BundleBatch, OneSignatureCoversEveryBundle) {
  const auto home = keys(1);
  const ServedBatch batch = served_batch("901550000000001", 3, 5, home);
  for (std::size_t i = 0; i < batch.vectors.size(); ++i) {
    EXPECT_EQ(batch.vectors[i].batch.leaf_index, i);
    EXPECT_EQ(batch.vectors[i].batch.leaf_count, 8u);
    EXPECT_EQ(batch.vectors[i].home_signature, batch.vectors[0].home_signature);
    EXPECT_TRUE(wire::decode<AuthVectorBundle>(wire::encode(batch.vectors[i])).verify(home.public_key));
  }
  for (const auto& s : batch.shares) {
    EXPECT_EQ(s.home_signature, batch.vectors[0].home_signature);
    EXPECT_EQ(s.batch.siblings.size(), 3u);
    EXPECT_TRUE(wire::decode<KeyShareBundle>(wire::encode(s)).verify(home.public_key));
  }
}

TEST(BundleBatch, OneLeafBatchRoundTrip) {
  const auto home = keys(2);
  AuthVectorBundle v = vector_for("901550000000001", 7);
  sign_single(v, home);
  EXPECT_EQ(v.batch.leaf_index, 0u);
  EXPECT_EQ(v.batch.leaf_count, 1u);
  EXPECT_EQ(v.batch.batch_index, 0u);
  EXPECT_EQ(v.batch.batch_count, 1u);
  EXPECT_TRUE(v.batch.siblings.empty());
  const AuthVectorBundle decoded = wire::decode<AuthVectorBundle>(wire::encode(v));
  EXPECT_EQ(wire::encode(decoded), wire::encode(v));
  EXPECT_TRUE(decoded.verify(home.public_key));

  const KeyShareBundle s = served_batch("901550000000001", 0, 1, home).shares[0];
  EXPECT_TRUE(s.batch.siblings.empty());
  EXPECT_TRUE(wire::decode<KeyShareBundle>(wire::encode(s)).verify(home.public_key));
}

TEST(BundleBatch, OneSignatureCoversEveryBatchOfARound) {
  const auto home = keys(10);
  const auto pushed = pushed_round("901550000000001", 5, home);
  const auto round = served_round("901550000000001", 5, home);
  const auto& signature = round[0].vectors[0].home_signature;
  for (std::size_t b = 0; b < round.size(); ++b) {
    const StoreBatch& batch = pushed[b].batches[0];
    EXPECT_EQ(batch.round.size(), crypto::merkle_path_length(b, 5)) << b;
    EXPECT_EQ(batch.batch_index, b);
    EXPECT_EQ(batch.batch_count, 5u);
    EXPECT_EQ(batch.shares[batch.shares.size() - 1].leaf, 4u);
    for (const auto& v : round[b].vectors) {
      EXPECT_EQ(v.batch.batch_index, b);
      EXPECT_EQ(v.batch.batch_count, 5u);
      EXPECT_EQ(v.batch.leaf_count, 5u);
      EXPECT_EQ(v.home_signature, signature);
      EXPECT_TRUE(wire::decode<AuthVectorBundle>(wire::encode(v)).verify(home.public_key)) << b;
    }
    for (const auto& s : round[b].shares) {
      EXPECT_EQ(s.home_signature, signature);
      EXPECT_TRUE(wire::decode<KeyShareBundle>(wire::encode(s)).verify(home.public_key)) << b;
    }
    // Every bundle of the round verifies against one signed message, which
    // is what lets a verification memo answer all but the first check.
    EXPECT_EQ(*round[b].shares[2].batch_payload(), *round[0].vectors[0].batch_payload());
  }
}

TEST(BundleBatch, LoneBundleAndLoneLeafAreOneSignature) {
  // A lone vector signed as a bundle (sign_single) and as a pushed leaf
  // (sign_round) hash the same leaf into the same round.
  const auto home = keys(15);
  AuthVectorBundle bundle = vector_for("901550000000001", 1);  // served_batch's first
  sign_single(bundle, home);
  const ServedBatch pushed = served_batch("901550000000001", 1, 0, home);
  EXPECT_EQ(wire::encode(pushed.vectors[0]), wire::encode(bundle));
}

TEST(BundleBatch, PositionsPastU16Throw) {
  const auto home = keys(11);
  std::vector<StoreMaterialRequest> too_many(0x10000);
  for (auto& push : too_many) lay_out(push.batches.emplace_back(), {vector_leaf(1)}, {});
  EXPECT_THROW(sign_round(too_many, home), std::invalid_argument);
  std::vector<StoreMaterialRequest> too_large(1);
  std::vector<ShareLeaf> shares(0x10000, share_leaf(1));
  for (std::size_t i = 0; i < shares.size(); ++i) {
    shares[i].hxres_star[1] = static_cast<std::uint8_t>(i >> 8);
    shares[i].hxres_star[2] = static_cast<std::uint8_t>(i);
  }
  lay_out(too_large[0].batches.emplace_back(), {}, shares);
  EXPECT_THROW(sign_round(too_large, home), std::invalid_argument);
  std::vector<StoreMaterialRequest> with_empty(2);
  lay_out(with_empty[0].batches.emplace_back(), {vector_leaf(1)}, {});
  with_empty[1].batches.emplace_back();
  EXPECT_THROW(sign_round(with_empty, home), std::invalid_argument);
}

TEST(BundleBatch, MixedHomesCannotShareARound) {
  auto round = pushed_round("901550000000001", 2, keys(3));
  round[1].home_network = NetworkId("other-home");
  EXPECT_THROW(sign_round(round, keys(3)), std::invalid_argument);
}

// Each attack is applied to a vector and a share of the same batch; both
// must fail verification against the home's key.
struct Attack {
  const char* name;
  std::function<void(BatchPath&, crypto::Ed25519Signature&)> on_batch;
};

TEST(BundleBatch, AdversarialBundlesAreRejected) {
  const auto home = keys(4);
  const ServedBatch alice = served_batch("901550000000001", 4, 6, home);
  const ServedBatch bob = served_batch("901550000000002", 4, 6, home);
  const ServedBatch alice_elsewhere = served_batch("901550000000001", 2, 6, home);

  const std::vector<Attack> attacks = {
      {"path lifted from another user's batch",
       [&](BatchPath& p, crypto::Ed25519Signature& sig) {
         p = bob.shares[1].batch;
         sig = bob.shares[1].home_signature;
       }},
      {"path lifted from another backup's batch",
       [&](BatchPath& p, crypto::Ed25519Signature& sig) {
         p = alice_elsewhere.shares[1].batch;
         sig = alice_elsewhere.shares[1].home_signature;
       }},
      {"wrong index", [](BatchPath& p, auto&) { p.leaf_index ^= 1; }},
      {"wrong leaf count", [](BatchPath& p, auto&) { ++p.leaf_count; }},
      {"interior node as leaf",
       [](BatchPath& p, auto&) {
         p.siblings.erase(p.siblings.begin());
         p.leaf_index /= 2;
         p.leaf_count = (p.leaf_count + 1) / 2;
       }},
      {"forged root signature",
       [&](BatchPath&, crypto::Ed25519Signature& sig) {
         // The genuine round payload, signed by a key that is not the home's.
         sig = crypto::ed25519_sign(*alice.vectors[0].batch_payload(), keys(99));
       }},
  };
  for (const Attack& attack : attacks) {
    AuthVectorBundle v = alice.vectors[2];
    attack.on_batch(v.batch, v.home_signature);
    EXPECT_FALSE(v.verify(home.public_key)) << "vector: " << attack.name;
    KeyShareBundle s = alice.shares[3];
    attack.on_batch(s.batch, s.home_signature);
    EXPECT_FALSE(s.verify(home.public_key)) << "share: " << attack.name;
  }

  AuthVectorBundle tampered_vector = alice.vectors[2];
  tampered_vector.autn[0] ^= 1;
  EXPECT_FALSE(tampered_vector.verify(home.public_key));
  KeyShareBundle tampered_share = alice.shares[3];
  tampered_share.share.y[0] ^= 1;
  EXPECT_FALSE(tampered_share.verify(home.public_key));
}

TEST(BundleBatch, AdversarialRoundPathsAreRejected) {
  const auto home = keys(12);
  const auto alice = served_round("901550000000001", 4, home);
  const auto bob = served_round("901550000000002", 4, home);

  const std::vector<std::pair<const char*, std::function<void(BatchPath&)>>> attacks = {
      {"swapped batch index", [](BatchPath& p) { p.batch_index ^= 1; }},
      {"false batch count", [](BatchPath& p) { ++p.batch_count; }},
      {"round path from another user's round",
       [&](BatchPath& p) { set_round_part(p, round_part(bob[1].vectors[0].batch)); }},
      {"round path one hash short", [](BatchPath& p) { p.siblings.pop_back(); }},
      {"round path one hash long", [](BatchPath& p) { p.siblings.push_back({}); }},
      {"batch root spliced in from another backup",
       [&](BatchPath& p) {
         // Claim batch 2's slot of the same round: its position and round path.
         p.batch_index = 2;
         set_round_part(p, round_part(alice[2].vectors[0].batch));
       }},
  };
  for (const auto& [name, attack] : attacks) {
    AuthVectorBundle v = alice[1].vectors[1];
    ASSERT_TRUE(v.verify(home.public_key));
    attack(v.batch);
    EXPECT_FALSE(v.verify(home.public_key)) << "vector: " << name;
    KeyShareBundle s = alice[1].shares[2];
    attack(s.batch);
    EXPECT_FALSE(s.verify(home.public_key)) << "share: " << name;
  }
  EXPECT_EQ(round_part(alice[1].vectors[0].batch),
            pushed_round("901550000000001", 4, home)[1].batches[0].round);
}

// ---- Store pushes ------------------------------------------------------------

TEST(StorePush, PushedBatchIsTheBatchTheHomeSigned) {
  // A pushed batch carries its tree's nodes, its round path and the
  // signature once: the tree its nodes build is the tree of its leaves, and
  // every bundle rebuilt from it verifies under the home's key only.
  const auto home = keys(5);
  const auto round = pushed_round("901550000000001", 3, home);
  for (std::size_t b = 0; b < round.size(); ++b) {
    const StoreMaterialRequest push =
        wire::decode<StoreMaterialRequest>(wire::encode(round[b]));
    ASSERT_TRUE(well_formed(push));
    const StoreBatch& batch = push.batches[0];
    const auto tree = batch_tree(batch);
    ASSERT_TRUE(tree.has_value());
    EXPECT_EQ(tree->root(), MerkleTree(leaf_hashes(push.home_network, batch)).root()) << b;
    EXPECT_TRUE(all_verify(push.home_network, batch, home.public_key)) << b;
    EXPECT_FALSE(all_verify(push.home_network, batch, keys(6).public_key)) << b;
    EXPECT_FALSE(all_verify(NetworkId("other-home"), batch, home.public_key)) << b;
  }
}

TEST(StorePush, FloodRequestIsOneTwoLeafBatch) {
  // A flood is one round over the remaining backups (§4.3): backup b's
  // request is one two-leaf batch, the flood vector and its share b, at
  // place b of the round, and every copy of the vector verifies against
  // the one signature.
  const auto home = keys(7);
  std::vector<StoreMaterialRequest> round(3);
  for (std::uint8_t b = 0; b < round.size(); ++b) {
    round[b].home_network = NetworkId("home-net");
    StoreBatch& batch = round[b].batches.emplace_back();
    batch.supi = Supi("901550000000001");
    lay_out(batch, {vector_leaf(5)}, {share_leaf(static_cast<std::uint8_t>(5 + b))});
  }
  sign_round(round, home);
  for (std::size_t b = 0; b < round.size(); ++b) {
    ASSERT_TRUE(well_formed(round[b])) << b;
    const StoreBatch& batch = round[b].batches[0];
    EXPECT_EQ(batch_tree(batch)->leaf_count(), 2u);
    EXPECT_EQ(batch.batch_index, b);
    EXPECT_EQ(batch.batch_count, 3u);
    EXPECT_EQ(batch.shares[0].leaf, 1u);
    EXPECT_TRUE(all_verify(round[b].home_network, batch, home.public_key)) << b;
    EXPECT_EQ(batch.signature, round[0].batches[0].signature);
  }
}

TEST(StorePush, InconsistentLayoutsAreRefused) {
  // A backup refuses these before it checks the tag (well_formed), or
  // before it holds anything (batch_tree).
  const auto home = keys(8);
  const std::vector<std::pair<const char*, std::function<void(StoreMaterialRequest&)>>> layouts =
      {
          {"no batch", [](StoreMaterialRequest& r) { r.batches.clear(); }},
          {"batch without leaves",
           [](StoreMaterialRequest& r) {
             r.batches[0].vectors = {};
             r.batches[0].shares = {};
           }},
          {"shares out of H(XRES*) order",
           [](StoreMaterialRequest& r) {
             const ShareLeaf first = r.batches[0].shares[0];
             r.batches[0].shares.set(0, r.batches[0].shares[1]);
             r.batches[0].shares.set(1, first);
           }},
          {"two shares of one H(XRES*)",
           [](StoreMaterialRequest& r) {
             const ByteArray<16> hxres = r.batches[0].shares[0].hxres_star;
             edit_leaf(r.batches[0].shares, 1, [&](ShareLeaf& s) { s.hxres_star = hxres; });
           }},
          {"share index repeated",
           [](StoreMaterialRequest& r) {
             edit_leaf(r.batches[0].shares, 1, [](ShareLeaf& s) { s.leaf = 2; });
           }},
          {"share numbered among the vectors",
           [](StoreMaterialRequest& r) {
             edit_leaf(r.batches[0].shares, 0, [](ShareLeaf& s) { s.leaf = 1; });
           }},
          {"index gap",
           [](StoreMaterialRequest& r) {
             edit_leaf(r.batches[0].shares, 2, [](ShareLeaf& s) { s.leaf = 5; });
           }},
          {"vector numbered after the shares",
           [](StoreMaterialRequest& r) {
             edit_leaf(r.batches[0].vectors, 0, [](VectorLeaf& v) { v.leaf = 4; });
           }},
          {"vectors out of serve order",
           [](StoreMaterialRequest& r) {
             edit_leaf(r.batches[0].vectors, 0, [](VectorLeaf& v) { v.sqn = 1000; });
           }},
          {"batch index past the round",
           [](StoreMaterialRequest& r) { r.batches[0].batch_index = r.batches[0].batch_count; }},
          {"round path one hash short", [](StoreMaterialRequest& r) { r.batches[0].round.pop_back(); }},
          {"round path one hash long",
           [](StoreMaterialRequest& r) { r.batches[0].round.push_back({}); }},
      };
  for (const auto& [name, mutate] : layouts) {
    StoreMaterialRequest push = pushed_round("901550000000001", 4, home)[1];
    ASSERT_TRUE(well_formed(push)) << name;
    mutate(push);
    EXPECT_FALSE(well_formed(wire::decode<StoreMaterialRequest>(wire::encode(push)))) << name;
  }

  const std::vector<std::pair<const char*, std::function<void(StoreBatch&)>>> trees = {
      {"node missing", [](StoreBatch& b) { b.nodes.pop_back(); }},
      {"node added", [](StoreBatch& b) { b.nodes.push_back(b.nodes.back()); }},
  };
  for (const auto& [name, mutate] : trees) {
    StoreMaterialRequest push = pushed_round("901550000000001", 4, home)[1];
    ASSERT_TRUE(batch_tree(push.batches[0]).has_value()) << name;
    mutate(push.batches[0]);
    EXPECT_FALSE(batch_tree(push.batches[0]).has_value()) << name;
  }
  // A tree of nine leaves or more stores more than its root, and a node that
  // does not hash into the ones above it is refused.
  std::vector<StoreMaterialRequest> big(1);
  big[0].home_network = NetworkId("home-net");
  StoreBatch& batch = big[0].batches.emplace_back();
  std::vector<ShareLeaf> shares;
  for (std::uint8_t i = 0; i < 20; ++i) shares.push_back(share_leaf(i));
  lay_out(batch, {}, shares);
  sign_round(big, home);
  ASSERT_GT(batch.nodes.size(), 1u);
  batch.nodes[0].hash[0] ^= 1;
  EXPECT_FALSE(batch_tree(batch).has_value());
}

TEST(StorePush, RoundAttacksFailTheSignature) {
  // A well-formed batch whose place in the round, round path or leaves were
  // changed after the home signed it serves no bundle that verifies.
  const auto home = keys(14);
  const auto alice = pushed_round("901550000000001", 4, home);
  const auto bob = pushed_round("901550000000002", 4, home);
  const std::vector<std::pair<const char*, std::function<void(StoreBatch&)>>> attacks = {
      {"swapped batch index", [](StoreBatch& b) { b.batch_index ^= 1; }},
      {"false batch count", [](StoreBatch& b) { b.batch_count = 3; }},
      {"round path from another user's round",
       [&](StoreBatch& b) { b.round = bob[1].batches[0].round; }},
      {"batch root spliced in from another backup",
       [&](StoreBatch& b) {
         b.batch_index = 2;
         b.round = alice[2].batches[0].round;
       }},
      {"round that disagrees with its leaves", [](StoreBatch& b) { b.round[0][0] ^= 1; }},
      {"fewer leaves than signed",
       [](StoreBatch& b) {
         const std::vector<ShareLeaf> first = {b.shares[0]};
         b.shares = wire::EncodedSequence<ShareLeaf, SecretBytes>(first);
       }},
      {"signature of another user's round",
       [&](StoreBatch& b) { b.signature = bob[1].batches[0].signature; }},
  };
  for (const auto& [name, attack] : attacks) {
    StoreMaterialRequest push = alice[1];
    ASSERT_TRUE(all_verify(push.home_network, push.batches[0], home.public_key));
    attack(push.batches[0]);
    const ServedBatch served = served_from(push.home_network, push.batches[0]);
    EXPECT_FALSE(served.vectors[0].verify(home.public_key)) << name;
    EXPECT_FALSE(served.shares[0].verify(home.public_key)) << name;
  }
}

}  // namespace
}  // namespace dauth::core
