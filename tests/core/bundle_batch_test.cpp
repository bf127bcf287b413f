// Round signing of disseminated bundles: the Merkle tree itself (checked
// against RFC 6962's recursive definition), inclusion paths through a batch
// and then its round, and every way a peer might try to pass off a bundle
// the home network did not sign.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/messages.h"
#include "crypto/drbg.h"
#include "crypto/merkle.h"

namespace dauth::core {
namespace {

/// What a serving network checks of a stored batch: that the round its root
/// and round path imply carries `home_key`'s signature.
bool verify_root(const BundleBatch& batch, const NetworkId& home,
                 const crypto::Ed25519PublicKey& home_key) {
  const auto round = batch.signed_round(home);
  return round && crypto::ed25519_verify(round->payload, round->signature, home_key);
}

using crypto::MerkleTree;
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

KeyShareBundle share_for(const char* supi, std::uint8_t index) {
  KeyShareBundle b;
  b.home_network = NetworkId("home-net");
  b.supi = Supi(supi);
  b.hxres_star[0] = index;
  b.share.x = 1;
  b.share.y = Bytes(32, index);
  return b;
}

/// One (user, backup) dissemination batch, signed, with every bundle's
/// inclusion path attached as a backup would serve it.
struct ServedBatch {
  std::vector<AuthVectorBundle> vectors;
  std::vector<KeyShareBundle> shares;
};

ServedBatch served_batch(const char* supi, std::size_t vectors, std::size_t shares,
                         const crypto::Ed25519KeyPair& signer) {
  ServedBatch batch;
  for (std::size_t i = 0; i < vectors; ++i) {
    batch.vectors.push_back(vector_for(supi, 32 * i + 1));
  }
  for (std::size_t i = 0; i < shares; ++i) {
    batch.shares.push_back(share_for(supi, static_cast<std::uint8_t>(i + 1)));
  }
  sign_batch(batch.vectors, batch.shares, signer);
  std::vector<Sha256Digest> leaves;
  const auto add_leaf = [&](const auto& b) {
    leaves.push_back(b.leaf_hash());
  };
  for (const auto& v : batch.vectors) add_leaf(v);
  for (const auto& s : batch.shares) add_leaf(s);
  const MerkleTree tree(leaves);
  for (auto& v : batch.vectors) v.batch.siblings = path_of(tree, leaves, v.batch.leaf_index);
  for (auto& s : batch.shares) s.batch.siblings = path_of(tree, leaves, s.batch.leaf_index);
  return batch;
}

/// One user's dissemination round of `batches` store requests, signed, each
/// bundle with its served path (in-batch, then round) attached.
std::vector<StoreMaterialRequest> served_round(const char* supi, std::size_t batches,
                                               const crypto::Ed25519KeyPair& signer) {
  std::vector<StoreMaterialRequest> round(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    round[b].home_network = NetworkId("home-net");
    for (std::size_t i = 0; i < 2; ++i) round[b].vectors.push_back(vector_for(supi, 32 * b + i));
    for (std::size_t i = 0; i < 3; ++i) {
      round[b].shares.push_back(share_for(supi, static_cast<std::uint8_t>(16 * b + i)));
    }
  }
  sign_round(round, signer);
  for (StoreMaterialRequest& request : round) {
    std::vector<Sha256Digest> leaves;
    const auto add_leaf = [&](const auto& b) {
      leaves.push_back(b.leaf_hash());
    };
    for (const auto& v : request.vectors) add_leaf(v);
    for (const auto& s : request.shares) add_leaf(s);
    const MerkleTree tree(leaves);
    const auto attach = [&](BatchPath& p) {
      p.siblings = path_of(tree, leaves, p.leaf_index);
      p.siblings.insert(p.siblings.end(), request.round.begin(), request.round.end());
    };
    for (auto& v : request.vectors) attach(v.batch);
    for (auto& s : request.shares) attach(s.batch);
  }
  return round;
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

  KeyShareBundle s = share_for("901550000000001", 9);
  sign_batch({}, {&s, 1}, home);
  EXPECT_TRUE(wire::decode<KeyShareBundle>(wire::encode(s)).verify(home.public_key));
}

TEST(BundleBatch, OneSignatureCoversEveryBatchOfARound) {
  const auto home = keys(10);
  const auto round = served_round("901550000000001", 5, home);
  const auto& signature = round[0].vectors[0].home_signature;
  for (std::size_t b = 0; b < round.size(); ++b) {
    EXPECT_EQ(round[b].round.size(), crypto::merkle_path_length(b, 5)) << b;
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

TEST(BundleBatch, PositionsPastU16Throw) {
  const auto home = keys(11);
  std::vector<StoreMaterialRequest> too_many(0x10000);
  EXPECT_THROW(sign_round(too_many, home), std::invalid_argument);
  std::vector<KeyShareBundle> too_large(0x10000, share_for("901550000000001", 1));
  EXPECT_THROW(sign_batch({}, too_large, home), std::invalid_argument);
  std::vector<StoreMaterialRequest> with_empty(2);
  with_empty[0].vectors.push_back(vector_for("901550000000001", 1));
  EXPECT_THROW(sign_round(with_empty, home), std::invalid_argument);
}

TEST(BundleBatch, MixedHomesCannotShareABatch) {
  std::vector<AuthVectorBundle> vectors = {vector_for("901550000000001", 1)};
  std::vector<KeyShareBundle> shares = {share_for("901550000000001", 1)};
  shares[0].home_network = NetworkId("other-home");
  EXPECT_THROW(sign_batch(vectors, shares, keys(3)), std::invalid_argument);
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
       [&](BatchPath& p) { set_round_part(p, bob[1].round); }},
      {"round path one hash short", [](BatchPath& p) { p.siblings.pop_back(); }},
      {"round path one hash long", [](BatchPath& p) { p.siblings.push_back({}); }},
      {"batch root spliced in from another backup",
       [&](BatchPath& p) {
         // Claim batch 2's slot of the same round: its position and round path.
         p.batch_index = 2;
         set_round_part(p, alice[2].round);
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
  EXPECT_EQ(round_part(alice[1].vectors[0].batch), alice[1].round);
}

// ---- Store requests --------------------------------------------------------

StoreMaterialRequest signed_request(const crypto::Ed25519KeyPair& home) {
  StoreMaterialRequest req;
  req.home_network = NetworkId("home-net");
  for (std::uint64_t i = 0; i < 3; ++i) req.vectors.push_back(vector_for("901550000000001", i));
  for (std::uint8_t i = 0; i < 5; ++i) req.shares.push_back(share_for("901550000000001", i));
  sign_batch(req.vectors, req.shares, home);
  return req;
}

TEST(SplitBatches, DisseminationRequestIsOneBatch) {
  const auto home = keys(5);
  const StoreMaterialRequest req = signed_request(home);
  const auto batches = split_batches(req);
  ASSERT_TRUE(batches.has_value());
  ASSERT_EQ(batches->size(), 1u);
  EXPECT_EQ(batches->front().tree.leaf_count(), 8u);
  EXPECT_TRUE(verify_root(batches->front(), req.home_network, home.public_key));
  EXPECT_FALSE(verify_root(batches->front(), req.home_network, keys(6).public_key));
  EXPECT_FALSE(verify_root(batches->front(), NetworkId("other-home"), home.public_key));
}

TEST(SplitBatches, RoundRequestIsOneBatchWithItsRoundPath) {
  const auto home = keys(13);
  auto round = served_round("901550000000001", 3, home);
  for (std::size_t b = 0; b < round.size(); ++b) {
    StoreMaterialRequest req = round[b];
    for (auto& v : req.vectors) v.batch.siblings.clear();  // as the home sends it
    for (auto& s : req.shares) s.batch.siblings.clear();
    const auto batches = split_batches(wire::decode<StoreMaterialRequest>(wire::encode(req)));
    ASSERT_TRUE(batches.has_value()) << b;
    ASSERT_EQ(batches->size(), 1u);
    EXPECT_EQ(batches->front().batch_index, b);
    EXPECT_EQ(batches->front().batch_count, 3u);
    EXPECT_EQ(batches->front().round, req.round);
    EXPECT_TRUE(verify_root(batches->front(), req.home_network, home.public_key)) << b;
    // The batch rebuilds every bundle's served position, path included,
    // from the leaf hashes of its group.
    std::vector<Sha256Digest> leaves;
    for (const auto& v : req.vectors) leaves.push_back(v.leaf_hash());
    for (const auto& s : req.shares) leaves.push_back(s.leaf_hash());
    const BundleBatch& batch = batches->front();
    const auto position = [&](std::uint16_t i) {
      const crypto::MerkleGroup group = batch.tree.group(i);
      return batch_position(batch.tree, i, batch.batch_index, batch.batch_count, batch.round,
                            std::span<const Sha256Digest>(leaves).subspan(group.first, group.size));
    };
    for (const auto& v : round[b].vectors) {
      AuthVectorBundle rebuilt = v;
      rebuilt.batch = position(v.batch.leaf_index);
      EXPECT_EQ(wire::encode(rebuilt), wire::encode(v)) << b;
    }
    for (const auto& s : round[b].shares) {
      KeyShareBundle rebuilt = s;
      rebuilt.batch = position(s.batch.leaf_index);
      EXPECT_EQ(wire::encode(rebuilt), wire::encode(s)) << b;
    }
  }
}

TEST(SplitBatches, FloodRequestIsOneTwoLeafBatch) {
  // A flood is one round over the remaining backups (§4.3): backup b's
  // request is one two-leaf batch, the flood vector and its share b, at
  // place b of the round, and every copy of the vector verifies against
  // the one signature.
  const auto home = keys(7);
  std::vector<StoreMaterialRequest> round(3);
  for (std::uint8_t b = 0; b < round.size(); ++b) {
    round[b].home_network = NetworkId("home-net");
    round[b].vectors.push_back(vector_for("901550000000001", 5));
    round[b].shares.push_back(share_for("901550000000001", static_cast<std::uint8_t>(5 + b)));
  }
  sign_round(round, home);
  for (std::size_t b = 0; b < round.size(); ++b) {
    const auto batches = split_batches(round[b]);
    ASSERT_TRUE(batches.has_value()) << b;
    ASSERT_EQ(batches->size(), 1u);
    EXPECT_EQ(batches->front().tree.leaf_count(), 2u);
    EXPECT_EQ(batches->front().batch_index, b);
    EXPECT_EQ(batches->front().batch_count, 3u);
    EXPECT_TRUE(verify_root(batches->front(), round[b].home_network, home.public_key)) << b;
    EXPECT_EQ(round[b].vectors[0].home_signature, round[0].vectors[0].home_signature);
  }
}

TEST(SplitBatches, InconsistentLayoutsAreRejected) {
  const auto home = keys(8);
  const std::vector<std::pair<const char*, std::function<void(StoreMaterialRequest&)>>> cases =
      {
          {"swapped indices",
           [](StoreMaterialRequest& r) {
             std::swap(r.shares[0].batch.leaf_index, r.shares[1].batch.leaf_index);
           }},
          {"changed count inside the batch",
           [](StoreMaterialRequest& r) { ++r.shares[2].batch.leaf_count; }},
          {"signature changes inside the batch",
           [](StoreMaterialRequest& r) { r.shares[4].home_signature[0] ^= 1; }},
          {"bundle of another home",
           [](StoreMaterialRequest& r) { r.vectors[1].home_network = NetworkId("other"); }},
          {"carried path",
           [](StoreMaterialRequest& r) { r.vectors[0].batch.siblings.push_back({}); }},
          {"truncated batch", [](StoreMaterialRequest& r) { r.shares.pop_back(); }},
          {"zero leaf count",
           [](StoreMaterialRequest& r) {
             for (auto& v : r.vectors) v.batch.leaf_count = 0;
             for (auto& s : r.shares) s.batch.leaf_count = 0;
           }},
          {"count beyond the request",
           [](StoreMaterialRequest& r) {
             for (auto& v : r.vectors) v.batch.leaf_count = 0xffff;
             for (auto& s : r.shares) s.batch.leaf_count = 0xffff;
           }},
          {"round position changes inside the batch",
           [](StoreMaterialRequest& r) { r.shares[1].batch.batch_count = 2; }},
          {"round path carried by a round of one batch",
           [](StoreMaterialRequest& r) { r.round.push_back({}); }},
      };
  for (const auto& [name, mutate] : cases) {
    StoreMaterialRequest req = signed_request(home);
    mutate(req);
    EXPECT_FALSE(split_batches(wire::decode<StoreMaterialRequest>(wire::encode(req))).has_value()) << name;
  }
}

TEST(SplitBatches, RoundAttacksAreRejectedAtStoreTime) {
  // Each attack is either an inconsistent layout (split_batches refuses it)
  // or a consistent one whose round root the home never signed.
  const auto home = keys(14);
  const auto as_sent = [&](const char* supi) {
    auto round = served_round(supi, 4, home);
    for (auto& req : round) {
      for (auto& v : req.vectors) v.batch.siblings.clear();
      for (auto& s : req.shares) s.batch.siblings.clear();
    }
    return round;
  };
  const auto alice = as_sent("901550000000001");
  const auto bob = as_sent("901550000000002");
  const auto set_positions = [](StoreMaterialRequest& r, auto&& edit) {
    for (auto& v : r.vectors) edit(v.batch);
    for (auto& s : r.shares) edit(s.batch);
  };
  const std::vector<std::pair<const char*, std::function<void(StoreMaterialRequest&)>>> cases =
      {
          {"swapped batch index",
           [&](StoreMaterialRequest& r) {
             set_positions(r, [](BatchPath& p) { p.batch_index ^= 1; });
           }},
          {"false batch count",
           [&](StoreMaterialRequest& r) {
             set_positions(r, [](BatchPath& p) { ++p.batch_count; });
           }},
          {"round path from another user's round",
           [&](StoreMaterialRequest& r) { r.round = bob[1].round; }},
          {"round path one hash short", [](StoreMaterialRequest& r) { r.round.pop_back(); }},
          {"round path one hash long", [](StoreMaterialRequest& r) { r.round.push_back({}); }},
          {"batch root spliced in from another backup",
           [&](StoreMaterialRequest& r) {
             set_positions(r, [](BatchPath& p) { p.batch_index = 2; });
             r.round = alice[2].round;
           }},
          {"round that disagrees with its bundles",
           [](StoreMaterialRequest& r) { r.round[0][0] ^= 1; }},
      };
  for (const auto& [name, mutate] : cases) {
    StoreMaterialRequest req = alice[1];
    ASSERT_TRUE(verify_root(split_batches(req)->front(), req.home_network, home.public_key));
    mutate(req);
    const auto batches = split_batches(wire::decode<StoreMaterialRequest>(wire::encode(req)));
    EXPECT_TRUE(!batches || !verify_root(batches->front(), req.home_network, home.public_key))
        << name;
  }
}

TEST(SplitBatches, ConsistentLayoutWithWrongCountFailsTheSignature) {
  // Relabelling every bundle as part of a smaller batch is a valid layout,
  // but not the batch the home signed.
  const auto home = keys(9);
  StoreMaterialRequest req = signed_request(home);
  req.shares.resize(3);
  for (auto& v : req.vectors) v.batch.leaf_count = 6;
  for (auto& s : req.shares) s.batch.leaf_count = 6;
  const auto batches = split_batches(req);
  ASSERT_TRUE(batches.has_value());
  EXPECT_FALSE(verify_root(batches->front(), req.home_network, home.public_key));
}

}  // namespace
}  // namespace dauth::core
