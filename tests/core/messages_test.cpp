#include "core/messages.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/backup_network.h"  // ReleasedLeaf
#include "core/home_network.h"    // hxres_index
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "directory/directory.h"
#include "wire/reader.h"  // wire::WireError
#include "wire/writer.h"

namespace dauth::core {
namespace {

crypto::Ed25519KeyPair test_keys(std::uint64_t seed) {
  crypto::DeterministicDrbg rng("msg-test", seed);
  return crypto::ed25519_generate(rng);
}

AuthVectorBundle sample_vector(const crypto::Ed25519KeyPair& keys) {
  AuthVectorBundle b;
  b.home_network = NetworkId("home-net");
  b.supi = Supi("901550000000001");
  b.sqn = 1234;
  b.rand = array_from_hex<16>("00112233445566778899aabbccddeeff");
  b.autn = array_from_hex<16>("ffeeddccbbaa99887766554433221100");
  b.hxres_star = array_from_hex<16>("0102030405060708090a0b0c0d0e0f10");
  b.flood = false;
  sign_single(b, keys);
  return b;
}

TEST(Messages, AuthVectorBundleRoundTrip) {
  const auto keys = test_keys(1);
  const AuthVectorBundle original = sample_vector(keys);
  const AuthVectorBundle decoded = wire::decode<AuthVectorBundle>(wire::encode(original));
  EXPECT_EQ(decoded.home_network, original.home_network);
  EXPECT_EQ(decoded.supi, original.supi);
  EXPECT_EQ(decoded.sqn, original.sqn);
  EXPECT_EQ(decoded.rand, original.rand);
  EXPECT_EQ(decoded.autn, original.autn);
  EXPECT_EQ(decoded.hxres_star, original.hxres_star);
  EXPECT_EQ(decoded.flood, original.flood);
  EXPECT_TRUE(decoded.verify(keys.public_key));
}

TEST(Messages, AuthVectorBundleTamperDetected) {
  const auto keys = test_keys(2);
  AuthVectorBundle b = sample_vector(keys);
  ASSERT_TRUE(b.verify(keys.public_key));

  AuthVectorBundle tampered = b;
  tampered.sqn += 32;
  EXPECT_FALSE(tampered.verify(keys.public_key));

  tampered = b;
  tampered.autn[0] ^= 1;
  EXPECT_FALSE(tampered.verify(keys.public_key));

  tampered = b;
  tampered.flood = true;  // flood bit is covered by the signature
  EXPECT_FALSE(tampered.verify(keys.public_key));

  tampered = b;
  tampered.supi = Supi("901550000000002");
  EXPECT_FALSE(tampered.verify(keys.public_key));
}

TEST(Messages, KeyShareBundleRoundTrip) {
  const auto keys = test_keys(3);
  // A lone share, signed as a pushed leaf and served with its empty path.
  StoreMaterialRequest push;
  push.home_network = NetworkId("home-net");
  StoreBatch& batch = push.batches.emplace_back();
  batch.supi = Supi("901550000000001");
  ShareLeaf leaf;
  leaf.hxres_star = array_from_hex<16>("aa0102030405060708090a0b0c0d0eff");
  leaf.x = 3;
  ByteArray<32> y;
  y.fill(0x5a);
  leaf.y = y;
  batch.shares = wire::EncodedSequence<ShareLeaf, SecretBytes>({&leaf, 1});
  sign_round({&push, 1}, keys);
  KeyShareBundle b = bundle_of(push.home_network, batch.supi, leaf);
  b.home_signature = batch.signature;

  const KeyShareBundle decoded = wire::decode<KeyShareBundle>(wire::encode(b));
  EXPECT_EQ(decoded.share.x, 3);
  EXPECT_TRUE(ct_equal(decoded.share.y, b.share.y));
  EXPECT_TRUE(decoded.verify(keys.public_key));

  KeyShareBundle tampered = decoded;
  tampered.share.y[0] ^= 1;
  EXPECT_FALSE(tampered.verify(keys.public_key));
}

TEST(Messages, UsageProofRoundTripAndPreimage) {
  const auto keys = test_keys(5);
  UsageProof p;
  p.serving_network = NetworkId("serving-net");
  p.supi = Supi("901550000000001");
  p.res_star = array_from_hex<16>("d0d1d2d3d4d5d6d7d8d9dadbdcdddedf");
  p.hxres_star = hxres_index(p.res_star);
  p.timestamp = ms(12345);
  p.serving_signature = crypto::ed25519_sign(p.signed_payload(), keys);

  const UsageProof decoded = wire::decode<UsageProof>(wire::encode(p));
  EXPECT_EQ(decoded.serving_network, p.serving_network);
  EXPECT_EQ(decoded.timestamp, ms(12345));
  EXPECT_TRUE(decoded.verify(keys.public_key));
  EXPECT_EQ(hxres_index(decoded.res_star), decoded.hxres_star);

  // The core preimage property: a different RES* cannot hash to the index.
  UsageProof forged = decoded;
  forged.res_star[0] ^= 1;
  EXPECT_NE(hxres_index(forged.res_star), forged.hxres_star);
}

/// A fixed byte pattern: byte i is seed + i.
template <std::size_t N>
ByteArray<N> pattern(std::uint8_t seed) {
  ByteArray<N> out;
  for (std::size_t i = 0; i < N; ++i) out[i] = static_cast<std::uint8_t>(seed + i);
  return out;
}

/// One pushed batch of `supi`'s: two vectors, then a share.
StoreMaterialRequest sample_push(const crypto::Ed25519KeyPair& keys) {
  StoreMaterialRequest req;
  req.home_network = NetworkId("home-net");
  StoreBatch& batch = req.batches.emplace_back();
  batch.supi = Supi("901550000000001");
  const AuthVectorBundle v = sample_vector(keys);
  std::vector<VectorLeaf> vectors(2, {0, v.sqn, v.rand, v.autn, v.hxres_star, v.flood});
  vectors[1].leaf = 1;
  vectors[1].sqn += 1;
  batch.vectors = wire::EncodedSequence<VectorLeaf>(vectors);
  ShareLeaf share;
  share.leaf = 2;
  share.x = 1;
  share.y = ByteArray<32>{0x11, 0x22};
  batch.shares = wire::EncodedSequence<ShareLeaf, SecretBytes>({&share, 1});
  sign_round({&req, 1}, keys);
  req.suci_secret = Bytes(32, 0x77);
  return req;
}

TEST(Messages, StoreMaterialRequestRoundTrip) {
  const auto keys = test_keys(6);
  const StoreMaterialRequest req = sample_push(keys);
  const StoreMaterialRequest decoded = wire::decode<StoreMaterialRequest>(wire::encode(req));
  EXPECT_EQ(wire::encode(decoded), wire::encode(req));
  EXPECT_EQ(decoded.home_network, req.home_network);
  ASSERT_EQ(decoded.batches.size(), 1u);
  const StoreBatch& batch = decoded.batches[0];
  ASSERT_EQ(batch.vectors.size(), 2u);
  ASSERT_EQ(batch.shares.size(), 1u);
  EXPECT_TRUE(ct_equal(decoded.suci_secret, req.suci_secret));
  EXPECT_TRUE(ct_equal(batch.shares[0].y, req.batches[0].shares[0].y));
  // One batch of three leaves, numbered in order, whose pushed tree is the
  // tree of its leaves; each bundle rebuilt from it verifies under the one
  // signature.
  EXPECT_EQ(batch.vectors[1].leaf, 1u);
  EXPECT_EQ(batch.shares[0].leaf, 2u);
  EXPECT_TRUE(well_formed(decoded));
  const auto tree = batch_tree(batch);
  ASSERT_TRUE(tree.has_value());
  std::vector<crypto::Sha256Digest> leaves;
  for (const VectorLeaf& v : batch.vectors) leaves.push_back(leaf_hash(decoded.home_network, batch.supi, v));
  leaves.push_back(leaf_hash(decoded.home_network, batch.supi, batch.shares[0]));
  EXPECT_EQ(tree->root(), crypto::MerkleTree(leaves).root());
  KeyShareBundle share = bundle_of(decoded.home_network, batch.supi, batch.shares[0]);
  share.batch = batch_position(*tree, 2, batch.batch_index, batch.batch_count, batch.round, leaves);
  share.home_signature = batch.signature;
  EXPECT_TRUE(share.verify(keys.public_key));
}

TEST(Messages, LeafHashIsTheHashOfTheSignedPayload) {
  // leaf_hash() streams the fields into SHA-256; signed_payload() builds the
  // same bytes. Both must name the same leaf, for every field and path.
  const auto keys = test_keys(7);
  AuthVectorBundle v = sample_vector(keys);
  v.flood = true;
  EXPECT_EQ(v.leaf_hash(), crypto::merkle_leaf_hash(v.signed_payload()));
  KeyShareBundle s;
  s.home_network = NetworkId("home-net");
  s.supi = Supi("901550000000001");
  s.hxres_star = v.hxres_star;
  s.share.x = 7;
  s.share.y = Bytes(32, 0x3c);
  EXPECT_EQ(s.leaf_hash(), crypto::merkle_leaf_hash(s.signed_payload()));
  s.share.y[31] ^= 1;
  EXPECT_EQ(s.leaf_hash(), crypto::merkle_leaf_hash(s.signed_payload()));
}

TEST(Messages, LeafHashOfALeafIsItsBundlesLeafHash) {
  // The home signs, and a backup rehashes, a leaf from its own fields: the
  // leaf of the bundle it is served as, for every field of a vector or a
  // share.
  const NetworkId home("home-net");
  const Supi supi("901550000000001");
  VectorLeaf vector{4, 0x0102030405060708, pattern<16>(0x10), pattern<16>(0x20),
                    pattern<16>(0x30), false};
  ShareLeaf share;
  share.leaf = 5;
  share.hxres_star = pattern<16>(0x31);
  share.x = 9;
  share.y = pattern<32>(0x5a);
  const auto check = [&](const char* what) {
    EXPECT_EQ(leaf_hash(home, supi, vector), bundle_of(home, supi, vector).leaf_hash()) << what;
    EXPECT_EQ(leaf_hash(home, supi, share), bundle_of(home, supi, share).leaf_hash()) << what;
  };
  check("as built");
  vector.flood = true;
  vector.autn[15] ^= 1;
  share.y[31] ^= 1;
  share.x = 200;
  check("edited");
  EXPECT_NE(leaf_hash(home, Supi("901550000000002"), vector), leaf_hash(home, supi, vector));
  EXPECT_NE(leaf_hash(NetworkId("other"), supi, share), leaf_hash(home, supi, share));
}

// ---- Encoded leaf sequences ----------------------------------------------------

/// `count` leaves of type E, each of other field bytes.
template <typename E>
std::vector<E> sample_leaves(std::size_t count) {
  std::vector<E> leaves(count);
  for (std::size_t i = 0; i < count; ++i) {
    Bytes fields = wire::encode(leaves[i]);
    for (std::size_t k = 0; k < fields.size(); ++k) {
      fields[k] = static_cast<std::uint8_t>(31 * i + k);
    }
    if constexpr (std::is_same_v<E, VectorLeaf>) fields.back() = i % 2;  // the flood bool
    leaves[i] = wire::decode<E>(fields);
  }
  return leaves;
}

/// A message of one std::vector<E>, and one of the same encoded sequence.
template <typename E, typename Buffer>
struct AsVector {
  std::vector<E> leaves;
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.leaves);
  }
};
template <typename E, typename Buffer>
struct AsSequence {
  wire::EncodedSequence<E, Buffer> leaves;
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.leaves);
  }
};

template <typename E, typename Buffer = Bytes>
void expect_encoded_as_vector() {
  for (const std::size_t count : {0, 1, 3, 17}) {
    const std::vector<E> leaves = sample_leaves<E>(count);
    const Bytes as_vector = wire::encode(AsVector<E, Buffer>{leaves});
    const AsSequence<E, Buffer> sequence{wire::EncodedSequence<E, Buffer>(leaves)};
    EXPECT_EQ(wire::encode(sequence), as_vector) << count;
    wire::ByteCounter size;
    size.field(sequence.leaves);
    EXPECT_EQ(size.size(), as_vector.size()) << count;
    // Decoded, it is the same leaves, in place and one by one.
    const auto decoded = wire::decode<AsSequence<E, Buffer>>(as_vector);
    ASSERT_EQ(decoded.leaves.size(), count);
    EXPECT_EQ(decoded.leaves.empty(), count == 0);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(wire::encode(decoded.leaves[i]), wire::encode(leaves[i])) << count << " " << i;
    }
    // Zeroed, then each element written in place, it is the same.
    auto built = wire::EncodedSequence<E, Buffer>::zeroed(count);
    for (std::size_t i = 0; i < count; ++i) built.set(i, leaves[i]);
    EXPECT_EQ(wire::encode(AsSequence<E, Buffer>{built}), as_vector) << count;
  }
}

TEST(Messages, EncodedSequenceEncodesAsItsVector) {
  expect_encoded_as_vector<VectorLeaf>();
  expect_encoded_as_vector<ShareLeaf, SecretBytes>();
  expect_encoded_as_vector<ReleasedLeaf>();
  expect_encoded_as_vector<TreeNode>();
}

TEST(Messages, EncodedSequenceDecodeRefusesWhatTheVectorRefuses) {
  using Vectors = AsVector<VectorLeaf, Bytes>;
  using Sequence = AsSequence<VectorLeaf, Bytes>;
  const Bytes valid = wire::encode(Vectors{sample_leaves<VectorLeaf>(3)});
  const std::size_t stride = 4 + wire::fixed_size<VectorLeaf>();
  const auto refused_by_both = [](const Bytes& frame) {
    EXPECT_THROW((void)wire::decode<Vectors>(frame), wire::WireError);
    EXPECT_THROW((void)wire::decode<Sequence>(frame), wire::WireError);
  };
  // A buffer short of its last element, or of a count.
  refused_by_both(Bytes(valid.begin(), valid.end() - 1));
  refused_by_both(Bytes(valid.begin(), valid.begin() + 3));
  // An element frame one byte short or long of the element, and one of 2^32 - 1.
  for (const std::uint8_t frame : {static_cast<std::uint8_t>(stride - 5),
                                   static_cast<std::uint8_t>(stride - 3)}) {
    Bytes wrong = valid;
    wrong[4 + stride] = frame;
    refused_by_both(wrong);
  }
  Bytes huge_frame = valid;
  std::fill_n(huge_frame.begin() + 4, 4, 0xff);
  refused_by_both(huge_frame);
  // A count past the end, by one element and by 2^32 - 1.
  Bytes past = valid;
  past[0] = 4;
  refused_by_both(past);
  std::fill_n(past.begin(), 4, 0xff);
  refused_by_both(past);
  // A flood boolean that is neither 0 nor 1.
  Bytes boolean = valid;
  boolean[4 + 2 * stride - 1] = 2;
  refused_by_both(boolean);
  // Trailing bytes after the sequence.
  Bytes trailing = valid;
  trailing.push_back(0);
  refused_by_both(trailing);
  EXPECT_NO_THROW((void)wire::decode<Sequence>(valid));
}

TEST(Messages, StoreMaterialRequestIsFramedInPlaceAndSizedExactly) {
  // A store request is written into a buffer reserved at its exact size, so
  // a queued push carries no spare capacity, and it frames each batch in
  // place, byte-identical to the batch's own encoding.
  StoreMaterialRequest req = sample_push(test_keys(8));
  req.batches.push_back(req.batches[0]);

  const Bytes encoded = wire::encode(req);
  EXPECT_EQ(encoded.capacity(), encoded.size());
  wire::Reader r(encoded);
  (void)r.string();
  ASSERT_EQ(r.u32(), 2u);
  EXPECT_EQ(r.bytes(), wire::encode(req.batches[0]));
  EXPECT_EQ(r.bytes(), wire::encode(req.batches[1]));
}

TEST(Messages, GetVectorRequestRoundTrip) {
  GetVectorRequest req;
  req.serving_network = NetworkId("serving");
  req.supi = Supi("901550000000009");
  const GetVectorRequest decoded = wire::decode<GetVectorRequest>(wire::encode(req));
  EXPECT_EQ(decoded.serving_network, req.serving_network);
  EXPECT_EQ(decoded.supi, req.supi);
  EXPECT_TRUE(decoded.suci.empty());
}

TEST(Messages, ReportRequestRoundTrip) {
  const auto keys = test_keys(7);
  ReportRequest req;
  req.backup_network = NetworkId("backup-3");
  for (int i = 0; i < 3; ++i) {
    UsageProof p;
    p.serving_network = NetworkId("serving");
    p.supi = Supi("901550000000001");
    p.res_star[0] = static_cast<std::uint8_t>(i);
    p.hxres_star = hxres_index(p.res_star);
    p.serving_signature = crypto::ed25519_sign(p.signed_payload(), keys);
    req.proofs.push_back(p);
  }
  const ReportRequest decoded = wire::decode<ReportRequest>(wire::encode(req));
  EXPECT_EQ(decoded.backup_network, req.backup_network);
  ASSERT_EQ(decoded.proofs.size(), 3u);
  for (const auto& p : decoded.proofs) EXPECT_TRUE(p.verify(keys.public_key));
}

TEST(Messages, RevokeSharesRequestRoundTrip) {
  RevokeSharesRequest req;
  req.home_network = NetworkId("home");
  req.supi = Supi("901550000000001");
  req.hxres_indices.push_back(array_from_hex<16>("00000000000000000000000000000001"));
  req.hxres_indices.push_back(array_from_hex<16>("00000000000000000000000000000002"));
  const RevokeSharesRequest decoded = wire::decode<RevokeSharesRequest>(wire::encode(req));
  EXPECT_EQ(decoded.home_network, req.home_network);
  ASSERT_EQ(decoded.hxres_indices.size(), 2u);
  EXPECT_EQ(decoded.hxres_indices[1][15], 2);
}

TEST(Messages, DecodeRejectsGarbage) {
  const Bytes garbage = {1, 2, 3};
  EXPECT_THROW(wire::decode<AuthVectorBundle>(garbage), wire::WireError);
  EXPECT_THROW(wire::decode<KeyShareBundle>(garbage), wire::WireError);
  EXPECT_THROW(wire::decode<UsageProof>(garbage), wire::WireError);
  EXPECT_THROW(wire::decode<StoreMaterialRequest>(garbage), wire::WireError);
  EXPECT_THROW(wire::decode<ReportRequest>(garbage), wire::WireError);
  EXPECT_THROW(wire::decode<RevokeSharesRequest>(garbage), wire::WireError);
}

TEST(Messages, SignaturesAreDomainSeparated) {
  // A vector bundle signature must not verify as a key-share signature even
  // over identical field bytes (different domain tags).
  const auto keys = test_keys(8);
  const AuthVectorBundle v = sample_vector(keys);
  KeyShareBundle s;
  s.home_network = v.home_network;
  s.supi = v.supi;
  s.hxres_star = v.hxres_star;
  s.share.x = 1;
  s.home_signature = v.home_signature;  // stolen signature
  EXPECT_FALSE(s.verify(keys.public_key));
}

std::string digest(ByteView data) { return to_hex(crypto::sha256(data)); }

TEST(Messages, EveryEncodingIsPinned) {
  // One fixed instance of every wire message, core and directory: the
  // SHA-256 of its encoding and, for a signed message, of the bytes its
  // signature covers. A codec change that moves any byte changes a digest.
  const NetworkId home("home-net");
  const Supi supi("901550000000001");
  BatchPath path{3, 7, 1, 2, {pattern<32>(0x40), pattern<32>(0x60)}};

  AuthVectorBundle vector;
  vector.home_network = home;
  vector.supi = supi;
  vector.sqn = 0x0102030405060708;
  vector.rand = pattern<16>(0x10);
  vector.autn = pattern<16>(0x20);
  vector.hxres_star = pattern<16>(0x30);
  vector.flood = true;
  vector.batch = path;
  vector.home_signature = pattern<64>(0x80);

  KeyShareBundle share;
  share.home_network = home;
  share.supi = supi;
  share.hxres_star = pattern<16>(0x31);
  share.share.x = 5;
  share.share.y = Bytes(32, 0x5a);
  share.batch = path;
  share.home_signature = pattern<64>(0x81);

  UsageProof proof;
  proof.serving_network = NetworkId("serving-net");
  proof.supi = supi;
  proof.hxres_star = pattern<16>(0x32);
  proof.res_star = crypto::ResStar(ByteView(pattern<16>(0x33)));
  proof.timestamp = -12345;
  proof.serving_signature = pattern<64>(0x82);

  // The vector twice, then the share, as one pushed batch at the place
  // `path` names, with the nodes of its tree.
  StoreMaterialRequest store;
  store.home_network = home;
  StoreBatch& batch = store.batches.emplace_back();
  batch.supi = supi;
  batch.batch_index = path.batch_index;
  batch.batch_count = path.batch_count;
  batch.signature = vector.home_signature;
  batch.round = {pattern<32>(0x70)};
  const VectorLeaf vector_leaf{0,           vector.sqn,        vector.rand,
                               vector.autn, vector.hxres_star, vector.flood};
  const std::vector<VectorLeaf> vectors = {
      vector_leaf, {1, vector.sqn, vector.rand, vector.autn, vector.hxres_star, vector.flood}};
  batch.vectors = wire::EncodedSequence<VectorLeaf>(vectors);
  ByteArray<32> ordinate;
  ordinate.fill(0x5a);
  const ShareLeaf share_leaf{2, share.hxres_star, share.share.x, ordinate};
  batch.shares = wire::EncodedSequence<ShareLeaf, SecretBytes>({&share_leaf, 1});
  const crypto::Sha256Digest leaves[] = {vector.leaf_hash(), vector.leaf_hash(), share.leaf_hash()};
  const crypto::MerkleTree tree(leaves);
  for (const auto& node : tree.nodes()) batch.nodes.push_back({node});
  store.suci_secret = Bytes(32, 0x77);
  store.tag = pattern<32>(0x78);

  GetVectorRequest get_vector{NetworkId("serving-net"), supi, Bytes{9, 8, 7}};
  ShareReply share_reply{share, 17};
  ReportRequest report{NetworkId("backup-net"), {proof, proof}};
  RevokeSharesRequest revoke{home, supi, {pattern<16>(0x34), pattern<16>(0x35)},
                             pattern<32>(0x83)};
  GutiResolveRequest guti_request{0xfedcba9876543210};
  GutiResolveReply guti_reply{supi, home};
  HandoverContextRequest handover_request{42, NetworkId("target-net"), pattern<64>(0x84)};
  HandoverContextReply handover_reply{supi, home, pattern<32>(0x36), 3};
  ResyncRequest resync{supi, pattern<16>(0x37), {pattern<6>(0x38), pattern<8>(0x39)}};
  KeyReply key_reply{pattern<32>(0x3a)};

  directory::NameLookup lookup{"home-net"};
  directory::NetworkEntry network{home, pattern<32>(0x90), pattern<32>(0xa0), pattern<32>(0xa8),
                                  11, pattern<64>(0xb0)};
  directory::UserEntry user{supi, home, pattern<64>(0xb1)};
  directory::BackupsEntry backups{home, {NetworkId("b1"), NetworkId("b2")}, pattern<64>(0xb2)};

  const std::vector<std::pair<std::string, std::string>> pinned = {
      {"AuthVectorBundle", digest(wire::encode(vector))},
      {"AuthVectorBundle signed", digest(vector.signed_payload())},
      {"AuthVectorBundle leaf", to_hex(vector.leaf_hash())},
      {"KeyShareBundle", digest(wire::encode(share))},
      {"KeyShareBundle signed", digest(share.signed_payload())},
      {"KeyShareBundle leaf", to_hex(share.leaf_hash())},
      {"UsageProof", digest(wire::encode(proof))},
      {"UsageProof signed", digest(proof.signed_payload())},
      {"StoreMaterialRequest", digest(wire::encode(store))},
      {"GetVectorRequest", digest(wire::encode(get_vector))},
      {"ShareReply", digest(wire::encode(share_reply))},
      {"ReportRequest", digest(wire::encode(report))},
      {"RevokeSharesRequest", digest(wire::encode(revoke))},
      {"RevokeSharesRequest signed", digest(wire::signed_payload(revoke))},
      {"GutiResolveRequest", digest(wire::encode(guti_request))},
      {"GutiResolveReply", digest(wire::encode(guti_reply))},
      {"HandoverContextRequest", digest(wire::encode(handover_request))},
      {"HandoverContextRequest signed", digest(handover_request.signed_payload())},
      {"HandoverContextReply", digest(wire::encode(handover_reply))},
      {"ResyncRequest", digest(wire::encode(resync))},
      {"KeyReply", digest(wire::encode(key_reply))},
      {"NameLookup", digest(wire::encode(lookup))},
      {"NetworkEntry", digest(wire::encode(network))},
      {"NetworkEntry signed", digest(network.signed_payload())},
      {"UserEntry", digest(wire::encode(user))},
      {"UserEntry signed", digest(user.signed_payload())},
      {"BackupsEntry", digest(wire::encode(backups))},
      {"BackupsEntry signed", digest(backups.signed_payload())},
  };
  const std::map<std::string, std::string> expected = {
      {"AuthVectorBundle",
       "c41198b241ee650f02ed2c10112893d6f8cdd0abe43f2d29d207591d38d2ad29"},
      {"AuthVectorBundle signed",
       "17baf1ed363e16c1fb97c2ce90399f4299bfe438817335f14fc9a67f63920c62"},
      {"AuthVectorBundle leaf",
       "408a075cb654e120d240a4c5580de74a1e25e2dee78e1f4bb712b4a29eee9f0f"},
      {"KeyShareBundle",
       "c8b506fb4e7e1c8f63e317e9a6bf9695b359d4f6f41fec7d2046dc9c74022036"},
      {"KeyShareBundle signed",
       "27a37421239cbde8655d9bfb379269645c93926ccc107b8c46438a6d704be02a"},
      {"KeyShareBundle leaf",
       "eac3c67dc655b8e008e1ecdb3f9a76de7fc82bc5a02678c9988881880fcb768e"},
      {"UsageProof",
       "adf972223f8e24e4a78d694d64258504f4694ca8b19fb067e246e26908355b3b"},
      {"UsageProof signed",
       "867af439db04e53271364c33d8d2099c763db4f3cad0898e2cd3357ef9535841"},
      {"StoreMaterialRequest",
       "48c5508c45db8c900d68bcfeecc7f37e8c1e8ba0dcbee15a00aab3898f9e77d3"},
      {"GetVectorRequest",
       "cfdfdd98797dcbcd6abc7fccec42fd3c2346bdb4ee0b594089870749a062c491"},
      {"ShareReply",
       "0fbd4fbfb908918cbc3fba2f35ba57fcc5895effaa1825494f7c66a8c725c685"},
      {"ReportRequest",
       "1daec5bbbc92209d51fed4729aac47ed6f9f226fc057574a125914e4530773d9"},
      {"RevokeSharesRequest",
       "6939c4d49035605a3450b8b4e254e71af15eae7cc78a18ae0b380d298aa7de54"},
      {"RevokeSharesRequest signed",
       "d4857a8fcc149154f9735b6f52d86995ebc7c5b8040d8906af79f49ebd0143f1"},
      {"GutiResolveRequest",
       "aeb75d1514cbdb001af65f8826553df8fe6b2e11c67ff3a54435ea400894d7ea"},
      {"GutiResolveReply",
       "2ff1bf902565a75d76d86e3b362e989630111902e0a6327568173beb9de98968"},
      {"HandoverContextRequest",
       "2b5cdd9da94b85fab4ff29e754878bfa870221bc22045ba3aea31a5e3703369d"},
      {"HandoverContextRequest signed",
       "eba6b513c7fe4e44253401ce5785e23f1d64af0fc642ab2289b96c57b4b47c20"},
      {"HandoverContextReply",
       "41fae505b3bce14cf9b367e202eaaf175df1ffffcea5d903fffaca8afbca0e34"},
      {"ResyncRequest",
       "9d05eb03820f7357a436dbd5db1da382866dabf405a91a461d1c16818519066e"},
      {"KeyReply",
       "995bc0e59a3edd6ed697f98a2d04ae59a8ed67db7b3196978996c4cf22cc7bd7"},
      {"NameLookup",
       "ec2a3fece604bc5ee99ad92911b270f9002e362bd0d746174e190b74c9c18464"},
      {"NetworkEntry",
       "d7154e88ac2717a01bbd74d2654a238ec9f2a7b2e7a68c96f081ebcdeb72ce34"},
      {"NetworkEntry signed",
       "c135feb8e9a2adbdb4af5459629ba6436be1cd5071b97c516ca521ab1d2a23e0"},
      {"UserEntry",
       "06dc84573c9fff414e2bf215954ad06e253785c2749452ad25e8d12a84f7a34e"},
      {"UserEntry signed",
       "ec7c8889209e1e5f34c77ff69f58c0ef5c3b9c9011ce2e75ae278952b4ea6491"},
      {"BackupsEntry",
       "04e183a9f2a0581c89dc9adc65741f392cfcb23f3e268aa9f2e7caf9bb9565d7"},
      {"BackupsEntry signed",
       "519f55ac9e52211ea2c49d4732bee78749dfd3c1dfff15324b662cfa2ab2906c"},
  };
  for (const auto& [name, actual] : pinned) {
    const auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no pinned digest for " << name << ": " << actual;
      continue;
    }
    EXPECT_EQ(actual, it->second) << name;
  }
  EXPECT_EQ(expected.size(), pinned.size());
}

}  // namespace
}  // namespace dauth::core
