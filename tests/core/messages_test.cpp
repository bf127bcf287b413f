#include "core/messages.h"

#include <gtest/gtest.h>

#include "core/home_network.h"  // hxres_index
#include "crypto/drbg.h"
#include "wire/reader.h"  // wire::WireError

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
  const AuthVectorBundle decoded = AuthVectorBundle::decode(original.encode());
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
  KeyShareBundle b;
  b.home_network = NetworkId("home-net");
  b.supi = Supi("901550000000001");
  b.hxres_star = array_from_hex<16>("aa0102030405060708090a0b0c0d0eff");
  b.share.x = 3;
  b.share.y = Bytes(32, 0x5a);
  sign_single(b, keys);

  const KeyShareBundle decoded = KeyShareBundle::decode(b.encode());
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

  const UsageProof decoded = UsageProof::decode(p.encode());
  EXPECT_EQ(decoded.serving_network, p.serving_network);
  EXPECT_EQ(decoded.timestamp, ms(12345));
  EXPECT_TRUE(decoded.verify(keys.public_key));
  EXPECT_EQ(hxres_index(decoded.res_star), decoded.hxres_star);

  // The core preimage property: a different RES* cannot hash to the index.
  UsageProof forged = decoded;
  forged.res_star[0] ^= 1;
  EXPECT_NE(hxres_index(forged.res_star), forged.hxres_star);
}

TEST(Messages, StoreMaterialRequestRoundTrip) {
  const auto keys = test_keys(6);
  StoreMaterialRequest req;
  req.home_network = NetworkId("home-net");
  req.vectors.push_back(sample_vector(keys));
  req.vectors.push_back(sample_vector(keys));
  KeyShareBundle share;
  share.home_network = req.home_network;
  share.supi = Supi("901550000000001");
  share.share.x = 1;
  share.share.y = Bytes(32, 0x11);
  req.shares.push_back(share);
  sign_batch(req.vectors, req.shares, keys);
  req.suci_secret = Bytes(32, 0x77);

  const StoreMaterialRequest decoded = StoreMaterialRequest::decode(req.encode());
  EXPECT_EQ(decoded.home_network, req.home_network);
  ASSERT_EQ(decoded.vectors.size(), 2u);
  ASSERT_EQ(decoded.shares.size(), 1u);
  EXPECT_TRUE(ct_equal(decoded.suci_secret, req.suci_secret));
  // One batch of three leaves; inside a store request the paths are empty,
  // and the receiver rebuilds the tree to check the single root signature.
  EXPECT_EQ(decoded.shares[0].batch.leaf_index, 2u);
  EXPECT_EQ(decoded.shares[0].batch.leaf_count, 3u);
  const auto batches = split_batches(decoded);
  ASSERT_TRUE(batches.has_value());
  ASSERT_EQ(batches->size(), 1u);
  EXPECT_TRUE(batches->front().verify_root(decoded.home_network, keys.public_key));
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

TEST(Messages, StoreMaterialRequestIsFramedInPlaceAndSizedExactly) {
  // A store request is written into a buffer reserved at its exact size, so
  // a queued push carries no spare capacity, and it frames each bundle in
  // place, byte-identical to the bundle's own encoding.
  const auto keys = test_keys(8);
  StoreMaterialRequest req;
  req.home_network = NetworkId("home-net");
  req.vectors.push_back(sample_vector(keys));
  KeyShareBundle share;
  share.home_network = req.home_network;
  share.supi = Supi("901550000000001");
  share.share.x = 2;
  share.share.y = Bytes(32, 0x22);
  req.shares.push_back(share);
  sign_batch(req.vectors, req.shares, keys);
  req.round.resize(2);
  req.suci_secret = Bytes(32, 0x77);

  const Bytes encoded = req.encode();
  EXPECT_EQ(encoded.capacity(), encoded.size());
  wire::Reader r(encoded);
  (void)r.string();
  ASSERT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.bytes(), req.vectors[0].encode());
  ASSERT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.bytes(), req.shares[0].encode());
}

TEST(Messages, GetVectorRequestRoundTrip) {
  GetVectorRequest req;
  req.serving_network = NetworkId("serving");
  req.supi = Supi("901550000000009");
  const GetVectorRequest decoded = GetVectorRequest::decode(req.encode());
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
  const ReportRequest decoded = ReportRequest::decode(req.encode());
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
  const RevokeSharesRequest decoded = RevokeSharesRequest::decode(req.encode());
  EXPECT_EQ(decoded.home_network, req.home_network);
  ASSERT_EQ(decoded.hxres_indices.size(), 2u);
  EXPECT_EQ(decoded.hxres_indices[1][15], 2);
}

TEST(Messages, DecodeRejectsGarbage) {
  const Bytes garbage = {1, 2, 3};
  EXPECT_THROW(AuthVectorBundle::decode(garbage), wire::WireError);
  EXPECT_THROW(KeyShareBundle::decode(garbage), wire::WireError);
  EXPECT_THROW(UsageProof::decode(garbage), wire::WireError);
  EXPECT_THROW(StoreMaterialRequest::decode(garbage), wire::WireError);
  EXPECT_THROW(ReportRequest::decode(garbage), wire::WireError);
  EXPECT_THROW(RevokeSharesRequest::decode(garbage), wire::WireError);
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

}  // namespace
}  // namespace dauth::core
