// End-to-end AKA tests: auth-vector generation (network side) against the
// USIM (UE side), including MAC failures, replay rejection and AUTS resync.
#include <gtest/gtest.h>

#include "aka/auth_vector.h"
#include "aka/sim_card.h"
#include "crypto/drbg.h"

namespace dauth::aka {
namespace {

SubscriberKeys test_keys() {
  SubscriberKeys keys;
  keys.k = array_from_hex<16>("465b5ce8b199b49faa5f0a2ee238a6bc");
  keys.opc = array_from_hex<16>("cd63cb71954a9f4e48a5994e37a02baf");
  return keys;
}

const std::string kSnn = crypto::serving_network_name("901", "550");

crypto::Rand make_rand(crypto::DeterministicDrbg& rng) { return rng.array<16>(); }

TEST(Aka, SuccessfulMutualAuthentication) {
  crypto::DeterministicDrbg rng("aka", 1);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);

  SqnAllocator allocator;
  const auto sqn = allocator.allocate(kHomeSlice);
  const AuthVector vector = generate_auth_vector(keys, sqn, make_rand(rng), kSnn);

  const UsimResult result = usim.authenticate(vector.rand, vector.autn, kSnn);
  ASSERT_TRUE(result.ok());

  // UE response matches the expected response.
  EXPECT_TRUE(ct_equal(result.response->res_star, vector.xres_star));
  // Serving network verifies via the hash.
  EXPECT_EQ(crypto::derive_hres_star(vector.rand, result.response->res_star),
            vector.hxres_star);
  // Both sides derived the same session key.
  EXPECT_TRUE(ct_equal(result.response->k_seaf, vector.k_seaf));
  EXPECT_EQ(result.response->sqn, sqn);
}

TEST(Aka, SequentialAuthentications) {
  crypto::DeterministicDrbg rng("aka", 2);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);
  SqnAllocator allocator;

  for (int i = 0; i < 20; ++i) {
    const AuthVector v =
        generate_auth_vector(keys, allocator.allocate(kHomeSlice), make_rand(rng), kSnn);
    EXPECT_TRUE(usim.authenticate(v.rand, v.autn, kSnn).ok()) << "iteration " << i;
  }
}

TEST(Aka, ReplayRejectedWithAuts) {
  crypto::DeterministicDrbg rng("aka", 3);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);
  SqnAllocator allocator;

  const AuthVector v =
      generate_auth_vector(keys, allocator.allocate(kHomeSlice), make_rand(rng), kSnn);
  ASSERT_TRUE(usim.authenticate(v.rand, v.autn, kSnn).ok());

  const UsimResult replayed = usim.authenticate(v.rand, v.autn, kSnn);
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.failure, UsimFailure::kSqnOutOfRange);
  ASSERT_TRUE(replayed.auts.has_value());
}

TEST(Aka, AutsRevealsCorrectSqnMs) {
  crypto::DeterministicDrbg rng("aka", 4);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);
  SqnAllocator allocator;

  std::uint64_t last_sqn = 0;
  for (int i = 0; i < 3; ++i) {
    last_sqn = allocator.allocate(kHomeSlice);
    const AuthVector v = generate_auth_vector(keys, last_sqn, make_rand(rng), kSnn);
    ASSERT_TRUE(usim.authenticate(v.rand, v.autn, kSnn).ok());
  }

  // Replay an old vector to trigger AUTS.
  const AuthVector stale = generate_auth_vector(keys, last_sqn, make_rand(rng), kSnn);
  const UsimResult result = usim.authenticate(stale.rand, stale.autn, kSnn);
  ASSERT_TRUE(result.auts.has_value());

  // The home network verifies MAC-S and recovers SQNms.
  std::uint64_t sqn_ms = 0;
  ASSERT_TRUE(verify_auts(keys, stale.rand, *result.auts, sqn_ms));
  EXPECT_EQ(sqn_ms, last_sqn);

  // Cross-check against hand-rolled Milenage: AK* = f5*(K, RAND) hides
  // SQNms, and MAC-S = f1*(K, SQNms, RAND, AMF) with the all-zeros resync
  // AMF of TS 33.102 §6.3.3.
  const auto mil = crypto::milenage(keys.k, keys.opc, stale.rand, ByteArray<6>{},
                                    crypto::Amf{0x00, 0x00});
  const auto sqn_ms_bytes = xor_arrays(result.auts->sqn_ms_xor_ak_star, mil.ak_star);
  EXPECT_EQ(sqn_from_bytes(sqn_ms_bytes), last_sqn);
  const auto verify =
      crypto::milenage(keys.k, keys.opc, stale.rand, sqn_ms_bytes, crypto::Amf{0x00, 0x00});
  EXPECT_EQ(verify.mac_s, result.auts->mac_s);
}

TEST(Aka, VerifyAutsRejectsForgeries) {
  crypto::DeterministicDrbg rng("aka", 6);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);
  SqnAllocator allocator;
  const AuthVector v =
      generate_auth_vector(keys, allocator.allocate(kHomeSlice), make_rand(rng), kSnn);
  ASSERT_TRUE(usim.authenticate(v.rand, v.autn, kSnn).ok());
  const UsimResult replayed = usim.authenticate(v.rand, v.autn, kSnn);
  ASSERT_TRUE(replayed.auts.has_value());

  std::uint64_t sqn_ms = 7;
  ASSERT_TRUE(verify_auts(keys, v.rand, *replayed.auts, sqn_ms));

  // A flipped SQNms bit, a flipped MAC-S bit, another challenge's RAND and
  // another subscriber's keys all fail, and leave `sqn_ms` alone.
  Auts bad_sqn = *replayed.auts;
  bad_sqn.sqn_ms_xor_ak_star[5] ^= 0x01;
  Auts bad_mac = *replayed.auts;
  bad_mac.mac_s[0] ^= 0x80;
  SubscriberKeys other = keys;
  other.k[0] ^= 0xff;
  const std::uint64_t before = sqn_ms;
  EXPECT_FALSE(verify_auts(keys, v.rand, bad_sqn, sqn_ms));
  EXPECT_FALSE(verify_auts(keys, v.rand, bad_mac, sqn_ms));
  EXPECT_FALSE(verify_auts(keys, make_rand(rng), *replayed.auts, sqn_ms));
  EXPECT_FALSE(verify_auts(other, v.rand, *replayed.auts, sqn_ms));
  EXPECT_EQ(sqn_ms, before);
}

TEST(Aka, WrongKeyMacFails) {
  crypto::DeterministicDrbg rng("aka", 5);
  SubscriberKeys wrong = test_keys();
  wrong.k[0] ^= 0xff;
  Usim usim(Supi("901550000000001"), wrong);  // SIM provisioned differently
  SqnAllocator allocator;

  const AuthVector v = generate_auth_vector(test_keys(), allocator.allocate(kHomeSlice),
                                            make_rand(rng), kSnn);
  const UsimResult result = usim.authenticate(v.rand, v.autn, kSnn);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.failure, UsimFailure::kMacMismatch);
  EXPECT_FALSE(result.auts.has_value());
}

TEST(Aka, TamperedAutnRejected) {
  crypto::DeterministicDrbg rng("aka", 6);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);
  SqnAllocator allocator;

  AuthVector v = generate_auth_vector(keys, allocator.allocate(kHomeSlice), make_rand(rng), kSnn);
  v.autn[10] ^= 0x01;  // flip a MAC bit
  EXPECT_EQ(usim.authenticate(v.rand, v.autn, kSnn).failure, UsimFailure::kMacMismatch);
}

TEST(Aka, TamperedSqnFieldRejected) {
  crypto::DeterministicDrbg rng("aka", 7);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);
  SqnAllocator allocator;

  AuthVector v = generate_auth_vector(keys, allocator.allocate(kHomeSlice), make_rand(rng), kSnn);
  v.autn[0] ^= 0x01;  // changes the recovered SQN -> MAC mismatch
  EXPECT_EQ(usim.authenticate(v.rand, v.autn, kSnn).failure, UsimFailure::kMacMismatch);
}

TEST(Aka, VectorsForDifferentServingNetworksDiffer) {
  crypto::DeterministicDrbg rng("aka", 8);
  const SubscriberKeys keys = test_keys();
  const crypto::Rand rand = make_rand(rng);
  const AuthVector a = generate_auth_vector(keys, 32, rand, kSnn);
  const AuthVector b =
      generate_auth_vector(keys, 32, rand, crypto::serving_network_name("901", "551"));
  EXPECT_EQ(a.autn, b.autn);            // AUTN doesn't bind to SNN
  EXPECT_FALSE(ct_equal(a.xres_star, b.xres_star));  // but the 5G responses do
  EXPECT_FALSE(ct_equal(a.k_seaf, b.k_seaf));
}

TEST(Aka, UeRejectsVectorBoundToOtherNetwork) {
  // A vector generated for SNN-A fails response matching when the UE attaches
  // to SNN-B (the UE computes RES* with the actual serving network's name).
  crypto::DeterministicDrbg rng("aka", 9);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);
  SqnAllocator allocator;

  const std::string other_snn = crypto::serving_network_name("901", "551");
  const AuthVector v =
      generate_auth_vector(keys, allocator.allocate(kHomeSlice), make_rand(rng), kSnn);
  const UsimResult result = usim.authenticate(v.rand, v.autn, other_snn);
  ASSERT_TRUE(result.ok());  // MAC passes (home network is genuine)
  // ...but the serving network's H(XRES*) check fails:
  EXPECT_NE(crypto::derive_hres_star(v.rand, result.response->res_star), v.hxres_star);
}

TEST(Aka, BackupSliceVectorsAcceptedInAnyOrder) {
  // The dAuth core property: vectors pre-generated in distinct slices for
  // different backup networks can be consumed in any interleaving.
  crypto::DeterministicDrbg rng("aka", 10);
  const SubscriberKeys keys = test_keys();
  Usim usim(Supi("901550000000001"), keys);
  SqnAllocator allocator;

  // Six backup networks, slices 1..6, three vectors each.
  std::vector<AuthVector> vectors;
  for (int slice = 1; slice <= 6; ++slice) {
    for (int i = 0; i < 3; ++i) {
      vectors.push_back(
          generate_auth_vector(keys, allocator.allocate(slice), make_rand(rng), kSnn));
    }
  }
  // Consume in slice-interleaved order: 6.0, 5.0, ..., 1.0, 6.1, ... with
  // the constraint that within a slice order is preserved.
  for (int i = 0; i < 3; ++i) {
    for (int slice = 6; slice >= 1; --slice) {
      const auto& v = vectors[static_cast<std::size_t>((slice - 1) * 3 + i)];
      EXPECT_TRUE(usim.authenticate(v.rand, v.autn, kSnn).ok());
    }
  }
}

TEST(Aka, AutnFieldSplitRoundTrip) {
  const ByteArray<6> sqn_xor_ak = array_from_hex<6>("010203040506");
  const crypto::Amf amf = {0x80, 0x00};
  const crypto::MacA mac = array_from_hex<8>("1122334455667788");
  const Autn autn = make_autn(sqn_xor_ak, amf, mac);
  const AutnParts parts = split_autn(autn);
  EXPECT_EQ(parts.sqn_xor_ak, sqn_xor_ak);
  EXPECT_EQ(parts.amf, amf);
  EXPECT_EQ(parts.mac_a, mac);
}

}  // namespace
}  // namespace dauth::aka
