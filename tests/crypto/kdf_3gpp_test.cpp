#include "crypto/kdf_3gpp.h"

#include <gtest/gtest.h>

#include "crypto/hmac.h"

namespace dauth::crypto {
namespace {

TEST(Kdf3gpp, MatchesManualHmacConstruction) {
  // KDF(key, FC, {P0}) == HMAC-SHA-256(key, FC || P0 || L0).
  const Bytes key(32, 0x11);
  const Bytes p0 = {0xde, 0xad};
  const Key256 via_kdf = kdf_3gpp(key, 0x6a, {ByteView(p0)});

  Bytes s = {0x6a, 0xde, 0xad, 0x00, 0x02};
  const Key256 manual = hmac_sha256(key, s);
  EXPECT_TRUE(ct_equal(via_kdf, manual));
}

TEST(Kdf3gpp, HandoverKeyBindsTargetAndCounter) {
  // K_ho = KDF(K_session, 0x70, {target, counter as 4 big-endian bytes}).
  Key256 k_session;
  k_session.fill(0x33);
  const Key256 k_ho = derive_handover_key(k_session, "net-2", 0x01020304);
  const ByteArray<4> counter{0x01, 0x02, 0x03, 0x04};
  EXPECT_TRUE(ct_equal(k_ho, kdf_3gpp(k_session, 0x70, {as_bytes("net-2"), ByteView(counter)})));
  EXPECT_FALSE(ct_equal(k_ho, derive_handover_key(k_session, "net-3", 0x01020304)));
  EXPECT_FALSE(ct_equal(k_ho, derive_handover_key(k_session, "net-2", 0x01020305)));
}

TEST(Kdf3gpp, ParamLengthEncoding) {
  // Parameters of different lengths must produce different S strings even if
  // the concatenated bytes collide ("ab","c" vs "a","bc").
  const Bytes key(32, 0x22);
  const Key256 a = kdf_3gpp(key, 0x10, {as_bytes("ab"), as_bytes("c")});
  const Key256 b = kdf_3gpp(key, 0x10, {as_bytes("a"), as_bytes("bc")});
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(Kdf3gpp, ServingNetworkNameFormat) {
  EXPECT_EQ(serving_network_name("901", "550"), "5G:mnc550.mcc901.3gppnetwork.org");
}

TEST(Kdf3gpp, KeyHierarchyIsDeterministicAndDistinct) {
  const Ck ck = array_from_hex<16>("b40ba9a3c58b2a05bbf0d987b21bf8cb");
  const Ik ik = array_from_hex<16>("f769bcd751044604127672711c6d3441");
  const ByteArray<6> sqn_ak = array_from_hex<6>("55f328b43577");
  const std::string snn = serving_network_name("901", "550");

  const Key256 k_ausf = derive_k_ausf(ck, ik, snn, sqn_ak);
  const Key256 k_seaf = derive_k_seaf(k_ausf, snn);
  const Key256 k_amf = derive_k_amf(k_seaf, "901550000000001", {0x00, 0x00});
  const Key256 k_gnb = derive_k_gnb(k_amf, 0);

  // All levels distinct.
  EXPECT_FALSE(ct_equal(k_ausf, k_seaf));
  EXPECT_FALSE(ct_equal(k_seaf, k_amf));
  EXPECT_FALSE(ct_equal(k_amf, k_gnb));

  // Deterministic.
  EXPECT_TRUE(ct_equal(derive_k_ausf(ck, ik, snn, sqn_ak), k_ausf));

  // Serving network binding: different SNN -> different K_AUSF.
  EXPECT_FALSE(ct_equal(derive_k_ausf(ck, ik, serving_network_name("901", "551"), sqn_ak), k_ausf));
}

TEST(Kdf3gpp, ResStarBindsToRandAndNetwork) {
  const Ck ck = array_from_hex<16>("b40ba9a3c58b2a05bbf0d987b21bf8cb");
  const Ik ik = array_from_hex<16>("f769bcd751044604127672711c6d3441");
  const Rand rand = array_from_hex<16>("23553cbe9637a89d218ae64dae47bf35");
  const Res res = array_from_hex<8>("a54211d5e3ba50bf");
  const std::string snn = serving_network_name("901", "550");

  const ResStar rs = derive_res_star(ck, ik, snn, rand, res);

  Rand rand2 = rand;
  rand2[0] ^= 1;
  EXPECT_FALSE(ct_equal(derive_res_star(ck, ik, snn, rand2, res), rs));
  EXPECT_FALSE(ct_equal(derive_res_star(ck, ik, serving_network_name("001", "01F"), rand, res), rs));
}

TEST(Kdf3gpp, HresStarIsHashPrefix) {
  const Rand rand = array_from_hex<16>("000102030405060708090a0b0c0d0e0f");
  const ResStar rs = array_from_hex<16>("aabbccddeeff00112233445566778899");
  const auto hres = derive_hres_star(rand, rs);
  const auto full = sha256(concat(rand, rs));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(hres[i], full[i]);
}

TEST(Kdf3gpp, KasmeBindsToPlmn) {
  const Ck ck = array_from_hex<16>("b40ba9a3c58b2a05bbf0d987b21bf8cb");
  const Ik ik = array_from_hex<16>("f769bcd751044604127672711c6d3441");
  const ByteArray<6> sqn_ak{};
  const Bytes plmn1 = from_hex("09f155");
  const Bytes plmn2 = from_hex("09f156");
  EXPECT_FALSE(ct_equal(derive_k_asme(ck, ik, plmn1, sqn_ak), derive_k_asme(ck, ik, plmn2, sqn_ak)));
}

TEST(Kdf3gpp, GnbKeyDependsOnNasCount) {
  const Key256 k_amf{};
  EXPECT_FALSE(ct_equal(derive_k_gnb(k_amf, 0), derive_k_gnb(k_amf, 1)));
}

}  // namespace
}  // namespace dauth::crypto
