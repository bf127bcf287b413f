#include "crypto/kdf_3gpp.h"

#include <cstring>

namespace dauth::crypto {

Key256 kdf_3gpp(ByteView key, std::uint8_t fc, std::initializer_list<ByteView> params) {
  return kdf_3gpp(HmacSha256(key), fc, params);
}

Key256 kdf_3gpp(const HmacSha256& key, std::uint8_t fc,
                std::initializer_list<ByteView> params) {
  // S = FC || P0 || L0 || P1 || L1 || ..., streamed into the MAC: S can
  // embed secret-derived params, and the keyed hash wipes what it held.
  Sha256 s = key.start();
  s.update(ByteArray<1>{fc});
  for (ByteView p : params) {
    s.update(p);
    s.update(ByteArray<2>{static_cast<std::uint8_t>(p.size() >> 8),
                          static_cast<std::uint8_t>(p.size() & 0xff)});
  }
  return key.finish(s);
}

namespace {

// CK||IK is the key-hierarchy root after Milenage; the temporary wipes
// itself at the end of the caller's full expression.
Secret<32> ck_ik(const Ck& ck, const Ik& ik) {
  Secret<32> key;
  std::memcpy(key.data(), ck.data(), ck.size());
  std::memcpy(key.data() + ck.size(), ik.data(), ik.size());
  return key;
}

}  // namespace

HmacSha256 ck_ik_key(const Ck& ck, const Ik& ik) { return HmacSha256(ck_ik(ck, ik)); }

Key256 derive_k_ausf(const Ck& ck, const Ik& ik, std::string_view serving_network_name_str,
                     const ByteArray<6>& sqn_xor_ak) {
  return derive_k_ausf(ck_ik_key(ck, ik), serving_network_name_str, sqn_xor_ak);
}

Key256 derive_k_ausf(const HmacSha256& ck_ik, std::string_view serving_network_name_str,
                     const ByteArray<6>& sqn_xor_ak) {
  return kdf_3gpp(ck_ik, 0x6a, {as_bytes(serving_network_name_str), ByteView(sqn_xor_ak)});
}

ResStar derive_res_star(const Ck& ck, const Ik& ik, std::string_view serving_network_name_str,
                        const Rand& rand, const Res& res) {
  return derive_res_star(ck_ik_key(ck, ik), serving_network_name_str, rand, res);
}

ResStar derive_res_star(const HmacSha256& ck_ik, std::string_view serving_network_name_str,
                        const Rand& rand, const Res& res) {
  const Key256 full = kdf_3gpp(ck_ik, 0x6b,
                               {as_bytes(serving_network_name_str), ByteView(rand), ByteView(res)});
  // RES* is the 128 least significant bits (last 16 bytes) of the output.
  ResStar out;
  std::memcpy(out.data(), full.data() + 16, 16);
  return out;
}

ByteArray<16> derive_hres_star(const Rand& rand, const ResStar& res_star) {
  Sha256 h;
  h.update(rand);
  h.update(res_star);
  const Sha256Digest digest = h.finish();
  secure_wipe(&h, sizeof(h));  // its buffer held RES*
  // HRES* is the 128 *most* significant bits (first 16 bytes).
  ByteArray<16> out;
  std::memcpy(out.data(), digest.data(), 16);
  return out;
}

Key256 derive_k_seaf(const Key256& k_ausf, std::string_view serving_network_name_str) {
  return kdf_3gpp(k_ausf, 0x6c, {as_bytes(serving_network_name_str)});
}

Key256 derive_k_amf(const Key256& k_seaf, std::string_view supi, const ByteArray<2>& abba) {
  return kdf_3gpp(k_seaf, 0x6d, {as_bytes(supi), ByteView(abba)});
}

Key256 derive_k_gnb(const Key256& k_amf, std::uint32_t uplink_nas_count) {
  const ByteArray<4> count{static_cast<std::uint8_t>(uplink_nas_count >> 24),
                           static_cast<std::uint8_t>(uplink_nas_count >> 16),
                           static_cast<std::uint8_t>(uplink_nas_count >> 8),
                           static_cast<std::uint8_t>(uplink_nas_count)};
  const ByteArray<1> access_type{0x01};  // 3GPP access
  return kdf_3gpp(k_amf, 0x6e, {ByteView(count), ByteView(access_type)});
}

Key256 derive_handover_key(const Key256& k_session, std::string_view target,
                           std::uint32_t counter) {
  const ByteArray<4> counter_bytes{static_cast<std::uint8_t>(counter >> 24),
                                   static_cast<std::uint8_t>(counter >> 16),
                                   static_cast<std::uint8_t>(counter >> 8),
                                   static_cast<std::uint8_t>(counter)};
  return kdf_3gpp(k_session, 0x70, {as_bytes(target), ByteView(counter_bytes)});
}

Key256 derive_k_asme(const Ck& ck, const Ik& ik, ByteView plmn_id,
                     const ByteArray<6>& sqn_xor_ak) {
  return kdf_3gpp(ck_ik(ck, ik), 0x10, {plmn_id, ByteView(sqn_xor_ak)});
}

std::string serving_network_name(std::string_view mcc, std::string_view mnc) {
  std::string out = "5G:mnc";
  out += mnc;
  out += ".mcc";
  out += mcc;
  out += ".3gppnetwork.org";
  return out;
}

}  // namespace dauth::crypto
