#include "aka/auth_vector.h"

#include <cstring>
#include <stdexcept>

#include "aka/sqn.h"
#include "crypto/sha256.h"

namespace dauth::aka {

AuthVector generate_auth_vector(const SubscriberKeys& keys, std::uint64_t sqn,
                                const crypto::Rand& rand,
                                const std::string& serving_network_name,
                                const crypto::Amf& amf) {
  const ByteArray<6> sqn_bytes = sqn_to_bytes(sqn);
  const crypto::MilenageOutput mil = crypto::milenage(keys.k, keys.opc, rand, sqn_bytes, amf);

  AuthVector v;
  v.rand = rand;
  v.sqn = sqn;

  const ByteArray<6> sqn_xor_ak = xor_arrays(sqn_bytes, mil.ak);
  v.autn = make_autn(sqn_xor_ak, amf, mil.mac_a);

  // CK||IK keys both derivations: keyed once.
  const crypto::HmacSha256 ck_ik = crypto::ck_ik_key(mil.ck, mil.ik);
  v.xres_star = crypto::derive_res_star(ck_ik, serving_network_name, rand, mil.res);
  v.hxres_star = crypto::derive_hres_star(rand, v.xres_star);

  const crypto::Key256 k_ausf = crypto::derive_k_ausf(ck_ik, serving_network_name, sqn_xor_ak);
  v.k_seaf = crypto::derive_k_seaf(k_ausf, serving_network_name);
  return v;
}

ByteArray<3> encode_plmn(std::string_view mcc, std::string_view mnc) {
  if (mcc.size() != 3 || (mnc.size() != 2 && mnc.size() != 3)) {
    throw std::invalid_argument("encode_plmn: bad mcc/mnc length");
  }
  auto digit = [](char c) -> std::uint8_t {
    if (c < '0' || c > '9') throw std::invalid_argument("encode_plmn: non-digit");
    return static_cast<std::uint8_t>(c - '0');
  };
  ByteArray<3> plmn;
  plmn[0] = static_cast<std::uint8_t>((digit(mcc[1]) << 4) | digit(mcc[0]));
  const std::uint8_t mnc3 = mnc.size() == 3 ? digit(mnc[2]) : 0x0f;  // filler
  plmn[1] = static_cast<std::uint8_t>((mnc3 << 4) | digit(mcc[2]));
  plmn[2] = static_cast<std::uint8_t>((digit(mnc[1]) << 4) | digit(mnc[0]));
  return plmn;
}

AuthVector4G generate_auth_vector_4g(const SubscriberKeys& keys, std::uint64_t sqn,
                                     const crypto::Rand& rand, const ByteArray<3>& plmn,
                                     const crypto::Amf& amf) {
  const ByteArray<6> sqn_bytes = sqn_to_bytes(sqn);
  const crypto::MilenageOutput mil = crypto::milenage(keys.k, keys.opc, rand, sqn_bytes, amf);

  AuthVector4G v;
  v.rand = rand;
  v.sqn = sqn;
  const ByteArray<6> sqn_xor_ak = xor_arrays(sqn_bytes, mil.ak);
  v.autn = make_autn(sqn_xor_ak, amf, mil.mac_a);
  v.xres = mil.res;
  v.hxres = take<16>(crypto::sha256(mil.res));
  v.k_asme = crypto::derive_k_asme(mil.ck, mil.ik, plmn, sqn_xor_ak);
  return v;
}

AutnParts split_autn(const Autn& autn) noexcept {
  AutnParts parts;
  std::memcpy(parts.sqn_xor_ak.data(), autn.data(), 6);
  std::memcpy(parts.amf.data(), autn.data() + 6, 2);
  std::memcpy(parts.mac_a.data(), autn.data() + 8, 8);
  return parts;
}

Autn make_autn(const ByteArray<6>& sqn_xor_ak, const crypto::Amf& amf,
               const crypto::MacA& mac_a) noexcept {
  Autn autn;
  std::memcpy(autn.data(), sqn_xor_ak.data(), 6);
  std::memcpy(autn.data() + 6, amf.data(), 2);
  std::memcpy(autn.data() + 8, mac_a.data(), 8);
  return autn;
}

}  // namespace dauth::aka
