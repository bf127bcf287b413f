// 3GPP key-derivation function (TS 33.220 Annex B) and the 4G/5G key
// hierarchies built on it (TS 33.401 / TS 33.501 Annex A).
//
// dAuth's central secret is K_asme (4G) / K_seaf (5G) — "Kasme/seaf" in the
// paper — which the home network derives ahead of time and splits into
// Shamir shares for the backup networks.
#pragma once

#include <string_view>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/hmac.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"

namespace dauth::crypto {

// Derived session keys and the RES* preimage are Secret: releasing a RES*
// is what authorizes key-share release (paper §4.2.2), so until that moment
// it must be handled exactly like a key.
using Key256 = Secret<32>;
using ResStar = Secret<16>;

/// Generic TS 33.220 B.2 KDF:
///   out = HMAC-SHA-256(key, FC || P0 || L0 || P1 || L1 || ...)
/// where each Li is the 2-byte big-endian length of Pi.
Key256 kdf_3gpp(ByteView key, std::uint8_t fc, std::initializer_list<ByteView> params);

/// The same KDF under a key keyed once, for several derivations from it.
Key256 kdf_3gpp(const HmacSha256& key, std::uint8_t fc, std::initializer_list<ByteView> params);

/// CK||IK keyed for the KDF: the key of A.2 and A.4, keyed once per vector.
HmacSha256 ck_ik_key(const Ck& ck, const Ik& ik);

// ---- 5G hierarchy (TS 33.501 Annex A) -------------------------------------

/// A.2: K_AUSF from CK||IK, the serving-network name and SQN^AK.
Key256 derive_k_ausf(const Ck& ck, const Ik& ik, std::string_view serving_network_name,
                     const ByteArray<6>& sqn_xor_ak);
Key256 derive_k_ausf(const HmacSha256& ck_ik, std::string_view serving_network_name,
                     const ByteArray<6>& sqn_xor_ak);

/// A.4: RES* / XRES* from CK||IK, serving-network name, RAND and RES.
ResStar derive_res_star(const Ck& ck, const Ik& ik, std::string_view serving_network_name,
                        const Rand& rand, const Res& res);
ResStar derive_res_star(const HmacSha256& ck_ik, std::string_view serving_network_name,
                        const Rand& rand, const Res& res);

/// A.5: HRES* / HXRES* = 128 most significant bits of SHA-256(RAND || RES*).
ByteArray<16> derive_hres_star(const Rand& rand, const ResStar& res_star);

/// A.6: K_SEAF from K_AUSF and the serving-network name.
Key256 derive_k_seaf(const Key256& k_ausf, std::string_view serving_network_name);

/// A.7: K_AMF from K_SEAF, the SUPI and the ABBA parameter.
Key256 derive_k_amf(const Key256& k_seaf, std::string_view supi, const ByteArray<2>& abba);

/// A.9: K_gNB from K_AMF and the uplink NAS COUNT (access type 3GPP = 0x01).
Key256 derive_k_gnb(const Key256& k_amf, std::uint32_t uplink_nas_count);

/// dAuth's horizontal handover key (§4.4), K_ho = KDF(K_session, FC=0x70,
/// target network id, 4-byte big-endian handover counter). The source
/// network and the UE derive it independently.
Key256 derive_handover_key(const Key256& k_session, std::string_view target,
                           std::uint32_t counter);

// ---- 4G hierarchy (TS 33.401 Annex A) -------------------------------------

/// A.2: K_ASME from CK||IK, the serving PLMN ID and SQN^AK.
Key256 derive_k_asme(const Ck& ck, const Ik& ik, ByteView plmn_id,
                     const ByteArray<6>& sqn_xor_ak);

/// TS 33.501 §6.1.3.2 serving-network name for 5G AKA: "5G:mnc...mcc...".
std::string serving_network_name(std::string_view mcc, std::string_view mnc);

}  // namespace dauth::crypto
