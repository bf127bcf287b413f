// Authentication-vector generation (home-network / AuC side).
//
// A 5G authentication vector binds one RAND challenge to one SQN:
//   AUTN  = (SQN ^ AK) || AMF || MAC-A
//   XRES* = KDF(CK||IK, SNN, RAND, XRES)
//   K_seaf (via K_ausf) — the session secret dAuth splits into key shares.
// dAuth pre-generates these for backup networks (§4.2.1); in traditional
// mode the home network generates one on demand (§4.1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "crypto/kdf_3gpp.h"
#include "crypto/milenage.h"

namespace dauth::aka {

/// Subscriber credentials as provisioned in the home network's database and
/// mirrored on the SIM card.
struct SubscriberKeys {
  crypto::MilenageKey k;
  crypto::MilenageOpc opc;
};

/// AUTN = (SQN^AK)[6] || AMF[2] || MAC-A[8].
using Autn = ByteArray<16>;

/// AUTS = (SQNms ^ AK*) || MAC-S, the resync token (TS 33.102 §6.3.3).
struct Auts {
  ByteArray<6> sqn_ms_xor_ak_star;
  crypto::MacS mac_s;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.sqn_ms_xor_ak_star, m.mac_s);
  }
};

/// One complete 5G authentication vector (home-network view).
struct AuthVector {
  crypto::Rand rand;
  Autn autn;
  std::uint64_t sqn = 0;               // for bookkeeping; masked inside AUTN
  crypto::ResStar xres_star;           // expected UE response
  ByteArray<16> hxres_star;            // H(XRES*): safe to give serving networks
  crypto::Key256 k_seaf;               // the session secret (never leaves home intact)
};

/// Default AMF with the "separation bit" (bit 0 of the field) set, as 5G
/// requires (TS 33.102 §6.3.1 / TS 33.501).
inline constexpr crypto::Amf kDefaultAmf = {0x80, 0x00};

/// Generates a vector for the given subscriber/SQN/RAND against a serving
/// network name (5G AKA derivations bind to the serving network).
AuthVector generate_auth_vector(const SubscriberKeys& keys, std::uint64_t sqn,
                                const crypto::Rand& rand,
                                const std::string& serving_network_name,
                                const crypto::Amf& amf = kDefaultAmf);

// ---- 4G / EPS AKA (TS 33.401) ----------------------------------------------
//
// dAuth serves unmodified 4G devices through the MME (paper §5.2): the
// challenge transport is identical, but the UE answers with the raw
// Milenage RES and the session secret is K_ASME, bound to the serving PLMN
// instead of the 5G serving-network name.

/// One complete EPS authentication vector.
struct AuthVector4G {
  crypto::Rand rand;
  Autn autn;
  std::uint64_t sqn = 0;
  crypto::Res xres;            // 8-byte expected response (no RES* derivation)
  ByteArray<16> hxres;         // H(XRES): dAuth's share index for 4G vectors
  crypto::Key256 k_asme;       // the session secret (fills K_seaf's role)
};

/// TS 24.301-style 3-byte BCD PLMN identity from MCC/MNC digits.
ByteArray<3> encode_plmn(std::string_view mcc, std::string_view mnc);

/// Generates an EPS vector for the given subscriber/SQN/RAND and PLMN.
AuthVector4G generate_auth_vector_4g(const SubscriberKeys& keys, std::uint64_t sqn,
                                     const crypto::Rand& rand, const ByteArray<3>& plmn,
                                     const crypto::Amf& amf = kDefaultAmf);

/// Splits an AUTN into its fields.
struct AutnParts {
  ByteArray<6> sqn_xor_ak;
  crypto::Amf amf;
  crypto::MacA mac_a;
};
AutnParts split_autn(const Autn& autn) noexcept;
Autn make_autn(const ByteArray<6>& sqn_xor_ak, const crypto::Amf& amf,
               const crypto::MacA& mac_a) noexcept;

}  // namespace dauth::aka
