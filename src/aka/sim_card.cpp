#include "aka/sim_card.h"

namespace dauth::aka {

namespace {

/// Shared 4G/5G challenge validation: recovers the SQN, checks MAC-A, and
/// enforces the slice window. On success `mil`/`sqn_xor_ak`/`sqn` are set.
struct ChallengeCheck {
  bool mac_ok = false;
  bool sqn_ok = false;
  crypto::MilenageOutput mil{};
  ByteArray<6> sqn_bytes{};
  ByteArray<6> sqn_xor_ak{};
  std::uint64_t sqn = 0;
};

ChallengeCheck check_challenge(const aka::SubscriberKeys& keys, const SqnTracker& tracker,
                               const crypto::Rand& rand, const Autn& autn) {
  const AutnParts parts = split_autn(autn);
  const crypto::MilenageOutput ak_pass =
      crypto::milenage(keys.k, keys.opc, rand, ByteArray<6>{}, parts.amf);
  ChallengeCheck check;
  check.sqn_xor_ak = parts.sqn_xor_ak;
  check.sqn_bytes = xor_arrays(parts.sqn_xor_ak, ak_pass.ak);
  check.sqn = sqn_from_bytes(check.sqn_bytes);
  check.mil = crypto::milenage(keys.k, keys.opc, rand, check.sqn_bytes, parts.amf);
  check.mac_ok = ct_equal(check.mil.mac_a, parts.mac_a);
  check.sqn_ok = tracker.would_accept(check.sqn);
  return check;
}

/// f1* / f5* under the all-zeros resync AMF (TS 33.102 §6.3.3).
crypto::MilenageOutput resync_milenage(const SubscriberKeys& keys, const crypto::Rand& rand,
                                       const ByteArray<6>& sqn) {
  const crypto::Amf resync_amf{0x00, 0x00};
  return crypto::milenage(keys.k, keys.opc, rand, sqn, resync_amf);
}

/// AUTS from SQNms, the highest SQN the USIM has accepted.
Auts build_auts(const aka::SubscriberKeys& keys, const SqnTracker& tracker,
                const crypto::Rand& rand) {
  const ByteArray<6> sqn_ms_bytes = sqn_to_bytes(tracker.highest_overall());
  const crypto::MilenageOutput resync = resync_milenage(keys, rand, sqn_ms_bytes);
  Auts auts;
  auts.sqn_ms_xor_ak_star = xor_arrays(sqn_ms_bytes, resync.ak_star);
  auts.mac_s = resync.mac_s;
  return auts;
}

}  // namespace

UsimResult4G Usim::authenticate_4g(const crypto::Rand& rand, const Autn& autn,
                                   const ByteArray<3>& plmn) {
  const ChallengeCheck check = check_challenge(keys_, sqn_, rand, autn);

  UsimResult4G result;
  if (!check.mac_ok) {
    result.failure = UsimFailure::kMacMismatch;
    return result;
  }
  if (!check.sqn_ok) {
    result.failure = UsimFailure::kSqnOutOfRange;
    result.auts = build_auts(keys_, sqn_, rand);
    return result;
  }
  sqn_.accept(check.sqn);

  UsimResponse4G response;
  response.sqn = check.sqn;
  response.res = check.mil.res;
  response.k_asme = crypto::derive_k_asme(check.mil.ck, check.mil.ik, plmn, check.sqn_xor_ak);
  result.response = response;
  return result;
}

UsimResult Usim::authenticate(const crypto::Rand& rand, const Autn& autn,
                              const std::string& serving_network_name) {
  const ChallengeCheck check = check_challenge(keys_, sqn_, rand, autn);

  UsimResult result;
  if (!check.mac_ok) {
    result.failure = UsimFailure::kMacMismatch;
    return result;
  }
  if (!check.sqn_ok) {
    result.failure = UsimFailure::kSqnOutOfRange;
    result.auts = build_auts(keys_, sqn_, rand);
    return result;
  }
  sqn_.accept(check.sqn);

  UsimResponse response;
  response.sqn = check.sqn;
  const crypto::HmacSha256 ck_ik = crypto::ck_ik_key(check.mil.ck, check.mil.ik);
  response.res_star =
      crypto::derive_res_star(ck_ik, serving_network_name, rand, check.mil.res);
  const crypto::Key256 k_ausf =
      crypto::derive_k_ausf(ck_ik, serving_network_name, check.sqn_xor_ak);
  response.k_seaf = crypto::derive_k_seaf(k_ausf, serving_network_name);
  result.response = response;
  return result;
}

bool verify_auts(const SubscriberKeys& keys, const crypto::Rand& rand, const Auts& auts,
                 std::uint64_t& sqn_ms) {
  // TS 33.102 §6.3.5: recover SQNms with AK* = f5*(K, RAND), then check
  // MAC-S over (SQNms, RAND, AMF=0) before trusting the UE's counter.
  const ByteArray<6> sqn_ms_bytes =
      xor_arrays(auts.sqn_ms_xor_ak_star, resync_milenage(keys, rand, ByteArray<6>{}).ak_star);
  if (!ct_equal(resync_milenage(keys, rand, sqn_ms_bytes).mac_s, auts.mac_s)) return false;
  sqn_ms = sqn_from_bytes(sqn_ms_bytes);
  return true;
}

}  // namespace dauth::aka
