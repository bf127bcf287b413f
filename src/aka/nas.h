// The NAS frames between a UE and its serving core: the 5G-AKA
// registration exchange of TS 24.501/TS 33.501, reduced to what this model
// carries, and the UE-facing serving.* services that carry them (declared
// at the end). ran::Ue calls them; core::ServingNetwork and
// baseline::StandaloneCore both serve them, so one UE drives both systems.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "aka/auth_vector.h"
#include "common/ids.h"
#include "sim/service.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::aka {

/// One identity, the others empty: a GUTI, a SUCI with its home as routing
/// hint, or the cleartext SUPI.
struct AttachRequest {
  Supi supi;
  Bytes suci;  // a wire-encoded Suci
  NetworkId home;
  Guti guti;
  bool lte = false;  // RAT: 5G NR, or 4G LTE (EPS AKA)

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi, m.suci, m.home, m.guti, m.lte);
  }
};

/// AuthRequest(RAND, AUTN).
struct Challenge {
  crypto::Rand rand{};
  Autn autn{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.rand, m.autn);
  }
};

/// The GUTI did not resolve: the attach ends, and the UE retries with a
/// long-lived identifier (§4.1).
struct IdentityRequest {
  template <typename F, typename Self>
  static void fields(F&, Self&) {}
};

struct AttachReply {
  std::uint64_t attach_id = 0;
  std::variant<Challenge, IdentityRequest> step;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.attach_id, m.step);
  }
};

/// RES* (a 4G RES zero-padded), or a zero RES* and the AUTS of a stale SQN
/// (TS 33.102 §6.3.3).
struct AuthResponse {
  std::uint64_t attach_id = 0;
  crypto::ResStar res_star{};
  std::optional<Auts> auts;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.attach_id);
    f.field(m.res_star);  // DAUTH_DISCLOSE(RES* is the authentication response itself, §4.2.2)
    f.field(m.auts);
  }
};

/// The attach's end: `confirmation` is the SecurityModeCommand key check
/// HMAC(K_seaf, "dauth-smc"), and `guti` the one assigned (value 0: none).
struct Outcome {
  bool success = false;
  std::string path;
  ByteArray<32> confirmation{};
  std::string failure;
  Guti guti;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.success, m.path, m.confirmation, m.failure, m.guti);
  }
};

/// The outcome, or the challenge retried after an AUTS.
struct AuthResponseReply {
  std::variant<Outcome, Challenge> step;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.step);
  }
};

/// To the target: the session's GUTI at the source.
using HandoverRequest = Guti;

/// The new GUTI at the target, the counter K_ho was derived with, and
/// HMAC(K_ho, "dauth-ho").
struct HandoverReply {
  Guti guti;
  std::uint32_t counter = 0;
  ByteArray<32> confirmation{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.guti, m.counter, m.confirmation);
  }
};

// ---- Services -----------------------------------------------------------------
// RRC connection setup before the first NAS message, and the
// SecurityModeComplete / RegistrationAccept exchange after key agreement,
// carry nothing here but cost real round trips.

inline constexpr sim::Service<sim::Ack, sim::Ack> kRrcSetup{"serving.rrc_setup"};
inline constexpr sim::Service<AttachRequest, AttachReply> kAttachRequest{
    "serving.attach_request"};
inline constexpr sim::Service<AuthResponse, AuthResponseReply> kAuthResponse{
    "serving.auth_response"};
inline constexpr sim::Service<sim::Ack, sim::Ack> kRegistrationComplete{
    "serving.registration_complete"};
inline constexpr sim::Service<HandoverRequest, HandoverReply> kHandoverRequest{
    "serving.handover_request"};  // §7.4

}  // namespace dauth::aka
