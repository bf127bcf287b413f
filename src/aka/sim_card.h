// USIM simulation (UE side of 4G/5G AKA).
//
// Verifies network challenges exactly as an off-the-shelf SIM conforming to
// TS 33.102 Annex C would: recompute MAC-A under the shared key, unmask the
// SQN, check it against the per-slice high-water marks, and — on stale SQN —
// produce the AUTS resynchronisation token. On success it derives the UE
// side of the 5G key hierarchy so tests can assert that UE and network end
// up with the same K_seaf.
#pragma once

#include <optional>
#include <string>
#include <variant>

#include "aka/auth_vector.h"
#include "aka/sqn.h"
#include "common/ids.h"

namespace dauth::aka {

/// UE's response to a successful challenge.
struct UsimResponse {
  crypto::ResStar res_star;  // sent back to the serving network
  crypto::Key256 k_seaf;     // derived locally; must match the network's
  std::uint64_t sqn = 0;     // the accepted sequence number (diagnostics)
};

/// UE's response to a successful 4G/EPS challenge.
struct UsimResponse4G {
  crypto::Res res;        // the raw Milenage response
  crypto::Key256 k_asme;  // derived locally; must match the network's
  std::uint64_t sqn = 0;
};

enum class UsimFailure {
  kMacMismatch,   // challenge not produced by the home network -> abort
  kSqnOutOfRange, // replayed/stale vector -> resynchronise
};

struct UsimResult {
  std::optional<UsimResponse> response;     // set on success
  std::optional<UsimFailure> failure;       // set on failure
  std::optional<Auts> auts;                 // set when failure == kSqnOutOfRange

  bool ok() const noexcept { return response.has_value(); }
};

struct UsimResult4G {
  std::optional<UsimResponse4G> response;
  std::optional<UsimFailure> failure;
  std::optional<Auts> auts;

  bool ok() const noexcept { return response.has_value(); }
};

/// Network side of the resync (TS 33.102 §6.3.5): checks the AUTS that the
/// USIM built for the challenge with `rand` and, when MAC-S verifies, sets
/// `sqn_ms` to the USIM's counter. Returns false on a forged or corrupt AUTS.
bool verify_auts(const SubscriberKeys& keys, const crypto::Rand& rand, const Auts& auts,
                 std::uint64_t& sqn_ms);

class Usim {
 public:
  Usim(Supi supi, SubscriberKeys keys) : supi_(std::move(supi)), keys_(keys) {}

  const Supi& supi() const noexcept { return supi_; }
  const SubscriberKeys& keys() const noexcept { return keys_; }

  /// Processes a 5G AuthRequest {RAND, AUTN} bound to
  /// `serving_network_name`. Mutates SQN state on success.
  UsimResult authenticate(const crypto::Rand& rand, const Autn& autn,
                          const std::string& serving_network_name);

  /// Processes a 4G/EPS AuthRequest {RAND, AUTN} bound to the serving PLMN.
  /// Same SIM, same SQN state — a dual-mode device shares the counter.
  UsimResult4G authenticate_4g(const crypto::Rand& rand, const Autn& autn,
                               const ByteArray<3>& plmn);

  /// Read-only SQN state (for tests and revocation checks).
  const SqnTracker& sqn_tracker() const noexcept { return sqn_; }

 private:
  Supi supi_;
  SubscriberKeys keys_;
  SqnTracker sqn_;
};

}  // namespace dauth::aka
