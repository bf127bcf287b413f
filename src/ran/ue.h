// UE emulation (the srsUE / UERANSIM stand-in).
//
// A Ue owns a Usim and drives the NAS attach flow against a serving core
// over the simulated network:
//   AttachRequest -> AuthRequest(RAND, AUTN) -> [USIM verify] ->
//   AuthResponse(RES*) -> SecurityModeCommand(key confirmation) -> done.
// It calls aka/nas.h's serving.* services, which the dAuth serving network
// and the baseline core both serve.
// The radio-side overhead (cell sync, RACH, RRC setup) is modelled as a
// sampled delay before the first NAS message: ~2ms for an emulated RAN
// (UERANSIM), ~220ms for the physical Baicells+srsUE testbed of Fig. 3,
// with occasional retransmission outliers.
//
// Per §6.2.2/§6.3 the UE always attaches from scratch (no stored context).
#pragma once

#include <functional>
#include <optional>

#include "aka/nas.h"
#include "aka/sim_card.h"
#include "aka/suci.h"
#include "common/ids.h"
#include "sim/rpc.h"

namespace dauth::ran {

struct UeConfig {
  /// Median radio setup time before the first NAS message.
  Time radio_setup = ms(2);
  double radio_setup_jitter_sigma = 0.15;
  /// Probability of a NAS retransmission adding `retransmission_delay`
  /// (the "rare outliers" of Fig. 3a).
  double retransmission_prob = 0.0;
  Time retransmission_delay = ms(200);
  /// Conceal the SUPI as a SUCI (requires the home network's public key).
  bool use_suci = false;
  /// Re-attach with the GUTI assigned by the previous registration instead
  /// of a permanent identifier (§4.1). The paper's performance tests attach
  /// from scratch every time, so this defaults off.
  bool use_guti = false;
  /// 4G/LTE device: EPS AKA (RES + K_ASME) instead of 5G AKA (RES* +
  /// K_seaf). Supported by the baseline core's MME path.
  bool lte = false;
  std::string mcc = "315";
  std::string mnc = "010";
  std::string serving_network_name = "5G:mnc010.mcc315.3gppnetwork.org";
  Time attach_timeout = sec(15);
};

/// Outcome of a §7.4 inter-network handover attempt.
struct HandoverRecord {
  bool success = false;
  Time started = 0;
  Time completed = 0;
  std::string failure;

  Time latency() const noexcept { return completed - started; }
};

struct AttachRecord {
  bool success = false;
  Time started = 0;
  Time completed = 0;
  std::string path;     // "local" / "home-online" / "backup" / "roaming"
  std::string failure;
  bool key_confirmed = false;  // SecurityModeCommand MAC matched our K_seaf

  Time latency() const noexcept { return completed - started; }
};

class Ue {
 public:
  /// `ran_node` is where the gNB/UE stack runs; `core_node` hosts the
  /// serving core ("serving.attach_request"/"serving.auth_response").
  Ue(sim::Rpc& rpc, sim::NodeIndex ran_node, sim::NodeIndex core_node, Supi supi,
     const aka::SubscriberKeys& keys, UeConfig config);

  /// For SUCI attaches: the home network's id (routing hint) and SUCI key.
  void configure_suci(NetworkId home, crypto::X25519Point home_suci_key);

  /// Starts one attach from scratch. Must not be called while one is in
  /// flight; `done` receives the outcome.
  void attach(std::function<void(const AttachRecord&)> done);

  bool busy() const noexcept { return busy_; }
  const Supi& supi() const noexcept { return usim_.supi(); }
  aka::Usim& usim() noexcept { return usim_; }

  /// The temporary identifier assigned at the last successful registration.
  const std::optional<Guti>& guti() const noexcept { return guti_; }
  void forget_guti() { guti_.reset(); }

  /// Moves the UE to a different serving core (cell reselection); the GUTI
  /// is kept so the new network exercises the foreign-GUTI path.
  void move_to(sim::NodeIndex core_node) { core_node_ = core_node; }

  /// §7.4 extension: hands the ACTIVE session over to another federated
  /// serving network without re-authentication. Requires a prior successful
  /// attach (session key + GUTI). On success the UE is camped on the target
  /// with a fresh GUTI and a horizontally-derived session key.
  void handover_to(sim::NodeIndex target_core, std::function<void(const HandoverRecord&)> done);

  /// The session key from the last successful attach/handover (tests).
  const std::optional<crypto::Key256>& session_key() const noexcept { return k_seaf_; }

 private:
  void send_attach_request(const std::function<void(AttachRecord)>& finish, bool allow_guti);
  /// Runs one challenge/response round; recurses (once) on the retry
  /// challenge the network sends after an AUTS resync.
  void run_challenge(std::uint64_t attach_id, const aka::Challenge& challenge, int attempt,
                     const std::function<void(AttachRecord)>& finish);

  sim::Rpc& rpc_;
  sim::NodeIndex ran_node_;
  sim::NodeIndex core_node_;
  aka::Usim usim_;
  UeConfig config_;
  std::optional<NetworkId> suci_home_;
  std::optional<crypto::X25519Point> suci_key_;
  crypto::DeterministicDrbg suci_rng_;
  std::optional<Guti> guti_;
  std::optional<crypto::Key256> k_seaf_;
  bool busy_ = false;
};

}  // namespace dauth::ran
