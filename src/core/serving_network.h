// Serving-network role: runs Algorithm 1 of the paper.
//
// For each attach the serving network:
//   1. resolves the subscriber's home network (SUCI routing or directory);
//   2. if the user is local, generates the vector itself (LocalAuth);
//   3. else tries the home network directly (§4.1); on failure or on a
//      cached "home is down" hint it falls back to the backup scheme
//      (§4.2.2): fetch a vector from the backups, verify its home
//      signature, challenge the UE, then redeem the signed RES* usage
//      proof at the backups for `threshold` key shares and combine them.
// Both backup requests are one hedged fan-out (FanOut; Dean & Barroso, "The
// Tail at Scale"): a leg that fails, is refused or carries a bad signature
// promotes the next ranked backup at once (a refusal without using up the
// width), the next leg goes out one hedge delay after the newest launch,
// and a leg is in flight until its result is judged. The vector fetch ranks
// by circuit state (half-open backups are probe-only, open ones skipped),
// then slices known empty for the user (share replies' `vectors_left`,
// rejected fetches), then smoothed share RTT (unsampled last; a sim-RNG
// shuffle orders the ties), sends at most `hedge_width` legs, and the first
// verified bundle wins. The share round first sends the `threshold` + 1
// closed backups with the lowest fresh share RTT, plus a probe leg to each
// half-open, unsampled or stale one, in listed order (the §6.4 broadcast
// once `threshold` + 1 covers the reachable backups), and keeps valid
// shares with distinct x until `threshold` are in.
//
// Each attach is one phase machine (Attach::phase):
//   resolve -> vector -> challenge -> [resync-vector -> resync-challenge]
//           -> proof -> combine -> done
// An asynchronous step returns once the attach has left the phase it was
// launched in, and only a challenge phase accepts the UE's auth_response.
// finish() is the one way into done, for every outcome (an IdentityRequest
// too): it closes the spans, counts the attach and answers the UE's pending
// request (a kUpstream failure before the challenge, an outcome after).
//
// The UE-facing side is exposed as two RPC services so a gNB/UE emulator
// can drive it over the simulated network:
//   "serving.attach_request"  {supi|suci|guti} -> {attach_id, RAND, AUTN}
//                                              or an IdentityRequest when a
//                                              GUTI cannot be resolved
//   "serving.auth_response"   {attach_id, RES*} -> {result, key-confirmation,
//                                                   fresh GUTI}
// plus network-facing services:
//   "serving.resolve_guti"    {guti value} -> {supi, home network}
//   "serving.handover_context" {guti value, target}σ -> {supi, home, K_ho}
// per §4.1: a GUTI names the *prior* serving network, which either maps it
// back to the subscriber or the new serving network asks the UE for a
// long-lived identifier.
//
// §7.4 extension — inter-organizational handover: an attached UE moves to
// another federated serving network WITHOUT re-running AKA. The source
// network derives a horizontal key K_ho = KDF(K_seaf, target, counter),
// hands it to the (signature-verified) target along with the subscriber
// identity, and the UE derives the same key locally — one context-transfer
// RPC plus one UE round trip instead of a full authentication.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "aka/nas.h"
#include "core/config.h"
#include "core/home_network.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "crypto/verify_cache.h"
#include "directory/client.h"
#include "sim/rpc.h"

namespace dauth::obs {
class EventJournal;
class Histogram;
class MetricsRegistry;
}  // namespace dauth::obs

namespace dauth::core {

enum class AuthPath { kLocal, kHomeOnline, kBackup };
const char* to_string(AuthPath path) noexcept;

/// Smoothed round-trip time per backup peer, in virtual time: an EWMA with
/// a fixed gain of 1/4 (RFC 6298's SRTT uses 1/8), seeded by the first
/// sample and re-seeded by the first sample after it went stale. The
/// serving network feeds it from every concluded share leg and reads it to
/// rank the legs of each share round and the rungs of each vector fetch.
class PeerRtt {
 public:
  /// How long a sample stays fresh. A share round sends legs only to the
  /// best-ranked backups with a fresh sample, so the others stop being
  /// sampled; once a backup's last sample is this old the next round gives
  /// it a probe leg, whose sample replaces the estimate. Averaged in, the
  /// sample of a backup whose first leg paid its connection handshake
  /// (about three times its true RTT) would take several probes, one per
  /// kMaxAge, to bring the estimate back; the stale estimate says no more
  /// than the probe does. 10 s of virtual time spans ~30 attaches at
  /// 200/min, so the probes cost well under one leg per attach.
  static constexpr Time kMaxAge = 10 * kSecond;

  void observe(sim::NodeIndex peer, Time sample, Time now);
  /// The smoothed estimate, or nullopt before the peer's first sample.
  std::optional<Time> estimate(sim::NodeIndex peer) const;
  /// Whether the peer's last sample is at most kMaxAge old at `now`.
  bool fresh(sim::NodeIndex peer, Time now) const;
  /// Whether `a` should lead before `b`: the lower estimate first, an
  /// unsampled peer last (every share round probes those, so no fetch
  /// needs to explore); ties keep the current order (false). A stale
  /// estimate still ranks: an old sample says more than none.
  bool before(sim::NodeIndex a, sim::NodeIndex b) const;

 private:
  struct Estimate {
    Time srtt;
    Time sampled_at;
  };
  std::map<sim::NodeIndex, Estimate> srtt_;
};

class ServingNetwork {
 public:
  /// `local_home` is this network's own HomeNetwork role (for LocalAuth);
  /// may be null for a pure serving deployment.
  ServingNetwork(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
                 crypto::Ed25519KeyPair signing_key, directory::DirectoryClient& directory,
                 FederationConfig config, HomeNetwork* local_home);

  /// Deadlines of the serving path's calls: a home vector, resync or health
  /// call (the attach then falls back to the backups) and a GUTI or handover
  /// lookup at the prior serving network; a backup vector leg; a share leg
  /// or the home-online key fetch.
  static constexpr Time kHomeAuthTimeout = ms(800);
  static constexpr Time kBackupAuthTimeout = sec(2);
  static constexpr Time kKeyShareTimeout = sec(2);

  const NetworkId& id() const noexcept { return id_; }

  /// Registers the UE-facing services. Call once.
  void bind_services();

  /// Number of active sessions (successful attaches/handovers) held, one
  /// per GUTI mapping (tests).
  std::size_t session_count() const noexcept { return guti_table_.size(); }

  /// Marks a home network as (un)reachable in the health cache; normally
  /// learned from timeouts, but tests/benches can inject it so steady-state
  /// backup performance isn't polluted by the first discovery timeout.
  void set_home_health(const NetworkId& home, bool reachable);

  const ServingMetrics& metrics() const noexcept { return metrics_; }

  /// Per-backup share RTT estimates that rank vector-fetch candidates.
  const PeerRtt& peer_rtt() const noexcept { return peer_rtt_; }

  /// Wires this role into the observability layer (docs/OBSERVABILITY.md):
  /// registers the counters as registry views, opens the attach-latency
  /// histogram, and records attach lifecycle events in the journal. Either
  /// pointer may be null; both must outlive this object while set.
  void set_observability(obs::MetricsRegistry* registry, obs::EventJournal* journal);

 private:
  /// See the file comment. The resync phases are values of their own, so
  /// the first vector ladder's legs cannot act after an AUTS retry.
  enum class Phase {
    kResolve,          // identify the subscriber and its home
    kVector,           // fetch (or generate) the first vector
    kChallenge,        // challenge sent; awaiting the UE's auth_response
    kResyncVector,     // AUTS received; fetching a fresh vector
    kResyncChallenge,  // retry challenge sent; awaiting the UE again
    kProof,            // RES* matched; redeeming the proof for K_seaf or shares
    kCombine,          // `threshold` shares in hand; combining them
    kDone,
  };
  struct Attach;  // in-flight attach state

  void handle_attach_request(aka::AttachRequest request,
                             sim::TypedResponder<aka::AttachReply> responder);
  void handle_auth_response(aka::AuthResponse response,
                            sim::TypedResponder<aka::AuthResponseReply> responder);
  void handle_resolve_guti(GutiResolveRequest lookup,
                           sim::TypedResponder<GutiResolveReply> responder);
  void handle_handover_request(aka::HandoverRequest request,
                               sim::TypedResponder<aka::HandoverReply> responder);
  void handle_handover_context(HandoverContextRequest request,
                               sim::TypedResponder<HandoverContextReply> responder);
  void resolve_foreign_guti(const std::shared_ptr<Attach>& attach,
                            const NetworkId& prior_serving, std::uint64_t value);
  /// Sends the UE an IdentityRequest and ends the attach.
  void request_identity(const std::shared_ptr<Attach>& attach);

  void resolve_home(const std::shared_ptr<Attach>& attach);
  /// Authenticates a resolved attach: LocalAuth when the home is this
  /// network, else lookup_home().
  void route(const std::shared_ptr<Attach>& attach);
  /// Looks up attach->home's directory entry, then tries the home; an
  /// unknown home fails the attach.
  void lookup_home(const std::shared_ptr<Attach>& attach);
  void start_local_auth(const std::shared_ptr<Attach>& attach);
  void try_home_auth(const std::shared_ptr<Attach>& attach);
  void start_backup_auth(const std::shared_ptr<Attach>& attach);
  void request_backup_vector(const std::shared_ptr<Attach>& attach);
  void send_challenge(const std::shared_ptr<Attach>& attach, const AuthVectorBundle& bundle);
  void complete_with_home_key(const std::shared_ptr<Attach>& attach,
                              const crypto::ResStar& res_star);
  void collect_key_shares(const std::shared_ptr<Attach>& attach,
                          const crypto::ResStar& res_star);

  // The hedged fan-out (see the file comment): promote, drop_leg and
  // arm_hedge are written once and reach each round's leg body through
  // the send_leg overloads.
  struct FanOut;
  struct VectorRound;
  struct ShareRound;
  void send_leg(const std::shared_ptr<Attach>& attach, const std::shared_ptr<VectorRound>& round,
                std::size_t backup);
  void send_leg(const std::shared_ptr<Attach>& attach, const std::shared_ptr<ShareRound>& round,
                std::size_t backup);
  template <typename Round>
  void promote(const std::shared_ptr<Attach>& attach, const std::shared_ptr<Round>& round);
  template <typename Round>
  void drop_leg(const std::shared_ptr<Attach>& attach, const std::shared_ptr<Round>& round,
                bool rejected = false);
  template <typename Round>
  void arm_hedge(const std::shared_ptr<Attach>& attach, const std::shared_ptr<Round>& round);
  /// The one exit, and the only way into Phase::kDone: an empty `failure`
  /// is a success with `k_seaf`. It reads the path from the attach.
  void finish(const std::shared_ptr<Attach>& attach, const crypto::Key256& k_seaf,
              const std::string& failure = {});
  void fail(const std::shared_ptr<Attach>& attach, const std::string& reason) {
    finish(attach, {}, reason);
  }

  /// Outcome of a (possibly cache-answered) signature check plus the
  /// simulated CPU cost the caller should charge for it.
  struct SigCheck {
    bool ok;
    Time cost;
  };
  /// Runs `payload`'s signature through the verification cache, updating
  /// the hit/miss metrics. Cost is signature_cache_hit on a hit and
  /// signature_verify on a miss.
  SigCheck check_signature(ByteView payload, const crypto::Ed25519Signature& signature,
                           const crypto::Ed25519PublicKey& signer);
  /// Checks a bundle's home signature over its round root (core/messages.h;
  /// a vector and a share from one round share a cache entry), charges the
  /// check on this node's CPU, then calls `next(ok)`.
  template <typename Bundle>
  void check_bundle(const Attach& attach, const Bundle& bundle,
                    std::function<void(bool ok)> next);

  bool home_reachable(const NetworkId& home) const;
  /// A transport failure (or an open circuit) toward the home marks it down.
  void note_home_failure(const Attach& attach, const sim::RpcError& error);
  /// Fires an asynchronous liveness probe ("home.ping") so an expired
  /// "home is down" verdict is refreshed WITHOUT an in-line attach paying
  /// the discovery timeout.
  void probe_home(const NetworkId& home, sim::NodeIndex address);

  /// Observer translating policy-layer events into ServingMetrics counters.
  sim::ResilienceObserver resilience_observer();
  /// Whether the circuit breaker would let us call `backup` right now.
  bool breaker_available(const directory::NetworkEntry& backup, Time now) const;
  /// How many of `backups` the circuit breakers would let us call right now.
  std::size_t reachable_backups(const std::vector<directory::NetworkEntry>& backups) const;

  sim::Rpc& rpc_;
  sim::NodeIndex node_;
  NetworkId id_;
  crypto::Ed25519KeyPair signing_key_;
  directory::DirectoryClient& directory_;
  FederationConfig config_;
  HomeNetwork* local_home_;

  std::uint64_t next_attach_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Attach>> attaches_;

  // GUTI allocations made by THIS network: value -> (supi, home, session
  // key). The session key enables §7.4 handover without re-authentication.
  struct GutiRecord {
    Supi supi;
    NetworkId home;
    crypto::Key256 k_session{};
    std::uint32_t handover_counter = 0;
  };
  std::uint64_t next_guti_ = 0x4000000000000001ULL;
  std::map<std::uint64_t, GutiRecord> guti_table_;

  // Home-network health cache: home id -> (reachable, observed_at).
  struct HealthEntry {
    bool reachable = true;
    Time observed_at = 0;
    bool probe_in_flight = false;
  };
  std::map<NetworkId, HealthEntry> home_health_;
  Time health_ttl_ = sec(30);

  // Memoizes successful bundle-signature verifications (hedged backup
  // replies and resync re-fetches re-verify byte-identical artifacts).
  // Sized by FederationConfig::verify_cache_entries in the constructor.
  crypto::VerifyCache verify_cache_;

  ServingMetrics metrics_;
  PeerRtt peer_rtt_;
  // (SUPI, backup) pairs whose vector slice is known to be empty: that
  // backup's last share reply for the user reported 0 vectors left, or it
  // rejected a vector fetch. A later nonzero report clears the pair. It
  // only ranks vector-fetch candidates. At most one pair per user and
  // backup ever seen, so it grows no faster than guti_table_.
  std::set<std::pair<Supi, sim::NodeIndex>> empty_slices_;

  // Observability (null = off): end-to-end attach latency histogram and the
  // auditable event journal. The tracer itself rides on the Rpc layer.
  obs::Histogram* attach_hist_ = nullptr;
  obs::EventJournal* journal_ = nullptr;
};

}  // namespace dauth::core
