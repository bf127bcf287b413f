#include "core/serving_network.h"

#include <algorithm>
#include <functional>

#include "aka/nas.h"
#include "aka/suci.h"
#include "crypto/hmac.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"

namespace dauth::core {

void PeerRtt::observe(sim::NodeIndex peer, Time sample, Time now) {
  const auto [it, first] = srtt_.try_emplace(peer, Estimate{sample, now});
  Estimate& e = it->second;
  if (!first) e = {now - e.sampled_at <= kMaxAge ? e.srtt + (sample - e.srtt) / 4 : sample, now};
}

std::optional<Time> PeerRtt::estimate(sim::NodeIndex peer) const {
  const auto it = srtt_.find(peer);
  if (it == srtt_.end()) return std::nullopt;
  return it->second.srtt;
}

bool PeerRtt::fresh(sim::NodeIndex peer, Time now) const {
  const auto it = srtt_.find(peer);
  return it != srtt_.end() && now - it->second.sampled_at <= kMaxAge;
}

bool PeerRtt::before(sim::NodeIndex a, sim::NodeIndex b) const {
  const auto rtt_a = estimate(a);
  const auto rtt_b = estimate(b);
  if (!rtt_a) return false;
  return !rtt_b || *rtt_a < *rtt_b;
}

const char* to_string(AuthPath path) noexcept {
  switch (path) {
    case AuthPath::kLocal: return "local";
    case AuthPath::kHomeOnline: return "home-online";
    case AuthPath::kBackup: return "backup";
  }
  return "unknown";
}

/// In-flight attach state. Shared across the async steps of Algorithm 1.
struct ServingNetwork::Attach {
  std::uint64_t id = 0;
  Phase phase = Phase::kResolve;
  Supi supi;           // known immediately (SUPI attach) or after vector fetch
  Bytes suci;          // encoded SUCI (empty for SUPI attach)
  Guti guti;           // GUTI attach: issued by the prior serving network
  NetworkId home;      // resolved home network
  std::optional<directory::NetworkEntry> home_entry;
  AuthPath path = AuthPath::kHomeOnline;  // until LocalAuth or the backups take over

  AuthVectorBundle bundle;          // the challenge in flight
  crypto::Key256 local_k_seaf{};    // LocalAuth short-circuit

  // The UE request pending now: the attach_request until the challenge goes
  // out, then the auth_response being served (at most one is set).
  std::optional<sim::TypedResponder<aka::AttachReply>> attach_responder;
  std::optional<sim::TypedResponder<aka::AuthResponseReply>> response_responder;

  std::vector<directory::NetworkEntry> backups;  // resolved backup entries
  sim::NodeIndex vector_peer = 0;  // backup path: the backup that served `bundle`

  // Observability: the per-attach span every downstream call parents under
  // and the share round's proof span (both invalid while tracing is off),
  // and the virtual start time for the attach-latency histogram.
  obs::TraceContext span{};
  obs::TraceContext proof_span{};
  Time started = 0;

  /// Only a challenged attach awaits the UE's auth_response.
  bool awaits_response() const {
    return phase == Phase::kChallenge || phase == Phase::kResyncChallenge;
  }
};

ServingNetwork::ServingNetwork(sim::Rpc& rpc, sim::NodeIndex node, NetworkId id,
                               crypto::Ed25519KeyPair signing_key,
                               directory::DirectoryClient& directory, FederationConfig config,
                               HomeNetwork* local_home)
    : rpc_(rpc),
      node_(node),
      id_(std::move(id)),
      signing_key_(signing_key),
      directory_(directory),
      config_(std::move(config)),
      local_home_(local_home),
      verify_cache_(config_.verify_cache_entries) {}

sim::ResilienceObserver ServingNetwork::resilience_observer() {
  return [this](sim::ResilienceEvent event) {
    switch (event) {
      case sim::ResilienceEvent::kRetry: ++metrics_.retries; break;
      case sim::ResilienceEvent::kBreakerOpen: ++metrics_.breaker_opens; break;
      case sim::ResilienceEvent::kBreakerSkip: ++metrics_.breaker_skips; break;
      case sim::ResilienceEvent::kHalfOpenProbe: break;
    }
  };
}

bool ServingNetwork::breaker_available(const directory::NetworkEntry& backup, Time now) const {
  return rpc_.breakers().available(node_, static_cast<sim::NodeIndex>(backup.address), now);
}

std::size_t ServingNetwork::reachable_backups(
    const std::vector<directory::NetworkEntry>& backups) const {
  const Time now = rpc_.network().simulator().now();
  return static_cast<std::size_t>(std::count_if(
      backups.begin(), backups.end(),
      [&](const directory::NetworkEntry& backup) { return breaker_available(backup, now); }));
}

void ServingNetwork::set_observability(obs::MetricsRegistry* registry,
                                       obs::EventJournal* journal) {
  journal_ = journal;
  if (registry != nullptr) {
    register_metrics(*registry, "serving." + id_.str(), metrics_);
    attach_hist_ = &registry->histogram("serving." + id_.str() + ".attach_latency_us");
  } else {
    attach_hist_ = nullptr;
  }
}

ServingNetwork::SigCheck ServingNetwork::check_signature(
    ByteView payload, const crypto::Ed25519Signature& signature,
    const crypto::Ed25519PublicKey& signer) {
  const auto result = verify_cache_.verify(payload, signature, signer);
  if (result.cache_hit) {
    ++metrics_.signature_cache_hits;
    return {result.ok, config_.costs.signature_cache_hit};
  }
  ++metrics_.signature_cache_misses;
  return {result.ok, config_.costs.signature_verify};
}

template <typename Bundle>
void ServingNetwork::check_bundle(const Attach& attach, const Bundle& bundle,
                                  std::function<void(bool ok)> next) {
  const auto payload = bundle.batch_payload();
  const SigCheck sig =
      payload ? check_signature(*payload, bundle.home_signature,
                                attach.home_entry->signing_key)
              : SigCheck{false, config_.costs.signature_verify};  // path cannot fit its batch
  rpc_.network().node(node_).execute(sig.cost,
                                     [ok = sig.ok, next = std::move(next)] { next(ok); });
}

void ServingNetwork::bind_services() {
  sim::serve(rpc_, node_, aka::kAttachRequest,
             std::bind_front(&ServingNetwork::handle_attach_request, this));
  sim::serve(rpc_, node_, aka::kAuthResponse,
             std::bind_front(&ServingNetwork::handle_auth_response, this));
  sim::serve(rpc_, node_, kServingResolveGuti,
             std::bind_front(&ServingNetwork::handle_resolve_guti, this));
  sim::serve(rpc_, node_, aka::kHandoverRequest,
             std::bind_front(&ServingNetwork::handle_handover_request, this));
  sim::serve(rpc_, node_, kServingHandoverContext,
             std::bind_front(&ServingNetwork::handle_handover_context, this));
  // Signalling-only exchanges bracketing the auth. They carry no protocol
  // state here but contribute real round trips — the source of the paper's
  // edge-beats-cloud proximity effect (Fig. 4).
  sim::serve(rpc_, node_, aka::kRrcSetup,
             [](sim::Ack, sim::TypedResponder<sim::Ack> r) { r.reply({}); });
  sim::serve(rpc_, node_, aka::kRegistrationComplete,
             [this](sim::Ack, sim::TypedResponder<sim::Ack> r) {
               rpc_.network().node(node_).execute(msf(1.5), [r] { r.reply({}); });
             });
}

void ServingNetwork::set_home_health(const NetworkId& home, bool reachable) {
  home_health_[home] = {reachable, rpc_.network().simulator().now()};
}

bool ServingNetwork::home_reachable(const NetworkId& home) const {
  const auto it = home_health_.find(home);
  if (it == home_health_.end()) return true;  // assume up until proven down
  return it->second.reachable;
}

void ServingNetwork::note_home_failure(const Attach& attach, const sim::RpcError& error) {
  if (error.retryable() || error.code == sim::RpcErrorCode::kCircuitOpen) {
    set_home_health(attach.home, false);
  }
}

void ServingNetwork::probe_home(const NetworkId& home, sim::NodeIndex address) {
  auto& entry = home_health_[home];
  if (entry.reachable || entry.probe_in_flight) return;
  // Only re-probe once the previous verdict has aged past the TTL.
  if (rpc_.network().simulator().now() - entry.observed_at <= health_ttl_) return;
  entry.probe_in_flight = true;
  // The health probe bypasses the breaker on purpose: it IS the recovery
  // detector for the home-health cache, so it must reach the wire even while
  // the circuit toward the home is open.
  auto options = sim::RpcOptions::oneshot(kHomeAuthTimeout);
  options.use_breaker = false;
  sim::TypedStub(rpc_, node_, kHomePing)
      .call(address, sim::Ack{}, options, [this, home](sim::CallResult<sim::Ack> result) {
        auto& e = home_health_[home];
        e.probe_in_flight = false;
        e.reachable = result.ok();
        e.observed_at = rpc_.network().simulator().now();
      });
}

void ServingNetwork::handle_attach_request(aka::AttachRequest request,
                                           sim::TypedResponder<aka::AttachReply> responder) {
  if (request.lte) {
    // This implementation's dAuth federation pre-generates 5G-AKA material
    // (see DESIGN.md); 4G devices are served by the baseline MME model.
    responder.fail(sim::AppErrorCode::kUnsupported,
                   "lte not supported by this dauth deployment");
    return;
  }

  auto attach = std::make_shared<Attach>();
  attach->id = next_attach_id_++;
  attach->supi = std::move(request.supi);
  attach->suci = std::move(request.suci);
  attach->home = std::move(request.home);
  attach->guti = std::move(request.guti);
  attach->attach_responder = std::move(responder);
  attaches_[attach->id] = attach;
  ++metrics_.attaches_started;
  attach->started = rpc_.network().simulator().now();
  if (obs::Tracer* tracer = rpc_.tracer(); tracer != nullptr) {
    // Starts under the ambient "handle:serving.attach_request" span, so the
    // whole attach (and everything parented to attach->span below) joins the
    // UE's trace. Later steps MUST pass attach->span explicitly: they run
    // from other handlers whose ambient belongs to a different trace.
    attach->span = tracer->start_span("attach");
    tracer->set_attr(attach->span, "attach_id", attach->id);
  }
  if (journal_ != nullptr) {
    journal_->append(obs::EventKind::kAttachStarted, id_.str(), attach->supi.str(),
                     {}, attach->span.trace_id);
  }

  // AMF-side NAS processing, then identify the subscriber's home.
  rpc_.network().node(node_).execute(config_.costs.nas_processing,
                                     [this, attach] { resolve_home(attach); });
}

void ServingNetwork::resolve_home(const std::shared_ptr<Attach>& attach) {
  // GUTI attach (§4.1): the temporary id points at the serving network that
  // issued it.
  if (!attach->guti.issuer.empty()) {
    if (attach->guti.issuer == id_) {
      // Our own GUTI: map it back locally — no directory, no identity leak.
      const auto it = guti_table_.find(attach->guti.value);
      if (it == guti_table_.end()) {
        request_identity(attach);
        return;
      }
      attach->supi = it->second.supi;
      attach->home = it->second.home;
      route(attach);
      return;
    }
    // Foreign GUTI: ask the prior serving network for the identity; if it
    // cannot be reached, fall back to asking the UE (IdentityRequest).
    resolve_foreign_guti(attach, attach->guti.issuer, attach->guti.value);
    return;
  }

  // SUCI attach: the routing hint names the home network directly.
  if (!attach->suci.empty()) {
    route(attach);
    return;
  }

  // SUPI attach of one of our own subscribers: LocalAuth, no lookups.
  if (local_home_ != nullptr && local_home_->has_subscriber(attach->supi)) {
    attach->home = id_;
    start_local_auth(attach);
    return;
  }

  // SUPI attach of a roamer: the public directory maps user -> home (§4.1).
  directory_.get_home(
      attach->supi,
      [this, attach](std::optional<directory::UserEntry> user) {
        if (!user) {
          fail(attach, "user not in directory");
          return;
        }
        attach->home = user->home_network;
        lookup_home(attach);
      },
      attach->span);
}

void ServingNetwork::route(const std::shared_ptr<Attach>& attach) {
  if (attach->home == id_ && local_home_ != nullptr) {
    start_local_auth(attach);
    return;
  }
  lookup_home(attach);
}

void ServingNetwork::lookup_home(const std::shared_ptr<Attach>& attach) {
  directory_.get_network(
      attach->home,
      [this, attach](std::optional<directory::NetworkEntry> entry) {
        if (!entry) {
          fail(attach, "unknown home network");
          return;
        }
        attach->home_entry = entry;
        try_home_auth(attach);
      },
      attach->span);
}

void ServingNetwork::start_local_auth(const std::shared_ptr<Attach>& attach) {
  attach->phase = Phase::kVector;
  attach->path = AuthPath::kLocal;

  // De-conceal a local SUCI with our own key.
  if (attach->supi.empty() && !attach->suci.empty()) {
    std::optional<Supi> recovered;
    try {
      recovered = aka::deconceal_suci(wire::decode<aka::Suci>(attach->suci),
                                      local_home_->suci_keys().secret);
    } catch (const wire::WireError&) {
      fail(attach, "malformed suci");
      return;
    }
    if (!recovered) {
      fail(attach, "suci deconcealment failed");
      return;
    }
    attach->supi = *recovered;
  }

  if (!local_home_->has_subscriber(attach->supi)) {
    fail(attach, "unknown local subscriber");
    return;
  }

  // Vector generation happens on this same node (edge-core private network).
  rpc_.network().node(node_).execute(config_.costs.vector_generation, [this, attach] {
    attach->bundle = local_home_->generate_local_vector(attach->supi, attach->local_k_seaf);
    send_challenge(attach, attach->bundle);
  });
}

void ServingNetwork::try_home_auth(const std::shared_ptr<Attach>& attach) {
  attach->phase = Phase::kVector;
  if (!home_reachable(attach->home)) {
    // Refresh the verdict in the background; THIS attach goes straight to
    // the backup scheme without paying a discovery timeout.
    probe_home(attach->home, static_cast<sim::NodeIndex>(attach->home_entry->address));
    start_backup_auth(attach);
    return;
  }
  attach->path = AuthPath::kHomeOnline;

  GetVectorRequest request;
  request.serving_network = id_;
  request.supi = attach->supi;
  request.suci = attach->suci;

  auto options =
      config_.resilience.call_options(kHomeAuthTimeout, kHomeAuthTimeout);
  options.trace_parent = attach->span;
  sim::TypedStub(rpc_, node_, kHomeGetVector).call(
      static_cast<sim::NodeIndex>(attach->home_entry->address), request, options,
      [this, attach](sim::CallResult<AuthVectorBundle> result) {
        if (attach->phase != Phase::kVector) return;
        if (!result.ok()) {
          if (result.error().code == sim::RpcErrorCode::kBadReply) {
            set_home_health(attach->home, true);  // it answered, just badly
            fail(attach, "malformed vector from home");
            return;
          }
          // Transport failures mark the home down; an application rejection
          // (kRejected) means the home is up — it just cannot serve this
          // user. Either way the backup scheme is the remaining option.
          note_home_failure(*attach, result.error());
          ++metrics_.home_fallbacks;
          if (obs::Tracer* tracer = rpc_.tracer(); tracer != nullptr) {
            tracer->set_attr(attach->span, "fell_back", true);
          }
          start_backup_auth(attach);
          return;
        }
        set_home_health(attach->home, true);
        const AuthVectorBundle& bundle = result.value();
        check_bundle(*attach, bundle, [this, attach, bundle](bool ok) {
          if (attach->phase != Phase::kVector) return;
          if (!ok) {
            fail(attach, "bad home signature");
            return;
          }
          send_challenge(attach, bundle);
        });
      },
      resilience_observer());
}

void ServingNetwork::start_backup_auth(const std::shared_ptr<Attach>& attach) {
  attach->path = AuthPath::kBackup;
  directory_.get_backups(
      attach->home,
      [this, attach](std::optional<directory::BackupsEntry> entry) {
        if (!entry || entry->backups.empty()) {
          fail(attach, "no backup networks");
          return;
        }
        // Resolve every backup's address+key (cached after the first attach).
        auto remaining = std::make_shared<std::size_t>(entry->backups.size());
        for (const NetworkId& backup : entry->backups) {
          directory_.get_network(
              backup,
              [this, attach, remaining](std::optional<directory::NetworkEntry> net) {
                if (net) attach->backups.push_back(*net);
                if (--*remaining == 0) {
                  if (attach->backups.empty()) {
                    fail(attach, "backups unresolvable");
                    return;
                  }
                  // Graceful degradation: key reconstruction needs `threshold`
                  // valid shares, so when the breakers say fewer than that many
                  // backups are even reachable the attach cannot succeed — fail
                  // in microseconds instead of burning the full RPC deadline
                  // discovering it.
                  if (config_.resilience.fast_fail &&
                      reachable_backups(attach->backups) < config_.threshold) {
                    ++metrics_.fast_failures;
                    fail(attach, "insufficient reachable backups");
                    return;
                  }
                  request_backup_vector(attach);
                }
              },
              attach->span);
        }
      },
      attach->span);
}

/// One hedged fan-out over the attach's backups (docs/RESILIENCE.md §4): a
/// vector fetch or a share round. `order` ranks the backups that
/// promotions and hedges draw from (indices into Attach::backups);
/// order[next] is the next to get a leg, and at most `width` of them get
/// one. A leg counts in `outstanding` from its launch until its result has
/// been judged, signature check included. The round acts only while the
/// attach is in `phase`. Its legs' callbacks and its hedge timer hold it; it
/// holds no callback, so it is freed with the last of them.
struct ServingNetwork::FanOut {
  Phase phase = Phase::kDone;
  std::vector<std::size_t> order;
  std::size_t next = 0;
  std::size_t width = 0;
  std::size_t outstanding = 0;
  sim::RpcOptions options;  // one breaker-gated attempt per leg
};

/// A vector fetch: the first verified bundle wins and cancels the others.
struct ServingNetwork::VectorRound : FanOut {
  GetVectorRequest request;
  std::vector<sim::CallHandle> legs;
  std::string last_error = "no candidates";
  std::string exhausted() const { return "no backup vector: " + last_error; }
};

/// A share round: valid shares with distinct x until `threshold` are in.
struct ServingNetwork::ShareRound : FanOut {
  UsageProof proof;
  std::vector<KeyShareBundle> bundles;
  std::string exhausted() const { return "insufficient key shares"; }
};

/// Sends the next ranked backup a leg while the width allows; else, once no
/// leg is in flight either, fails the attach with the round's text.
template <typename Round>
void ServingNetwork::promote(const std::shared_ptr<Attach>& attach,
                             const std::shared_ptr<Round>& round) {
  if (attach->phase != round->phase) return;
  if (round->next < round->width) {
    send_leg(attach, round, round->order[round->next++]);
    arm_hedge(attach, round);
  } else if (round->outstanding == 0) {
    fail(attach, round->exhausted());
  }
}

/// A leg concluded without a usable result: the next backup is promoted at
/// once, and a rejection widens the round by one, so it uses up no width.
template <typename Round>
void ServingNetwork::drop_leg(const std::shared_ptr<Attach>& attach,
                              const std::shared_ptr<Round>& round, bool rejected) {
  --round->outstanding;
  if (rejected) round->width = std::min(round->width + 1, round->order.size());
  promote(attach, round);
}

/// The hedge timer: the next ranked backup gets a leg one hedge delay after
/// the newest launch, unless another launch comes first.
template <typename Round>
void ServingNetwork::arm_hedge(const std::shared_ptr<Attach>& attach,
                               const std::shared_ptr<Round>& round) {
  if (round->next >= round->width) return;
  rpc_.network().simulator().after(config_.resilience.hedge_delay,
                                   [this, attach, round, launched = round->next] {
                                     if (round->next == launched) promote(attach, round);
                                   });
}

void ServingNetwork::request_backup_vector(const std::shared_ptr<Attach>& attach) {
  // The fetch runs in kVector or, after an AUTS, in kResyncVector.
  auto round = std::make_shared<VectorRound>();
  round->phase = attach->phase;
  round->request.serving_network = id_;
  round->request.supi = attach->supi;
  round->request.suci = attach->suci;

  // §5.1 optimization 3 ordering, one ranking for every rung (adaptive
  // replica selection, as in C3, Suresh et al., NSDI 2015): liveness tier,
  // then slices known to be empty last, then the lower smoothed share RTT,
  // unsampled backups last. The deterministic shuffle (sim RNG) orders
  // only the ties.
  const std::size_t n = attach->backups.size();
  std::vector<std::size_t>& order = round->order;
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  auto& rng = rpc_.network().simulator().rng();
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  // Rank per backup. Liveness tier: closed circuits first, then half-open
  // ones (probe-only: every share round sends them a probe leg, a vector
  // fetch reaches them only when every closed backup has failed), then open
  // ones, which the ladder's breaker-gated legs skip; with the breakers off
  // (failure_threshold 0) every backup is closed. Inside a tier, a slice
  // known to be empty for the user ranks after every other.
  const Time now = rpc_.network().simulator().now();
  const auto address = [&](std::size_t i) {
    return static_cast<sim::NodeIndex>(attach->backups[i].address);
  };
  std::vector<int> rank(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int tier = 0;
    switch (rpc_.breakers().state(node_, address(i), now)) {
      case sim::BreakerState::kClosed: tier = 0; break;
      case sim::BreakerState::kHalfOpen: tier = 1; break;
      case sim::BreakerState::kOpen: tier = 2; break;
    }
    rank[i] = 2 * tier + (empty_slices_.contains({attach->supi, address(i)}) ? 1 : 0);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rank[a] != rank[b]) return rank[a] < rank[b];
    return peer_rtt_.before(address(a), address(b));
  });
  // The AUTS retry skips the backup whose vector the USIM found stale: the
  // rest of its slice sits behind the same watermark.
  if (attach->phase == Phase::kResyncVector) {
    std::erase_if(order, [&](std::size_t i) { return address(i) == attach->vector_peer; });
  }
  // Under ResilienceConfig::none() the ladder is one leg wide: a leg that
  // times out, fails in transport or serves a bad signature fails the
  // attach (a rejection still promotes, drop_leg).
  round->width =
      std::min(std::max<std::size_t>(1, config_.resilience.hedge_width), order.size());
  round->options = config_.resilience.call_options(kBackupAuthTimeout);
  round->options.trace_parent = attach->span;
  promote(attach, round);  // the primary
}

/// A vector leg. The ladder itself is the retry: a breaker skip fails in
/// the same tick and promotes the next backup for free, and a slow or
/// silently dead backup costs one hedge delay instead of a full timeout.
/// The first verified bundle wins and cancels every losing leg. A backup
/// that answers without a vector (an exhausted slice, or any other
/// rejection) ranks last for the user until its next share reply counts
/// vectors again.
void ServingNetwork::send_leg(const std::shared_ptr<Attach>& attach,
                              const std::shared_ptr<VectorRound>& round, std::size_t backup) {
  const auto peer = static_cast<sim::NodeIndex>(attach->backups[backup].address);
  const bool hedge = !round->legs.empty();  // every leg after the primary
  if (hedge) ++metrics_.hedges_launched;
  ++round->outstanding;
  round->legs.push_back(sim::TypedStub(rpc_, node_, kBackupGetVector).call(
      peer, round->request, round->options,
      [this, attach, round, peer, hedge](sim::CallResult<AuthVectorBundle> result) {
        if (!result.ok()) {
          const bool rejected = result.app_error().has_value();
          if (rejected && !attach->supi.empty()) empty_slices_.insert({attach->supi, peer});
          round->last_error = result.error().message;
          drop_leg(attach, round, rejected);
          return;
        }
        if (attach->phase != round->phase) {
          drop_leg(attach, round);  // another leg has won
          return;
        }
        const AuthVectorBundle& bundle = result.value();
        check_bundle(*attach, bundle, [this, attach, round, peer, hedge, bundle](bool ok) {
          if (!ok) round->last_error = "bad home signature";
          if (!ok || attach->phase != round->phase) {
            drop_leg(attach, round);
            return;
          }
          if (hedge) ++metrics_.hedge_wins;
          for (const sim::CallHandle& loser : round->legs) loser.cancel();
          attach->vector_peer = peer;
          send_challenge(attach, bundle);  // leaves the round's phase
        });
      },
      resilience_observer()));
}

void ServingNetwork::resolve_foreign_guti(const std::shared_ptr<Attach>& attach,
                                          const NetworkId& prior_serving,
                                          std::uint64_t value) {
  directory_.get_network(
      prior_serving,
      [this, attach, value](std::optional<directory::NetworkEntry> prior) {
    if (!prior) {
      request_identity(attach);
      return;
    }
    GutiResolveRequest lookup;
    lookup.guti = value;
    auto options =
        config_.resilience.call_options(kHomeAuthTimeout, kHomeAuthTimeout);
    options.trace_parent = attach->span;
    sim::TypedStub(rpc_, node_, kServingResolveGuti).call(
        static_cast<sim::NodeIndex>(prior->address), lookup, options,
        [this, attach](sim::CallResult<GutiResolveReply> result) {
          if (attach->phase != Phase::kResolve) return;
          if (!result.ok()) {
            // Prior serving network unreachable (or the GUTI is unknown
            // there): §4.1 — "the serving network can request that the UE
            // provide a long-lived identifier".
            request_identity(attach);
            return;
          }
          attach->supi = result->supi;
          attach->home = result->home;
          route(attach);
        },
        resilience_observer());
      },
      attach->span);
}

void ServingNetwork::request_identity(const std::shared_ptr<Attach>& attach) {
  attach->attach_responder->reply(aka::AttachReply{attach->id, aka::IdentityRequest{}});
  attach->attach_responder.reset();
  fail(attach, "identity requested");
}

void ServingNetwork::handle_resolve_guti(GutiResolveRequest lookup,
                                         sim::TypedResponder<GutiResolveReply> responder) {
  const auto it = guti_table_.find(lookup.guti);
  if (it == guti_table_.end()) {
    responder.fail(sim::AppErrorCode::kNotFound, "unknown guti");
    return;
  }
  GutiResolveReply reply;
  reply.supi = it->second.supi;
  reply.home = it->second.home;
  responder.reply(reply);
}

void ServingNetwork::handle_handover_request(aka::HandoverRequest request,
                                             sim::TypedResponder<aka::HandoverReply> responder) {
  // From the UE (via the target gNB): its GUTI at the source serving
  // network. This network is the TARGET; fetch the context from the source.

  directory_.get_network(request.issuer, [this, request, responder](
                                             std::optional<directory::NetworkEntry> source) {
    if (!source) {
      responder.fail(sim::AppErrorCode::kNotFound, "unknown source network");
      return;
    }
    // Signed context request proves the target's identity to the source.
    HandoverContextRequest context_request{request.value, id_};
    context_request.signature =
        crypto::ed25519_sign(context_request.signed_payload(), signing_key_);

    sim::TypedStub(rpc_, node_, kServingHandoverContext).call(
        static_cast<sim::NodeIndex>(source->address), context_request,
        config_.resilience.call_options(kHomeAuthTimeout, kHomeAuthTimeout),
        [this, responder](sim::CallResult<HandoverContextReply> result) {
          if (!result.ok()) {
            responder.fail(sim::AppErrorCode::kUpstream,
                           "handover context fetch failed: " + result.error().message);
            return;
          }
          // Admit the session under a fresh GUTI anchored to K_ho.
          const std::uint64_t new_guti = next_guti_++;
          guti_table_[new_guti] =
              GutiRecord{result->supi, result->home, result->k_ho, 0};
          responder.reply(
              aka::HandoverReply{Guti{id_, new_guti}, result->counter,
                                 crypto::hmac_sha256(result->k_ho, as_bytes("dauth-ho"))});
        },
        resilience_observer());
  });
}

void ServingNetwork::handle_handover_context(
    HandoverContextRequest request, sim::TypedResponder<HandoverContextReply> responder) {
  // From the target network: a signed HandoverContextRequest. This network
  // is the SOURCE; it derives and releases the horizontal key.

  // The target's signature is checked before the session is looked up, so
  // a caller it does not authenticate learns nothing of which GUTIs are live.
  directory_.get_network(request.target, [this, request, responder](
                                             std::optional<directory::NetworkEntry> target) {
    if (!target ||
        !check_signature(request.signed_payload(), request.signature, target->signing_key).ok) {
      responder.fail(sim::AppErrorCode::kUnauthorized, "invalid target signature");
      return;
    }
    auto live_session = guti_table_.find(request.guti);
    if (live_session == guti_table_.end()) {
      responder.fail(sim::AppErrorCode::kNotFound, "unknown session");
      return;
    }
    GutiRecord& session = live_session->second;
    HandoverContextReply reply;
    reply.supi = session.supi;
    reply.home = session.home;
    reply.counter = ++session.handover_counter;
    reply.k_ho =
        crypto::derive_handover_key(session.k_session, request.target.str(), reply.counter);
    // DAUTH_DISCLOSE(K_ho handover key released to the signature-verified target network, §4.4)
    responder.reply(reply);
    // The session has moved; retire the local anchor (one handover per GUTI).
    guti_table_.erase(request.guti);
  });
}

void ServingNetwork::send_challenge(const std::shared_ptr<Attach>& attach,
                                    const AuthVectorBundle& bundle) {
  // The first challenge answers the attach_request; the one AUTS retry
  // answers the auth_response that carried the AUTS.
  attach->bundle = bundle;
  attach->supi = bundle.supi;  // resolved by the vector's issuer on the SUCI path
  const aka::Challenge challenge{bundle.rand, bundle.autn};
  if (attach->phase == Phase::kVector) {
    attach->phase = Phase::kChallenge;
    attach->attach_responder->reply(aka::AttachReply{attach->id, challenge});
    attach->attach_responder.reset();
  } else {
    attach->phase = Phase::kResyncChallenge;
    attach->response_responder->reply(aka::AuthResponseReply{challenge});
    attach->response_responder.reset();
  }
}

void ServingNetwork::handle_auth_response(aka::AuthResponse response,
                                          sim::TypedResponder<aka::AuthResponseReply> responder) {
  const auto& [attach_id, res_star, auts] = response;

  const auto it = attaches_.find(attach_id);
  if (it == attaches_.end()) {
    responder.fail(sim::AppErrorCode::kNotFound, "unknown attach id");
    return;
  }
  const std::shared_ptr<Attach> attach = it->second;
  // A reply before the challenge went out, or while the proof is redeemed,
  // cannot take over the attach or the UE request it is serving.
  if (!attach->awaits_response()) {
    responder.fail(sim::AppErrorCode::kUnsupported, "auth response out of phase");
    return;
  }
  attach->response_responder = std::move(responder);

  if (auts) {
    // SQN resynchronisation (TS 33.102 §6.3.5): the UE rejected the
    // challenge as stale and revealed SQNms inside the AUTS. Retry once:
    // send_challenge answers this auth_response with the fresh challenge,
    // and a failure reaches the UE as an outcome on it.
    if (attach->phase == Phase::kResyncChallenge) {
      fail(attach, "resync retry also failed");
      return;
    }
    attach->phase = Phase::kResyncVector;

    if (attach->path == AuthPath::kLocal) {
      crypto::Key256 k_seaf{};
      const auto fresh = local_home_->resync_and_generate_local(
          attach->supi, attach->bundle.rand, *auts, k_seaf);
      if (!fresh) {
        fail(attach, "invalid auts");
        return;
      }
      attach->local_k_seaf = k_seaf;
      send_challenge(attach, *fresh);
      return;
    }
    if (attach->path == AuthPath::kHomeOnline) {
      ResyncRequest resync;
      resync.supi = attach->supi;
      resync.rand = attach->bundle.rand;
      resync.auts = *auts;
      auto resync_options =
          config_.resilience.call_options(kHomeAuthTimeout, kHomeAuthTimeout);
      resync_options.trace_parent = attach->span;
      sim::TypedStub(rpc_, node_, kHomeResync).call(
          static_cast<sim::NodeIndex>(attach->home_entry->address), resync,
          resync_options,
          [this, attach](sim::CallResult<AuthVectorBundle> result) {
            if (attach->phase != Phase::kResyncVector) return;
            if (!result.ok()) {
              fail(attach, result.error().code == sim::RpcErrorCode::kBadReply
                               ? "bad resync vector"
                               : "resync failed: " + result.error().message);
              return;
            }
            const AuthVectorBundle& fresh = result.value();
            check_bundle(*attach, fresh, [this, attach, fresh](bool ok) {
              if (attach->phase != Phase::kResyncVector) return;
              if (!ok) {
                fail(attach, "bad resync signature");
                return;
              }
              send_challenge(attach, fresh);
            });
          },
          resilience_observer());
      return;
    }
    // Backup path: the stale vector came from one backup's (possibly
    // superseded) slice; vectors in other slices are unaffected — fetch
    // one from another backup and retry. Backups cannot resynchronise the
    // home's allocator, so the AUTS is dropped.
    request_backup_vector(attach);
    return;
  }

  // Serving-side check of the UE response: H(RES*) must match the bundle.
  if (!ct_equal(hxres_index(res_star), attach->bundle.hxres_star)) {
    ++metrics_.ue_rejected;
    fail(attach, "ue response mismatch");
    return;
  }

  attach->phase = Phase::kProof;
  switch (attach->path) {
    case AuthPath::kLocal:
      finish(attach, attach->local_k_seaf);
      break;
    case AuthPath::kHomeOnline:
      complete_with_home_key(attach, res_star);
      break;
    case AuthPath::kBackup:
      collect_key_shares(attach, res_star);
      break;
  }
}

namespace {

UsageProof make_proof(const NetworkId& serving, const Supi& supi, const ByteArray<16>& hxres,
                      const crypto::ResStar& res_star, Time now,
                      const crypto::Ed25519KeyPair& key) {
  UsageProof proof;
  proof.serving_network = serving;
  proof.supi = supi;
  proof.hxres_star = hxres;
  proof.res_star = res_star;
  proof.timestamp = now;
  proof.serving_signature = crypto::ed25519_sign(proof.signed_payload(), key);
  return proof;
}

}  // namespace

void ServingNetwork::complete_with_home_key(const std::shared_ptr<Attach>& attach,
                                            const crypto::ResStar& res_star) {
  const UsageProof proof =
      make_proof(id_, attach->supi, attach->bundle.hxres_star, res_star,
                 rpc_.network().simulator().now(), signing_key_);
  auto options =
      config_.resilience.call_options(kKeyShareTimeout, kKeyShareTimeout);
  options.trace_parent = attach->span;
  sim::TypedStub(rpc_, node_, kHomeGetKey).call(
      static_cast<sim::NodeIndex>(attach->home_entry->address), proof, options,
      [this, attach](sim::CallResult<KeyReply> result) {
        if (attach->phase != Phase::kProof) return;
        if (!result.ok()) {
          if (result.error().code == sim::RpcErrorCode::kBadReply) {
            fail(attach, "bad key from home");
            return;
          }
          note_home_failure(*attach, result.error());
          fail(attach, "home key fetch failed: " + result.error().message);
          return;
        }
        finish(attach, result->k_seaf);
      },
      resilience_observer());
}

void ServingNetwork::collect_key_shares(const std::shared_ptr<Attach>& attach,
                                        const crypto::ResStar& res_star) {
  const Time now = rpc_.network().simulator().now();
  auto round = std::make_shared<ShareRound>();
  round->phase = attach->phase;
  round->proof = make_proof(id_, attach->supi, attach->bundle.hxres_star, res_star, now,
                            signing_key_);

  // The proof span marks the point where the UE's RES* preimage has matched
  // HXRES* (checked by handle_auth_response before this runs); every share
  // fetch parents under it so obs::TraceAssert can tie each released share
  // back to a verified usage proof. finish() closes it.
  if (obs::Tracer* tracer = rpc_.tracer(); tracer != nullptr) {
    attach->proof_span = tracer->start_span("serving.proof", attach->span);
    tracer->set_attr(attach->proof_span, "proof_verified", true);
  }

  // Rank the backups. One whose circuit is open gets no leg. A closed one
  // with a fresh RTT sample is ranked, fastest first; every other reachable
  // one (half-open, unsampled or stale) gets a probe leg, the only way it
  // is probed, sampled and its slice hint refreshed. If the reachable set
  // cannot reach the share threshold at all, fail fast instead.
  const std::size_t n = attach->backups.size();
  const auto address = [&](std::size_t i) {
    return static_cast<sim::NodeIndex>(attach->backups[i].address);
  };
  std::vector<std::size_t>& ranked = round->order;
  std::vector<char> leg(n, 0);
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rpc_.breakers().state(node_, address(i), now)) {
      case sim::BreakerState::kOpen:
        ++metrics_.breaker_skips;
        if (obs::Tracer* tracer = rpc_.tracer(); tracer != nullptr) {
          const auto skip =
              tracer->instant_span("breaker-skip:backup.get_share", attach->proof_span);
          tracer->set_attr(skip, "peer", rpc_.network().node(address(i)).name());
        }
        continue;
      case sim::BreakerState::kHalfOpen: leg[i] = 1; break;
      case sim::BreakerState::kClosed:
        if (peer_rtt_.fresh(address(i), now)) {
          ranked.push_back(i);
        } else {
          leg[i] = 1;
        }
        break;
    }
    ++reachable;
  }
  if (config_.resilience.fast_fail && reachable < config_.threshold) {
    ++metrics_.fast_failures;
    fail(attach, "insufficient reachable backups");
    return;
  }
  std::stable_sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    return peer_rtt_.before(address(a), address(b));
  });
  // Every ranked backup may get a leg: `hedge_width` caps only the vector
  // ladder. The `threshold` fastest plus one spare go first, so one slow
  // or failed leg costs nothing. The legs go out in the backups' listed
  // order: with `threshold` + 1 at or above the reachable backups the
  // round is the §6.4 broadcast, leg for leg.
  round->width = ranked.size();
  while (round->next < std::min(config_.threshold + 1, ranked.size())) {
    leg[ranked[round->next++]] = 1;
  }
  round->options = config_.resilience.call_options(kKeyShareTimeout);
  round->options.trace_parent = attach->proof_span;
  for (std::size_t i = 0; i < n; ++i) {
    if (leg[i]) send_leg(attach, round, i);
  }
  if (round->outstanding == 0) {
    fail(attach, round->exhausted());  // every circuit open, fast fail off
    return;
  }
  arm_hedge(attach, round);
}

/// A share leg. Single attempt: the spare and the promotions are the
/// redundancy, and a share fetch is not blindly retryable (the proof
/// consumes server-side state). Valid shares with distinct x are collected
/// until `threshold` are in, then combined; the remaining legs run out.
void ServingNetwork::send_leg(const std::shared_ptr<Attach>& attach,
                              const std::shared_ptr<ShareRound>& round, std::size_t backup) {
  const auto peer = static_cast<sim::NodeIndex>(attach->backups[backup].address);
  const Time sent = rpc_.network().simulator().now();
  ++round->outstanding;
  sim::TypedStub(rpc_, node_, kBackupGetShare).call(
      peer, round->proof, round->options,
      [this, attach, round, peer, sent](sim::CallResult<ShareReply> result) {
        // Every concluded leg refreshes the peer's RTT estimate. A reply or
        // a rejection samples its elapsed time; a transport failure or
        // timeout samples the whole deadline, so a silently dead backup
        // stops leading vector fetches and share rounds after one attach.
        const Time now = rpc_.network().simulator().now();
        const bool answered =
            result.ok() || result.error().code == sim::RpcErrorCode::kRejected;
        peer_rtt_.observe(peer, answered ? now - sent : kKeyShareTimeout, now);
        // Every reply also refreshes the peer's slice hint for the user.
        if (result.ok()) {
          if (result->vectors_left == 0) {
            empty_slices_.insert({attach->supi, peer});
          } else {
            empty_slices_.erase({attach->supi, peer});
          }
        }
        if (!result.ok() || attach->phase != round->phase) {
          drop_leg(attach, round, !result.ok() && result.app_error().has_value());
          return;
        }
        const KeyShareBundle& bundle = result->share;
        check_bundle(*attach, bundle, [this, attach, round, bundle](bool ok) {
          const auto same_x = [&](const KeyShareBundle& b) {
            return b.share.x == bundle.share.x;
          };
          if (!ok || attach->phase != round->phase ||
              std::any_of(round->bundles.begin(), round->bundles.end(), same_x)) {
            drop_leg(attach, round);
            return;
          }
          --round->outstanding;
          round->bundles.push_back(bundle);
          if (round->bundles.size() < config_.threshold) {
            // The last leg in may be an accepted one; with none in flight,
            // promote sends the next ranked backup a leg or ends the round.
            if (round->outstanding == 0) promote(attach, round);
            return;
          }
          attach->phase = Phase::kCombine;
          const Time combine_cost = config_.costs.share_combine_base +
                                    config_.costs.share_combine_per_share *
                                        static_cast<Time>(round->bundles.size());
          rpc_.network().node(node_).execute(combine_cost, [this, attach, round] {
            crypto::Key256 k_seaf{};
            try {
              std::vector<crypto::ShamirShare> shares;
              shares.reserve(round->bundles.size());
              for (const auto& b : round->bundles) shares.push_back(b.share);
              const SecretBytes secret = crypto::shamir_combine(shares);
              if (secret.size() != 32) throw std::runtime_error("bad secret size");
              k_seaf = take<32>(secret);
            } catch (const std::exception& e) {
              fail(attach, std::string("share combination failed: ") + e.what());
              return;
            }
            finish(attach, k_seaf);
          });
        });
      },
      resilience_observer());
}

void ServingNetwork::finish(const std::shared_ptr<Attach>& attach, const crypto::Key256& k_seaf,
                            const std::string& failure) {
  attach->phase = Phase::kDone;
  const bool success = failure.empty();

  if (success) {
    ++metrics_.attaches_succeeded;
    switch (attach->path) {
      case AuthPath::kLocal: ++metrics_.local_auths; break;
      case AuthPath::kHomeOnline: ++metrics_.home_auths; break;
      case AuthPath::kBackup: ++metrics_.backup_auths; break;
    }
  } else {
    ++metrics_.attaches_failed;
  }

  const Time now = rpc_.network().simulator().now();
  if (obs::Tracer* tracer = rpc_.tracer(); tracer != nullptr) {
    tracer->end_span(attach->proof_span, success);
    tracer->set_attr(attach->span, "path", to_string(attach->path));
    tracer->set_attr(attach->span, "supi", attach->supi.str());
    if (!success) tracer->set_attr(attach->span, "reason", failure);
    tracer->end_span(attach->span, success);
  }
  if (attach_hist_ != nullptr) {
    attach_hist_->record_duration(now - attach->started);
  }
  if (journal_ != nullptr) {
    journal_->append(success ? obs::EventKind::kAttachSucceeded : obs::EventKind::kAttachFailed,
                     id_.str(), attach->supi.str(), failure, attach->span.trace_id);
  }

  // Successful registration: allocate a fresh GUTI so the UE's next attach
  // can skip identity resolution (and avoid exposing its SUPI again).
  std::uint64_t assigned_guti = 0;
  if (success) {
    assigned_guti = next_guti_++;
    guti_table_[assigned_guti] = GutiRecord{attach->supi, attach->home, k_seaf, 0};
    if (attach->guti.value != 0 && attach->guti.issuer == id_) {
      guti_table_.erase(attach->guti.value);  // old GUTI is spent
    }
    // Bound the table: evict the oldest allocations (lowest values) once it
    // grows past the cap — a real AMF recycles its GUTI space similarly.
    constexpr std::size_t kGutiTableCap = 65536;
    while (guti_table_.size() > kGutiTableCap) guti_table_.erase(guti_table_.begin());
  }

  // Before the challenge the pending request is the attach_request; from
  // then on it is the auth_response being served.
  if (attach->attach_responder) {
    attach->attach_responder->fail(sim::AppErrorCode::kUpstream, failure);
  } else if (attach->response_responder) {
    // SecurityModeCommand key confirmation: HMAC(K_seaf, "dauth-smc"). The
    // UE recomputes this with its own derived key; a mismatch aborts the
    // attach. A failed attach assigns no GUTI (value 0).
    attach->response_responder->reply(aka::AuthResponseReply{aka::Outcome{
        success, to_string(attach->path), crypto::hmac_sha256(k_seaf, as_bytes("dauth-smc")),
        failure, Guti{id_, assigned_guti}}});
  }
  attaches_.erase(attach->id);
}

}  // namespace dauth::core
