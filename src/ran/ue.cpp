#include "ran/ue.h"

#include "crypto/hmac.h"
#include "crypto/kdf_3gpp.h"
#include "sim/latency.h"

namespace dauth::ran {
namespace {

/// A failed attach or handover record.
template <typename Record>
Record failed(std::string reason) {
  Record record;
  record.failure = std::move(reason);
  return record;
}

/// Every UE call: one attempt, never gated by a circuit breaker.
sim::RpcOptions nas_options(Time timeout) {
  auto options = sim::RpcOptions::oneshot(timeout);
  options.use_breaker = false;
  return options;
}

}  // namespace

Ue::Ue(sim::Rpc& rpc, sim::NodeIndex ran_node, sim::NodeIndex core_node, Supi supi,
       const aka::SubscriberKeys& keys, UeConfig config)
    : rpc_(rpc),
      ran_node_(ran_node),
      core_node_(core_node),
      usim_(std::move(supi), keys),
      config_(std::move(config)),
      suci_rng_("ue-suci:" + usim_.supi().str(), 1) {}

void Ue::configure_suci(NetworkId home, crypto::X25519Point home_suci_key) {
  suci_home_ = std::move(home);
  suci_key_ = home_suci_key;
}

void Ue::attach(std::function<void(const AttachRecord&)> done) {
  if (busy_) throw std::logic_error("Ue::attach: attach already in flight");
  busy_ = true;

  auto& simulator = rpc_.network().simulator();
  const Time started = simulator.now();

  // Radio-side setup: cell sync + RACH + RRC connection establishment.
  auto& rng = simulator.rng();
  Time radio = static_cast<Time>(
      static_cast<double>(config_.radio_setup) *
      sim::sample_lognormal_multiplier(rng, config_.radio_setup_jitter_sigma));
  if (config_.retransmission_prob > 0.0 &&
      rng.next_double() < config_.retransmission_prob) {
    radio += config_.retransmission_delay;
  }
  auto finish = [this, done = std::move(done), started](AttachRecord record) {
    record.started = started;
    record.completed = rpc_.network().simulator().now();
    busy_ = false;
    done(record);
  };
  // RRC connection setup: one signalling round trip before any NAS.
  simulator.after(radio, [this, finish] {
    sim::TypedStub(rpc_, ran_node_, aka::kRrcSetup)
        .call(core_node_, sim::Ack{}, nas_options(config_.attach_timeout),
              [this, finish](sim::CallResult<sim::Ack> result) {
                if (!result.ok()) {
                  finish(failed<AttachRecord>(std::string("rrc setup failed: ") +
                                              to_string(result.error().code)));
                  return;
                }
                send_attach_request(finish, /*allow_guti=*/true);
              });
  });
}

void Ue::send_attach_request(const std::function<void(AttachRecord)>& finish, bool allow_guti) {
  aka::AttachRequest request;
  if (allow_guti && config_.use_guti && guti_) {
    request.guti = *guti_;  // temporary identifier only: nothing permanent crosses the air
  } else if (config_.use_suci && suci_key_) {
    request.suci = wire::encode(aka::conceal_supi(usim_.supi(), *suci_key_, suci_rng_));
    if (suci_home_) request.home = *suci_home_;
  } else {
    request.supi = usim_.supi();
  }
  request.lte = config_.lte;

  sim::TypedStub(rpc_, ran_node_, aka::kAttachRequest)
      .call(core_node_, request, nas_options(config_.attach_timeout),
            [this, finish](sim::CallResult<aka::AttachReply> reply) {
              if (!reply.ok()) {
                finish(failed<AttachRecord>(std::string("attach request failed: ") +
                                            to_string(reply.error().code) + ": " +
                                            reply.error().message));
                return;
              }
              if (std::holds_alternative<aka::IdentityRequest>(reply->step)) {
                // The network could not resolve our GUTI (§4.1); retry
                // immediately with a long-lived identifier.
                guti_.reset();
                send_attach_request(finish, /*allow_guti=*/false);
                return;
              }
              run_challenge(reply->attach_id, std::get<aka::Challenge>(reply->step),
                            /*attempt=*/0, finish);
            });
}

void Ue::run_challenge(std::uint64_t attach_id, const aka::Challenge& challenge, int attempt,
                       const std::function<void(AttachRecord)>& finish) {
  // USIM processing: verify AUTN, update SQN state, derive keys. 4G devices
  // run EPS AKA (RES, K_ASME); 5G devices run 5G AKA (RES*, K_seaf).
  aka::UsimResult result;
  if (config_.lte) {
    const auto result4g = usim_.authenticate_4g(challenge.rand, challenge.autn,
                                                aka::encode_plmn(config_.mcc, config_.mnc));
    result.failure = result4g.failure;
    result.auts = result4g.auts;
    if (result4g.ok()) {
      aka::UsimResponse response;
      // Pad the 8-byte RES into the 16-byte response field (high bytes 0).
      response.res_star = crypto::ResStar{};
      std::copy(result4g.response->res.begin(), result4g.response->res.end(),
                response.res_star.begin());
      response.k_seaf = result4g.response->k_asme;
      response.sqn = result4g.response->sqn;
      result.response = response;
    }
  } else {
    result = usim_.authenticate(challenge.rand, challenge.autn, config_.serving_network_name);
  }

  aka::AuthResponse response;
  response.attach_id = attach_id;
  crypto::Key256 ue_k_seaf{};
  if (result.ok()) {
    ue_k_seaf = result.response->k_seaf;
    response.res_star = result.response->res_star;
  } else if (result.failure == aka::UsimFailure::kSqnOutOfRange && result.auts &&
             attempt == 0) {
    // Stale SQN: reveal SQNms via AUTS so the network can resynchronise and
    // retry (TS 33.102 §6.3.3). One retry only; RES* stays zero.
    response.auts = result.auts;
  } else {
    finish(failed<AttachRecord>(result.failure == aka::UsimFailure::kMacMismatch
                                    ? "usim mac failure"
                                    : "usim sqn failure"));
    return;
  }
  const bool sent_auts = !result.ok();

  sim::TypedStub(rpc_, ran_node_, aka::kAuthResponse)
      .call(core_node_, response, nas_options(config_.attach_timeout),
            [this, finish, ue_k_seaf, attach_id, attempt,
             sent_auts](sim::CallResult<aka::AuthResponseReply> reply) {
        if (!reply.ok()) {
          finish(failed<AttachRecord>(std::string("auth response failed: ") +
                                      reply.error().message));
          return;
        }
        if (const auto* retry = std::get_if<aka::Challenge>(&reply->step)) {
          // Resynchronised retry challenge.
          run_challenge(attach_id, *retry, attempt + 1, finish);
          return;
        }
        const auto& outcome = std::get<aka::Outcome>(reply->step);
        AttachRecord record;
        record.success = outcome.success;
        record.path = outcome.path;
        record.failure = outcome.failure;
        if (record.success && sent_auts) {
          // The network claims success against an AUTS-only response:
          // impossible; treat as failure.
          record.success = false;
          record.failure = "unexpected success after auts";
        }
        if (record.success && outcome.guti.value != 0) {
          guti_ = outcome.guti;
          k_seaf_ = ue_k_seaf;
        }
        // Mutual key confirmation: the network's SecurityModeCommand MAC
        // must match the key we derived on the USIM.
        const auto expected = crypto::hmac_sha256(ue_k_seaf, as_bytes("dauth-smc"));
        record.key_confirmed = ct_equal(outcome.confirmation, expected);
        if (record.success && !record.key_confirmed) {
          record.success = false;
          record.failure = "key confirmation mismatch";
        }
        if (!record.success) {
          finish(record);
          return;
        }
        // SecurityModeComplete / RegistrationAccept: the final signalling
        // round trip before user-plane service.
        sim::TypedStub(rpc_, ran_node_, aka::kRegistrationComplete)
            .call(core_node_, sim::Ack{}, nas_options(config_.attach_timeout),
                  [finish, record](sim::CallResult<sim::Ack> ack) mutable {
                    if (!ack.ok()) {
                      record.success = false;
                      record.failure = "registration complete failed";
                    }
                    finish(record);
                  });
      });
}

void Ue::handover_to(sim::NodeIndex target_core,
                     std::function<void(const HandoverRecord&)> done) {
  if (busy_) throw std::logic_error("Ue::handover_to: attach/handover in flight");
  const Time started = rpc_.network().simulator().now();
  auto finish = [this, done, started](HandoverRecord record) {
    record.started = started;
    record.completed = rpc_.network().simulator().now();
    busy_ = false;
    done(record);
  };

  if (!guti_ || !k_seaf_) {
    finish(failed<HandoverRecord>("no active session"));
    return;
  }
  busy_ = true;

  sim::TypedStub(rpc_, ran_node_, aka::kHandoverRequest)
      .call(target_core, *guti_, nas_options(config_.attach_timeout),
            [this, finish, target_core](sim::CallResult<aka::HandoverReply> result) {
        if (!result.ok()) {
          finish(failed<HandoverRecord>(std::string("handover request failed: ") +
                                        result.error().message));
          return;
        }
        const aka::HandoverReply& reply = result.value();
        // Derive the same horizontal key as the source network did and
        // check the target's key confirmation — mutual proof that the
        // context transfer used OUR session key.
        const crypto::Key256 k_ho =
            crypto::derive_handover_key(*k_seaf_, reply.guti.issuer.str(), reply.counter);
        if (!ct_equal(crypto::hmac_sha256(k_ho, as_bytes("dauth-ho")), reply.confirmation)) {
          finish(failed<HandoverRecord>("handover key confirmation mismatch"));
          return;
        }
        k_seaf_ = k_ho;
        guti_ = reply.guti;
        core_node_ = target_core;
        HandoverRecord record;
        record.success = true;
        finish(record);
      });
}

}  // namespace dauth::ran
