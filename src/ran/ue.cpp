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
    sim::RpcOptions options;
    options.timeout = config_.attach_timeout;
    rpc_.call(
        ran_node_, core_node_, "serving.rrc_setup", {}, options,
        [this, finish](Bytes) { send_attach_request(finish, /*allow_guti=*/true); },
        [finish](sim::RpcError error) {
          finish(failed<AttachRecord>(std::string("rrc setup failed: ") + to_string(error.code)));
        });  // NOLINT
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

  sim::RpcOptions options;
  options.timeout = config_.attach_timeout;
  rpc_.call(
      ran_node_, core_node_, "serving.attach_request", wire::encode(request), options,
      [this, finish, options](Bytes frame) {
        aka::AttachReply reply;
        try {
          reply = wire::decode<aka::AttachReply>(frame);
        } catch (const wire::WireError&) {
          finish(failed<AttachRecord>("malformed challenge"));
          return;
        }
        if (std::holds_alternative<aka::IdentityRequest>(reply.step)) {
          // The network could not resolve our GUTI (§4.1); retry
          // immediately with a long-lived identifier.
          guti_.reset();
          send_attach_request(finish, /*allow_guti=*/false);
          return;
        }
        run_challenge(reply.attach_id, std::get<aka::Challenge>(reply.step), /*attempt=*/0,
                      finish, options);
      },
      [finish](sim::RpcError error) {
        finish(failed<AttachRecord>(std::string("attach request failed: ") +
                                    to_string(error.code) + ": " + error.message));
      });
}

void Ue::run_challenge(std::uint64_t attach_id, const aka::Challenge& challenge, int attempt,
                       const std::function<void(AttachRecord)>& finish,
                       const sim::RpcOptions& options) {
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

  // DAUTH_DISCLOSE(RES* is the authentication response itself, and an AUTS conceals SQNms under AK*, TS 33.102 §6.3.3)
  rpc_.call(
      ran_node_, core_node_, "serving.auth_response", wire::encode(response), options,
      [this, finish, ue_k_seaf, options, attach_id, attempt, sent_auts](Bytes frame) {
        aka::AuthResponseReply reply;
        try {
          reply = wire::decode<aka::AuthResponseReply>(frame);
        } catch (const wire::WireError&) {
          finish(failed<AttachRecord>("malformed outcome"));
          return;
        }
        if (const auto* retry = std::get_if<aka::Challenge>(&reply.step)) {
          // Resynchronised retry challenge.
          run_challenge(attach_id, *retry, attempt + 1, finish, options);
          return;
        }
        const auto& outcome = std::get<aka::Outcome>(reply.step);
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
        rpc_.call(
            ran_node_, core_node_, "serving.registration_complete", {}, options,
            [finish, record](Bytes) { finish(record); },
            [finish, record](sim::RpcError) mutable {
              record.success = false;
              record.failure = "registration complete failed";
              finish(record);
            });
      },
      [finish](sim::RpcError error) {
        finish(failed<AttachRecord>(std::string("auth response failed: ") + error.message));
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

  sim::RpcOptions options;
  options.timeout = config_.attach_timeout;
  rpc_.call(
      ran_node_, target_core, "serving.handover_request",
      wire::encode<aka::HandoverRequest>(*guti_), options,
      [this, finish, target_core](Bytes frame) {
        aka::HandoverReply reply;
        try {
          reply = wire::decode<aka::HandoverReply>(frame);
        } catch (const wire::WireError&) {
          finish(failed<HandoverRecord>("malformed handover reply"));
          return;
        }
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
      },
      [finish](sim::RpcError error) {
        finish(failed<HandoverRecord>(std::string("handover request failed: ") + error.message));
      });
}

}  // namespace dauth::ran
