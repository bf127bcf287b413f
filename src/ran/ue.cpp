#include "ran/ue.h"

#include "crypto/hmac.h"
#include "crypto/kdf_3gpp.h"
#include "sim/latency.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::ran {

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
  // RRC connection setup: one signalling round trip before any NAS.
  simulator.after(radio, [this, done = std::move(done), started]() mutable {
    sim::RpcOptions options;
    options.timeout = config_.attach_timeout;
    rpc_.call(
        ran_node_, core_node_, "serving.rrc_setup", {}, options,
        [this, done, started](Bytes) mutable {
          send_attach_request(std::move(done), started, /*allow_guti=*/true);
        },
        [this, done, started](sim::RpcError error) {
          AttachRecord record;
          record.success = false;
          record.failure = std::string("rrc setup failed: ") + to_string(error.code);
          record.started = started;
          record.completed = rpc_.network().simulator().now();
          busy_ = false;
          done(record);
        });  // NOLINT
  });
}

void Ue::send_attach_request(std::function<void(const AttachRecord&)> done, Time started,
                             bool allow_guti) {
  wire::Writer w;
  if (allow_guti && config_.use_guti && guti_) {
    // Temporary identifier only: nothing permanent crosses the air.
    w.string("");
    w.bytes({});
    w.string("");
    w.string(guti_->issuer.str());
    w.u64(guti_->value);
  } else if (config_.use_suci && suci_key_) {
    w.string("");  // no cleartext SUPI
    w.bytes(aka::encode_suci(aka::conceal_supi(usim_.supi(), *suci_key_, suci_rng_)));
    w.string(suci_home_ ? suci_home_->str() : "");
    w.string("");
    w.u64(0);
  } else {
    w.string(usim_.supi().str());
    w.bytes({});
    w.string("");
    w.string("");
    w.u64(0);
  }
  w.u8(config_.lte ? 1 : 0);  // RAT: 0 = 5G NR, 1 = 4G LTE

  auto finish = [this, done, started](AttachRecord record) {
    record.started = started;
    record.completed = rpc_.network().simulator().now();
    busy_ = false;
    done(record);
  };

  sim::RpcOptions options;
  options.timeout = config_.attach_timeout;
  rpc_.call(
      ran_node_, core_node_, "serving.attach_request", std::move(w).take(), options,
      [this, finish, options, done, started](Bytes challenge) {
        std::uint64_t attach_id = 0;
        crypto::Rand rand;
        aka::Autn autn;
        try {
          wire::Reader r(challenge);
          attach_id = r.u64();
          const std::uint8_t kind = r.u8();
          if (kind == 2) {
            // IdentityRequest (§4.1): the network could not resolve our
            // GUTI; retry immediately with a long-lived identifier.
            r.expect_done();
            guti_.reset();
            busy_ = true;  // finish() below was not called; stay busy
            send_attach_request(done, started, /*allow_guti=*/false);
            return;
          }
          if (kind != 1) throw wire::WireError("unknown challenge kind");
          rand = r.fixed<16>();
          autn = r.fixed<16>();
          r.expect_done();
        } catch (const wire::WireError&) {
          AttachRecord record;
          record.failure = "malformed challenge";
          finish(record);
          return;
        }

        run_challenge(attach_id, rand, autn, /*attempt=*/0, finish, options);
      },
      [finish](sim::RpcError error) {
        AttachRecord record;
        record.failure =
            std::string("attach request failed: ") + to_string(error.code) + ": " + error.message;
        finish(record);
      });
}

void Ue::run_challenge(std::uint64_t attach_id, const crypto::Rand& rand,
                       const aka::Autn& autn, int attempt,
                       const std::function<void(AttachRecord)>& finish,
                       const sim::RpcOptions& options) {
  // USIM processing: verify AUTN, update SQN state, derive keys. 4G devices
  // run EPS AKA (RES, K_ASME); 5G devices run 5G AKA (RES*, K_seaf).
  aka::UsimResult result;
  if (config_.lte) {
    const auto result4g =
        usim_.authenticate_4g(rand, autn, aka::encode_plmn(config_.mcc, config_.mnc));
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
    result = usim_.authenticate(rand, autn, config_.serving_network_name);
  }

  wire::Writer w;
  w.u64(attach_id);
  crypto::Key256 ue_k_seaf{};
  if (result.ok()) {
    ue_k_seaf = result.response->k_seaf;
    w.fixed(result.response->res_star);  // DAUTH_DISCLOSE(RES* is the authentication response itself, §4.2.2)
    w.boolean(false);  // no AUTS
  } else if (result.failure == aka::UsimFailure::kSqnOutOfRange && result.auts &&
             attempt == 0) {
    // Stale SQN: reveal SQNms via AUTS so the network can resynchronise and
    // retry (TS 33.102 §6.3.3). One retry only.
    w.fixed(crypto::ResStar{});  // no valid response
    w.boolean(true);
    w.fixed(result.auts->sqn_ms_xor_ak_star);  // DAUTH_DISCLOSE(AUTS conceals SQNms under AK*, TS 33.102 §6.3.3)
    w.fixed(result.auts->mac_s);  // DAUTH_DISCLOSE(MAC-S authenticates the resync token, TS 33.102 §6.3.3)
  } else {
    AttachRecord record;
    record.failure = result.failure == aka::UsimFailure::kMacMismatch ? "usim mac failure"
                                                                      : "usim sqn failure";
    finish(record);
    return;
  }
  const bool sent_auts = !result.ok();

  rpc_.call(
      ran_node_, core_node_, "serving.auth_response", std::move(w).take(), options,
      [this, finish, ue_k_seaf, options, attach_id, attempt, sent_auts](Bytes reply) {
        AttachRecord record;
        try {
          wire::Reader r(reply);
          const std::uint8_t kind = r.u8();
          if (kind == 2) {
            // Resynchronised retry challenge.
            const crypto::Rand fresh_rand = r.fixed<16>();
            const aka::Autn fresh_autn = r.fixed<16>();
            r.expect_done();
            run_challenge(attach_id, fresh_rand, fresh_autn, attempt + 1, finish, options);
            return;
          }
          if (kind != 1) throw wire::WireError("unknown outcome kind");
          record.success = r.boolean();
          record.path = r.string();
          const auto confirmation = r.fixed<32>();
          record.failure = r.string();
          const std::string guti_issuer = r.string();
          const std::uint64_t guti_value = r.u64();
          r.expect_done();
          if (record.success && sent_auts) {
            // The network claims success against an AUTS-only response:
            // impossible; treat as failure.
            record.success = false;
            record.failure = "unexpected success after auts";
          }
          if (record.success && guti_value != 0) {
            guti_ = Guti{NetworkId(guti_issuer), guti_value};
            k_seaf_ = ue_k_seaf;
          }
          // Mutual key confirmation: the network's SecurityModeCommand MAC
          // must match the key we derived on the USIM.
          const auto expected = crypto::hmac_sha256(ue_k_seaf, as_bytes("dauth-smc"));
          record.key_confirmed = ct_equal(confirmation, expected);
          if (record.success && !record.key_confirmed) {
            record.success = false;
            record.failure = "key confirmation mismatch";
          }
        } catch (const wire::WireError&) {
          record.success = false;
          record.failure = "malformed outcome";
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
        AttachRecord record;
        record.failure = std::string("auth response failed: ") + error.message;
        finish(record);
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
    HandoverRecord record;
    record.failure = "no active session";
    record.started = record.completed = started;
    done(record);
    return;
  }
  busy_ = true;

  wire::Writer w;
  w.string(guti_->issuer.str());
  w.u64(guti_->value);
  sim::RpcOptions options;
  options.timeout = config_.attach_timeout;
  rpc_.call(
      ran_node_, target_core, "serving.handover_request", std::move(w).take(), options,
      [this, finish, target_core](Bytes reply) {
        std::string target_id;
        std::uint64_t new_guti = 0;
        std::uint32_t counter = 0;
        ByteArray<32> confirmation{};
        try {
          wire::Reader r(reply);
          target_id = r.string();
          new_guti = r.u64();
          counter = r.u32();
          confirmation = r.fixed<32>();
          r.expect_done();
        } catch (const wire::WireError&) {
          HandoverRecord record;
          record.failure = "malformed handover reply";
          finish(record);
          return;
        }
        // Derive the same horizontal key as the source network did and
        // check the target's key confirmation — mutual proof that the
        // context transfer used OUR session key.
        const crypto::Key256 k_ho = crypto::derive_handover_key(*k_seaf_, target_id, counter);
        if (!ct_equal(crypto::hmac_sha256(k_ho, as_bytes("dauth-ho")), confirmation)) {
          HandoverRecord record;
          record.failure = "handover key confirmation mismatch";
          finish(record);
          return;
        }
        k_seaf_ = k_ho;
        guti_ = Guti{NetworkId(target_id), new_guti};
        core_node_ = target_core;
        HandoverRecord record;
        record.success = true;
        finish(record);
      },
      [finish](sim::RpcError error) {
        HandoverRecord record;
        record.failure = std::string("handover request failed: ") + error.message;
        finish(record);
      });
}

}  // namespace dauth::ran
