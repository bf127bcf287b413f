#include "baseline/standalone_core.h"

#include "crypto/hmac.h"

namespace dauth::baseline {

StandaloneCore::StandaloneCore(sim::Rpc& rpc, sim::NodeIndex node, std::string name,
                               StandaloneCoreConfig config, std::uint64_t seed)
    : rpc_(rpc),
      node_(node),
      name_(std::move(name)),
      config_(std::move(config)),
      rng_("open5gs:" + name_, seed) {}

void StandaloneCore::provision_subscriber(const Supi& supi, const aka::SubscriberKeys& keys) {
  Subscriber subscriber;
  subscriber.keys = keys;
  subscribers_.emplace(supi, std::move(subscriber));
}

void StandaloneCore::set_remote_hss(sim::NodeIndex hss_node) { remote_hss_ = hss_node; }

void StandaloneCore::bind_services() {
  sim::serve(rpc_, node_, aka::kAttachRequest,
             std::bind_front(&StandaloneCore::handle_attach_request, this));
  sim::serve(rpc_, node_, aka::kAuthResponse,
             std::bind_front(&StandaloneCore::handle_auth_response, this));
  sim::serve(rpc_, node_, kHssGetAv, std::bind_front(&StandaloneCore::handle_hss_get_av, this));
  sim::serve(rpc_, node_, aka::kRrcSetup,
             [](sim::Ack, sim::TypedResponder<sim::Ack> r) { r.reply({}); });
  sim::serve(rpc_, node_, aka::kRegistrationComplete,
             [this](sim::Ack, sim::TypedResponder<sim::Ack> r) {
               rpc_.network().node(node_).execute(msf(1.5), [r] { r.reply({}); });
             });
}

void StandaloneCore::handle_attach_request(aka::AttachRequest request,
                                           sim::TypedResponder<aka::AttachReply> responder) {
  // The baseline reads the SUPI and the RAT only: it has no SUCI
  // concealment, and it always runs a full authentication, GUTI or not.
  auto attach = std::make_shared<Attach>();
  attach->id = next_attach_id_++;
  attach->supi = std::move(request.supi);
  attach->lte = request.lte;
  attach->challenge_responder = responder;
  attaches_[attach->id] = attach;
  ++metrics_.attaches_started;

  rpc_.network().node(node_).execute(config_.costs.nas_processing, [this, attach] {
    const auto it = subscribers_.find(attach->supi);
    if (it != subscribers_.end()) {
      // Local subscriber: run the full AUSF/UDM pipeline on this box.
      rpc_.network().node(node_).execute(config_.costs.vector_generation, [this, attach] {
        auto sub_it = subscribers_.find(attach->supi);
        if (sub_it == subscribers_.end() || attach->done) return;
        Subscriber& subscriber = sub_it->second;
        const crypto::Rand rand = rng_.array<16>();
        aka::Challenge challenge;
        if (attach->lte) {
          // MME path: EPS AKA (TS 33.401). The UE answers with the raw RES
          // and both sides derive K_ASME bound to the serving PLMN: this
          // core's, whatever PLMN the subscriber's SUPI names.
          const aka::AuthVector4G av = aka::generate_auth_vector_4g(
              subscriber.keys, subscriber.sqn.allocate(aka::kHomeSlice), rand,
              aka::encode_plmn(kServingMcc, kServingMnc));
          attach->xres_star = crypto::ResStar{};
          std::copy(av.xres.begin(), av.xres.end(), attach->xres_star.begin());
          attach->k_seaf = av.k_asme;
          challenge = {av.rand, av.autn};
        } else {
          const aka::AuthVector av = aka::generate_auth_vector(
              subscriber.keys, subscriber.sqn.allocate(aka::kHomeSlice), rand,
              config_.serving_network_name);
          attach->xres_star = av.xres_star;
          attach->k_seaf = av.k_seaf;
          challenge = {av.rand, av.autn};
        }
        ++metrics_.local_auths;
        attach->challenge_responder->reply(aka::AttachReply{attach->id, challenge});
        attach->challenge_responder.reset();
      });
      return;
    }

    if (!remote_hss_) {
      ++metrics_.attaches_failed;
      attach->done = true;
      attach->challenge_responder->fail(sim::AppErrorCode::kNotFound, "unknown subscriber");
      attaches_.erase(attach->id);
      return;
    }

    // Traditional roaming: S6a/N12 round trip to the home HSS/AUSF. The home
    // network returns the complete vector, including XRES* and K_seaf.
    attach->roaming = true;
    auto options = sim::RpcOptions::oneshot(config_.hss_timeout);
    options.use_breaker = false;
    options.force_new_connection = !config_.reuse_roaming_connections;
    sim::TypedStub(rpc_, node_, kHssGetAv)
        .call(*remote_hss_, HssVectorRequest{attach->supi}, options,
              [this, attach](sim::CallResult<HssVectorReply> result) {
                if (attach->done || !attach->challenge_responder) return;
                if (!result.ok()) {
                  ++metrics_.attaches_failed;
                  attach->done = true;
                  attach->challenge_responder->fail(
                      sim::AppErrorCode::kUpstream,
                      "hss vector fetch failed: " + result.error().message);
                  attaches_.erase(attach->id);
                  return;
                }
                attach->xres_star = result->xres_star;
                attach->k_seaf = result->k_seaf;
                ++metrics_.roaming_auths;
                attach->challenge_responder->reply(
                    aka::AttachReply{attach->id, aka::Challenge{result->rand, result->autn}});
                attach->challenge_responder.reset();
              });
  });
}

void StandaloneCore::handle_auth_response(aka::AuthResponse response,
                                          sim::TypedResponder<aka::AuthResponseReply> responder) {
  const auto& [attach_id, res_star, auts] = response;

  const auto it = attaches_.find(attach_id);
  if (it == attaches_.end()) {
    responder.fail(sim::AppErrorCode::kNotFound, "unknown attach id");
    return;
  }
  const std::shared_ptr<Attach> attach = it->second;

  const bool matches = !auts && ct_equal(res_star, attach->xres_star);
  finish(attach, responder, matches,
         matches ? "" : (auts ? "sync failure (no resync in baseline model)"
                              : "xres mismatch"));
  attaches_.erase(attach_id);
}

void StandaloneCore::handle_hss_get_av(HssVectorRequest request,
                                       sim::TypedResponder<HssVectorReply> responder) {
  const Time hss_cost = config_.costs.vector_generation + config_.costs.hss_roaming_overhead;
  rpc_.network().node(node_).execute(hss_cost, [this, supi = std::move(request.supi), responder] {
    const auto it = subscribers_.find(supi);
    if (it == subscribers_.end()) {
      responder.fail(sim::AppErrorCode::kNotFound, "unknown subscriber");
      return;
    }
    Subscriber& subscriber = it->second;
    const crypto::Rand rand = rng_.array<16>();
    const aka::AuthVector av =
        aka::generate_auth_vector(subscriber.keys, subscriber.sqn.allocate(aka::kHomeSlice),
                                  rand, config_.serving_network_name);
    ++metrics_.hss_requests_served;
    // DAUTH_DISCLOSE(baseline 5G AKA ships XRES* and K_seaf to the serving core; dAuth exists to remove this trust)
    responder.reply(HssVectorReply{av.rand, av.autn, av.xres_star, av.k_seaf});
  });
}

void StandaloneCore::finish(const std::shared_ptr<Attach>& attach,
                            const sim::TypedResponder<aka::AuthResponseReply>& responder,
                            bool success, const std::string& failure) {
  attach->done = true;
  if (success) {
    ++metrics_.attaches_succeeded;
  } else {
    ++metrics_.attaches_failed;
  }
  // The baseline does not assign GUTIs in this model.
  responder.reply(aka::AuthResponseReply{aka::Outcome{
      success, attach->roaming ? "roaming" : "local",
      crypto::hmac_sha256(attach->k_seaf, as_bytes("dauth-smc")), failure, Guti{}}});
}

}  // namespace dauth::baseline
