#include "baseline/standalone_core.h"

#include "crypto/hmac.h"
#include "wire/reader.h"
#include "wire/writer.h"

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
  rpc_.register_service(node_, "serving.attach_request",
                        [this](ByteView req, sim::Responder r) { handle_attach_request(req, r); });
  rpc_.register_service(node_, "serving.auth_response",
                        [this](ByteView req, sim::Responder r) { handle_auth_response(req, r); });
  rpc_.register_service(node_, "hss.get_av",
                        [this](ByteView req, sim::Responder r) { handle_hss_get_av(req, r); });
  rpc_.register_service(node_, "serving.rrc_setup",
                        [](ByteView, sim::Responder r) { r.reply({}); });
  rpc_.register_service(node_, "serving.registration_complete",
                        [this](ByteView, sim::Responder r) {
                          rpc_.network().node(node_).execute(msf(1.5),
                                                             [r] { r.reply({}); });
                        });
}

void StandaloneCore::handle_attach_request(ByteView request, sim::Responder responder) {
  Supi supi;
  bool lte = false;
  try {
    wire::Reader r(request);
    supi = Supi(r.string());
    (void)r.bytes();   // suci: the baseline core has no concealment support
    (void)r.string();  // home hint unused
    (void)r.string();  // guti issuer: baseline always does a full auth
    (void)r.u64();     // guti value
    lte = r.u8() == 1;
    r.expect_done();
  } catch (const wire::WireError&) {
    responder.fail("malformed attach request");
    return;
  }

  auto attach = std::make_shared<Attach>();
  attach->id = next_attach_id_++;
  attach->supi = supi;
  attach->lte = lte;
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
        crypto::Rand out_rand;
        aka::Autn out_autn;
        if (attach->lte) {
          // MME path: EPS AKA (TS 33.401). The UE answers with the raw RES
          // and both sides derive K_ASME bound to the serving PLMN.
          const aka::AuthVector4G av = aka::generate_auth_vector_4g(
              subscriber.keys, subscriber.sqn.allocate(aka::kHomeSlice), rand,
              aka::encode_plmn(Supi(attach->supi).mcc(), Supi(attach->supi).mnc()));
          attach->xres_star = crypto::ResStar{};
          std::copy(av.xres.begin(), av.xres.end(), attach->xres_star.begin());
          attach->k_seaf = av.k_asme;
          out_rand = av.rand;
          out_autn = av.autn;
        } else {
          const aka::AuthVector av = aka::generate_auth_vector(
              subscriber.keys, subscriber.sqn.allocate(aka::kHomeSlice), rand,
              config_.serving_network_name);
          attach->xres_star = av.xres_star;
          attach->k_seaf = av.k_seaf;
          out_rand = av.rand;
          out_autn = av.autn;
        }
        ++metrics_.local_auths;

        wire::Writer w;
        w.u64(attach->id);
        w.u8(1);  // AuthRequest
        w.fixed(out_rand);
        w.fixed(out_autn);
        attach->challenge_responder->reply(std::move(w).take());
        attach->challenge_responder.reset();
      });
      return;
    }

    if (!remote_hss_) {
      ++metrics_.attaches_failed;
      attach->done = true;
      attach->challenge_responder->fail("unknown subscriber");
      attaches_.erase(attach->id);
      return;
    }

    // Traditional roaming: S6a/N12 round trip to the home HSS/AUSF. The home
    // network returns the complete vector, including XRES* and K_seaf.
    attach->roaming = true;
    wire::Writer w;
    w.string(attach->supi.str());
    sim::RpcOptions options;
    options.timeout = config_.hss_timeout;
    options.force_new_connection = !config_.reuse_roaming_connections;
    rpc_.call(
        node_, *remote_hss_, "hss.get_av", std::move(w).take(), options,
        [this, attach](Bytes reply) {
          if (attach->done || !attach->challenge_responder) return;
          crypto::Rand rand;
          aka::Autn autn;
          try {
            wire::Reader r(reply);
            rand = r.fixed<16>();
            autn = r.fixed<16>();
            attach->xres_star = r.fixed<16>();
            attach->k_seaf = r.fixed<32>();
            r.expect_done();
          } catch (const wire::WireError&) {
            attach->challenge_responder->fail("malformed hss reply");
            attaches_.erase(attach->id);
            return;
          }
          ++metrics_.roaming_auths;
          wire::Writer w2;
          w2.u64(attach->id);
          w2.u8(1);  // AuthRequest
          w2.fixed(rand);
          w2.fixed(autn);
          attach->challenge_responder->reply(std::move(w2).take());
          attach->challenge_responder.reset();
        },
        [this, attach](sim::RpcError error) {
          if (attach->done || !attach->challenge_responder) return;
          ++metrics_.attaches_failed;
          attach->done = true;
          attach->challenge_responder->fail("hss unreachable: " + error.message);
          attaches_.erase(attach->id);
        });
  });
}

void StandaloneCore::handle_auth_response(ByteView request, sim::Responder responder) {
  std::uint64_t attach_id = 0;
  crypto::ResStar res_star{};
  bool has_auts = false;
  try {
    wire::Reader r(request);
    attach_id = r.u64();
    res_star = r.fixed<16>();
    has_auts = r.boolean();
    if (has_auts) {
      (void)r.fixed<6>();
      (void)r.fixed<8>();
    }
    r.expect_done();
  } catch (const wire::WireError&) {
    responder.fail("malformed auth response");
    return;
  }

  const auto it = attaches_.find(attach_id);
  if (it == attaches_.end()) {
    responder.fail("unknown attach id");
    return;
  }
  const std::shared_ptr<Attach> attach = it->second;

  const bool matches = !has_auts && ct_equal(res_star, attach->xres_star);
  finish(attach, responder, matches,
         matches ? "" : (has_auts ? "sync failure (no resync in baseline model)"
                                  : "xres mismatch"));
  attaches_.erase(attach_id);
}

void StandaloneCore::handle_hss_get_av(ByteView request, sim::Responder responder) {
  Supi supi;
  try {
    wire::Reader r(request);
    supi = Supi(r.string());
    r.expect_done();
  } catch (const wire::WireError&) {
    responder.fail("malformed hss request");
    return;
  }

  const Time hss_cost = config_.costs.vector_generation + config_.costs.hss_roaming_overhead;
  rpc_.network().node(node_).execute(hss_cost, [this, supi, responder] {
    const auto it = subscribers_.find(supi);
    if (it == subscribers_.end()) {
      responder.fail("unknown subscriber");
      return;
    }
    Subscriber& subscriber = it->second;
    const crypto::Rand rand = rng_.array<16>();
    const aka::AuthVector av =
        aka::generate_auth_vector(subscriber.keys, subscriber.sqn.allocate(aka::kHomeSlice),
                                  rand, config_.serving_network_name);
    ++metrics_.hss_requests_served;

    wire::Writer w;
    // Sized up front: without it GCC 12 at -O3 reports a false
    // -Wstringop-overflow on the growth path of the last 32-byte field.
    w.reserve(av.rand.size() + av.autn.size() + av.xres_star.size() + av.k_seaf.size());
    w.fixed(av.rand);
    w.fixed(av.autn);
    w.fixed(av.xres_star);  // DAUTH_DISCLOSE(baseline 5G AKA ships XRES* to the serving core; dAuth exists to remove this trust)
    w.fixed(av.k_seaf);  // DAUTH_DISCLOSE(baseline 5G AKA ships K_seaf to the serving core; dAuth exists to remove this trust)
    responder.reply(std::move(w).take());
  });
}

void StandaloneCore::finish(const std::shared_ptr<Attach>& attach, sim::Responder responder,
                            bool success, const std::string& failure) {
  attach->done = true;
  if (success) {
    ++metrics_.attaches_succeeded;
  } else {
    ++metrics_.attaches_failed;
  }
  wire::Writer w;
  w.u8(1);  // outcome
  w.boolean(success);
  w.string(attach->roaming ? "roaming" : "local");
  const auto confirmation = crypto::hmac_sha256(attach->k_seaf, as_bytes("dauth-smc"));
  w.fixed(confirmation);
  w.string(failure);
  w.string("");  // the baseline does not assign GUTIs in this model
  w.u64(0);
  responder.reply(std::move(w).take());
}

}  // namespace dauth::baseline
