// Open5GS-like baseline core network (the paper's comparison system).
//
// Models a standard monolithic 4G/5G core's authentication path:
//   * "edge core"  — subscribers provisioned locally; the whole
//     AMF/AUSF/UDM pipeline runs on one box, no roaming (§6.3.1 (1)/(2));
//   * "cloud core" — same software hosted on a cloud VM (§6.3.1 (3)/(4));
//   * traditional roaming — non-local subscribers are authenticated by a
//     round trip to the home HSS/AUSF over S6a/N12, which (unlike dAuth's
//     persistent gRPC channels) opens an on-demand connection per request
//     (§6.3.2).
//
// The UE-facing services are aka/nas.h's, as at core::ServingNetwork, so
// the same ran::Ue drives both systems; "hss.get_av" is declared below.
#pragma once

#include <map>
#include <optional>
#include <string_view>

#include "aka/auth_vector.h"
#include "aka/nas.h"
#include "aka/sqn.h"
#include "common/ids.h"
#include "core/config.h"
#include "crypto/drbg.h"
#include "crypto/kdf_3gpp.h"
#include "sim/service.h"

namespace dauth::baseline {

/// serving core -> home HSS (S6a/N12): a roaming subscriber's vector.
struct HssVectorRequest {
  Supi supi;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.supi);
  }
};

/// home HSS -> serving core: the complete vector, XRES* and K_seaf included.
struct HssVectorReply {
  crypto::Rand rand{};
  aka::Autn autn{};
  crypto::ResStar xres_star{};
  crypto::Key256 k_seaf{};

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.rand, m.autn);
    f.field(m.xres_star);  // DAUTH_DISCLOSE(baseline 5G AKA ships XRES* to the serving core; dAuth exists to remove this trust)
    f.field(m.k_seaf);  // DAUTH_DISCLOSE(baseline 5G AKA ships K_seaf to the serving core; dAuth exists to remove this trust)
  }
};

inline constexpr sim::Service<HssVectorRequest, HssVectorReply> kHssGetAv{"hss.get_av"};

/// The PLMN the baseline core serves. EPS AKA binds K_ASME to it (TS
/// 33.401), and the default serving_network_name names it.
inline constexpr std::string_view kServingMcc = "315";
inline constexpr std::string_view kServingMnc = "010";

struct StandaloneCoreConfig {
  std::string serving_network_name = crypto::serving_network_name(kServingMcc, kServingMnc);
  core::CostModel costs;
  /// Open5GS keeps S6a/N12 connections on demand; set true to give the
  /// baseline persistent connections too (ablation).
  bool reuse_roaming_connections = false;
  Time hss_timeout = sec(5);
};

struct BaselineMetrics {
  std::uint64_t attaches_started = 0;
  std::uint64_t attaches_succeeded = 0;
  std::uint64_t attaches_failed = 0;
  std::uint64_t local_auths = 0;
  std::uint64_t roaming_auths = 0;
  std::uint64_t hss_requests_served = 0;
};

class StandaloneCore {
 public:
  StandaloneCore(sim::Rpc& rpc, sim::NodeIndex node, std::string name,
                 StandaloneCoreConfig config, std::uint64_t seed);

  /// Provisions a subscriber into the local HSS/UDM.
  void provision_subscriber(const Supi& supi, const aka::SubscriberKeys& keys);

  /// Enables roaming: unknown subscribers are authenticated via the core at
  /// `hss_node` (which must also be a StandaloneCore holding their keys).
  void set_remote_hss(sim::NodeIndex hss_node);

  /// Serves aka/nas.h's serving.* services and hss.get_av on the node.
  void bind_services();

  const BaselineMetrics& metrics() const noexcept { return metrics_; }

 private:
  struct Attach {
    std::uint64_t id = 0;
    Supi supi;
    bool lte = false;
    crypto::ResStar xres_star{};  // 4G: zero-padded 8-byte XRES
    crypto::Key256 k_seaf{};      // 4G: K_ASME
    bool roaming = false;
    std::optional<sim::TypedResponder<aka::AttachReply>> challenge_responder;
    bool done = false;
  };
  struct Subscriber {
    aka::SubscriberKeys keys;
    aka::SqnAllocator sqn;
  };

  void handle_attach_request(aka::AttachRequest request,
                             sim::TypedResponder<aka::AttachReply> responder);
  void handle_auth_response(aka::AuthResponse response,
                            sim::TypedResponder<aka::AuthResponseReply> responder);
  void handle_hss_get_av(HssVectorRequest request, sim::TypedResponder<HssVectorReply> responder);
  void finish(const std::shared_ptr<Attach>& attach,
              const sim::TypedResponder<aka::AuthResponseReply>& responder, bool success,
              const std::string& failure);

  sim::Rpc& rpc_;
  sim::NodeIndex node_;
  std::string name_;
  StandaloneCoreConfig config_;
  crypto::DeterministicDrbg rng_;

  std::map<Supi, Subscriber> subscribers_;
  std::optional<sim::NodeIndex> remote_hss_;
  std::uint64_t next_attach_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Attach>> attaches_;
  BaselineMetrics metrics_;
};

}  // namespace dauth::baseline
