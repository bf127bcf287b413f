// End-to-end tests of the share round's ranked, hedged fan-out: the signed
// usage proof goes to the `threshold` + 1 closed backups with the lowest
// fresh share RTT, every half-open, unsampled or stale backup gets one probe
// leg, a failed, refused or bad-share leg promotes the next ranked backup at
// once, and one more leg goes out each hedge delay while the round lacks
// `threshold` shares. With `threshold` + 1 at or above the backup count the
// round is the paper's §6.4 broadcast.
//
// FanOutRules.* hold the rules the vector fetch's ladder and the share
// round share, parameterised over the two: a failed, refused or forged leg
// promotes the next backup at once; a refusal does not use up the width;
// the next hedge goes out one hedge delay after the newest launch; and a
// round with nothing left ends the attach with its fan-out's text.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "federation_fixture.h"
#include "obs/tracer.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");

/// Federation of eight: net-1 is the (offline) home, net-2..net-7 its six
/// backups, net-8 serves. Backups net-2, net-4 and net-6 sit behind fast
/// links (1, 2 and 3 ms one way), the other three behind 40 ms links, so
/// even a first sample that paid a connection handshake keeps the fast
/// three ahead. Attaches run on the fixture's schedule (Federation::attach),
/// as in every other suite.
struct FanOutFederation {
  Federation f;
  aka::SubscriberKeys keys;
  std::vector<std::size_t> backups{1, 2, 3, 4, 5, 6};
  std::vector<std::uint64_t> refused = std::vector<std::uint64_t>(6, 0);
  std::unique_ptr<ran::Ue> ue;

  explicit FanOutFederation(core::FederationConfig cfg = Federation::test_config(),
                            sim::RpcConfig rpc_config = {})
      : f(8, std::move(cfg), 1, rpc_config) {
    keys = f.provision(kAlice, 0, backups);
    const std::vector<int> link_ms{1, 40, 2, 40, 3, 40};
    for (std::size_t i = 0; i < backups.size(); ++i) {
      sim::LatencyModel link;
      link.base = ms(link_ms[i]);
      f.network.set_link(f.net(7).node(), f.net(backups[i]).node(), link);
    }
    f.network.node(f.net(0).node()).set_online(false);
    serving().set_home_health(f.net(0).id(), false);
    ue = f.make_ue(kAlice, keys, 7);
  }

  core::ServingNetwork& serving() { return f.net(7).serving(); }
  sim::NodeIndex serving_node() { return f.net(7).node(); }
  sim::NodeIndex node(std::size_t i) { return f.net(backups[i]).node(); }

  /// Makes backup `i` refuse every share leg (counted as a leg).
  void refuse_shares(std::size_t i) {
    f.rpc.register_service(node(i), "backup.get_share", [this, i](ByteView, sim::Responder r) {
      ++refused[i];
      r.fail(sim::AppErrorCode::kNotFound, "no share for this vector");
    });
  }

  /// Share legs each backup has received so far.
  std::vector<std::uint64_t> legs() {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < backups.size(); ++i) {
      const auto& m = f.net(backups[i]).backup().metrics();
      out.push_back(m.shares_served + m.rejected_requests + refused[i]);
    }
    return out;
  }

  /// One attach of the UE, run to its record and one share-leg deadline
  /// more (Federation::attach): each one is about 2.1 s of virtual time, so
  /// a sample stays fresh (PeerRtt::kMaxAge) for four attaches after it.
  ran::AttachRecord attach() { return f.attach(*ue); }

  /// One attach that must succeed, and the share legs it sent each backup.
  struct Round {
    ran::AttachRecord record;
    std::vector<std::uint64_t> legs;
  };
  Round attach_round() {
    Round round{.record = {}, .legs = legs()};
    round.record = attach();
    EXPECT_TRUE(round.record.success) << round.record.failure;
    const auto after = legs();
    for (std::size_t i = 0; i < after.size(); ++i) round.legs[i] = after[i] - round.legs[i];
    return round;
  }
  std::vector<std::uint64_t> attach_legs() { return attach_round().legs; }
};

std::uint64_t total(const std::vector<std::uint64_t>& legs) {
  return std::accumulate(legs.begin(), legs.end(), std::uint64_t{0});
}

const std::vector<std::uint64_t> kFastThree{1, 0, 1, 0, 1, 0};

TEST(ShareFanOut, FreshClosedBackupsGetThresholdPlusOneLegsToTheFastest) {
  FanOutFederation ff;
  // Cold start: every backup is unsampled, so every one gets a probe leg.
  EXPECT_EQ(ff.attach_legs(), std::vector<std::uint64_t>(6, 1));
  // Four attaches, while the slow three's warm-up samples are fresh.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ff.attach_legs(), kFastThree) << "attach " << i;
  }
  EXPECT_EQ(ff.serving().metrics().attaches_succeeded, 5u);
}

TEST(ShareFanOut, RefusedLegPromotesTheNextBackupAtOnce) {
  // Two of the fast three refuse: each refusal promotes the next ranked
  // backup without waiting out the hedge delay, so the attach completes
  // with one valid share from each of two backups, well before one hedge
  // delay has passed since the proof went out.
  FanOutFederation ff;
  ff.refuse_shares(0);
  ff.refuse_shares(2);
  EXPECT_EQ(ff.attach_legs(), std::vector<std::uint64_t>(6, 1));  // warm-up

  // The same attach in an honest federation, answered by the fast three.
  FanOutFederation honest;
  (void)honest.attach_legs();
  const Time unhedged = honest.attach().latency();
  const auto [record, legs] = ff.attach_round();
  EXPECT_EQ(legs[0], 1u);
  EXPECT_EQ(legs[2], 1u);
  EXPECT_EQ(legs[4], 1u);
  EXPECT_EQ(total(legs), 5u);  // threshold + 1, plus one promotion per refusal
  EXPECT_LT(record.latency(), unhedged + ff.f.config.resilience.hedge_delay);
}

TEST(ShareFanOut, BadShareLegPromotesTheNextBackupAtOnce) {
  // A backup whose share fails the home-signature check counts as a failed
  // leg: the next ranked backup gets one at once.
  FanOutFederation ff;
  std::uint64_t forged = 0;
  EXPECT_EQ(ff.attach_legs(), std::vector<std::uint64_t>(6, 1));  // warm-up
  ff.f.rpc.register_service(ff.node(0), "backup.get_share", [&](ByteView, sim::Responder r) {
    ++forged;
    r.reply(wire::encode(core::ShareReply{}));  // an unsigned, empty share
  });
  const auto legs = ff.attach_legs();
  EXPECT_EQ(forged, 1u);
  EXPECT_EQ(total(legs), 3u);  // the forger's leg is not counted by its metrics
  EXPECT_EQ(legs[2] + legs[4], 2u);
  EXPECT_EQ(legs[1] + legs[3] + legs[5], 1u);  // the promoted one
}

TEST(ShareFanOut, SilentLegsAreHedgedEachHedgeDelay) {
  // Two of the fast three accept the proof and never answer. The round
  // holds one share, so one more leg goes out per hedge delay until the
  // second share is in: one hedge, not a wait for the share timeout.
  FanOutFederation ff;
  EXPECT_EQ(ff.attach_legs(), std::vector<std::uint64_t>(6, 1));  // warm-up
  std::uint64_t swallowed = 0;
  for (std::size_t i : {0, 2}) {
    ff.f.rpc.register_service(ff.node(i), "backup.get_share",
                              [&](ByteView, sim::Responder) { ++swallowed; });
  }
  const auto [record, legs] = ff.attach_round();
  EXPECT_EQ(swallowed, 2u);
  EXPECT_EQ(legs[4], 1u);
  EXPECT_EQ(legs[1] + legs[3] + legs[5], 1u);  // one hedge
  EXPECT_GT(record.latency(), ff.f.config.resilience.hedge_delay);
  EXPECT_LT(record.latency(), 2 * ff.f.config.resilience.hedge_delay);
}

TEST(ShareFanOut, StaleSampleGetsAProbeLeg) {
  // The slow three get no leg while their warm-up samples are fresh. Once
  // those are older than PeerRtt::kMaxAge, the next round probes each of
  // them once, and the round after is back to the fast three.
  FanOutFederation ff;
  EXPECT_EQ(ff.attach_legs(), std::vector<std::uint64_t>(6, 1));
  // Every warm-up leg concluded before the attach returned, and none before
  // it began, about 2.1 s earlier: a round that goes out 3 s before
  // stale_from finds the slow three fresh.
  const Time stale_from = ff.f.simulator.now() + core::PeerRtt::kMaxAge;
  int fresh_rounds = 0;
  while (ff.f.simulator.now() + sec(3) < stale_from) {
    EXPECT_EQ(ff.attach_legs(), kFastThree) << "at " << ff.f.simulator.now();
    ++fresh_rounds;
  }
  EXPECT_GE(fresh_rounds, 3);
  ff.f.simulator.run_until(stale_from);
  EXPECT_EQ(ff.attach_legs(), std::vector<std::uint64_t>(6, 1));
  EXPECT_EQ(ff.attach_legs(), kFastThree);
}

TEST(ShareFanOut, HalfOpenBackupStillGetsALeg) {
  // net-2, the fastest, is announced down after the warm-up. While its
  // circuit is open it gets no leg; once the cooldown (shorter than
  // PeerRtt::kMaxAge here) lapses it is half-open and gets a probe leg on
  // top of the three closed backups ranked first.
  sim::RpcConfig rpc_config;
  rpc_config.breaker.cooldown = sec(2);
  FanOutFederation ff(Federation::test_config(), rpc_config);
  EXPECT_EQ(ff.attach_legs(), std::vector<std::uint64_t>(6, 1));  // warm-up
  ff.f.rpc.breakers().force_open_peer(ff.node(0), ff.f.simulator.now());

  const auto open_legs = ff.attach_legs();
  EXPECT_EQ(open_legs[0], 0u);
  EXPECT_EQ(total(open_legs), 3u);
  EXPECT_GE(ff.serving().metrics().breaker_skips, 1u);

  ff.f.simulator.run_until(ff.f.simulator.now() + sec(1));
  ASSERT_EQ(ff.f.rpc.breakers().state(ff.serving_node(), ff.node(0), ff.f.simulator.now()),
            sim::BreakerState::kHalfOpen);
  const auto half_open_legs = ff.attach_legs();
  EXPECT_EQ(half_open_legs[0], 1u);
  EXPECT_EQ(total(half_open_legs), 4u);  // threshold + 1 closed, plus the probe
  // The probe succeeded: the circuit is closed and net-2 ranks first again.
  EXPECT_EQ(ff.attach_legs(), kFastThree);
}

TEST(ShareFanOut, ThresholdAtOrAboveTheBackupCountBroadcasts) {
  // threshold + 1 >= N: every reachable backup gets a leg on every round,
  // as in the paper's §6.4 broadcast (Fig. 6's thresh[N] point).
  for (const std::size_t threshold : {5, 6}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    core::FederationConfig cfg = Federation::test_config();
    cfg.threshold = threshold;
    FanOutFederation ff(cfg);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(ff.attach_legs(), std::vector<std::uint64_t>(6, 1)) << "attach " << i;
    }
  }
}

/// The two hedged fan-outs of a backup attach.
enum class Fan { kVector, kShare };

/// Every leg the serving network launches on one service while it lives:
/// the wire attempts the RPC layer traces (one per leg), in launch order.
/// The tracer draws span ids from its own RNG, so the run is unchanged.
class LegLog {
 public:
  LegLog(Federation& f, const std::string& service)
      : f_(f), rng_(7), tracer_([&f] { return f.simulator.now(); }, &rng_),
        name_("rpc:" + service) {
    f_.rpc.set_tracer(&tracer_);
  }
  ~LegLog() { f_.rpc.set_tracer(nullptr); }
  LegLog(const LegLog&) = delete;
  LegLog& operator=(const LegLog&) = delete;

  /// Launch times, in order.
  std::vector<Time> launches() const {
    std::vector<Time> out;
    for (const auto& span : tracer_.spans()) {
      if (span.name == name_) out.push_back(span.start);
    }
    return out;
  }

 private:
  Federation& f_;
  Xoshiro256StarStar rng_;
  obs::Tracer tracer_;
  std::string name_;
};

class FanOutRules : public ::testing::TestWithParam<Fan> {
 protected:
  static bool vector() { return GetParam() == Fan::kVector; }
  static std::string service() { return vector() ? "backup.get_vector" : "backup.get_share"; }
  /// Legs launched together at the start: the ladder's primary, or the
  /// share round's `threshold` + 1 fastest once every backup is sampled.
  static std::size_t first_legs() { return vector() ? 1 : 3; }

  /// A federation after a warm-up attach that samples every backup.
  static std::unique_ptr<FanOutFederation> warm(
      core::FederationConfig cfg = Federation::test_config(), sim::RpcConfig rpc = {}) {
    auto ff = std::make_unique<FanOutFederation>(std::move(cfg), rpc);
    EXPECT_TRUE(ff->attach().success);
    return ff;
  }

  /// The backups (indices into `backups`) in the order both fan-outs rank
  /// them once every one is sampled: the lowest RTT estimate first.
  static std::vector<std::size_t> ranked(FanOutFederation& ff) {
    std::vector<std::size_t> order(ff.backups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ff.serving().peer_rtt().before(ff.node(a), ff.node(b));
    });
    return order;
  }

  /// Makes backup `i` answer this fan-out's legs with `handler`.
  static void answer(FanOutFederation& ff, std::size_t i, sim::ServiceHandler handler) {
    ff.f.rpc.register_service(ff.node(i), service(), std::move(handler));
  }
  static sim::ServiceHandler refuse() {
    return [](ByteView, sim::Responder r) { r.fail(sim::AppErrorCode::kNotFound, "refused"); };
  }
};

INSTANTIATE_TEST_SUITE_P(BothFanOuts, FanOutRules, ::testing::Values(Fan::kVector, Fan::kShare),
                         [](const auto& fan) {
                           return std::string(fan.param == Fan::kVector ? "Vector" : "Share");
                         });

TEST_P(FanOutRules, FailedRefusedOrForgedLegPromotesTheNextBackupAtOnce) {
  // The fastest backup answers its leg with a frame that does not
  // decode, a refusal, or a bundle without a valid home signature. Each
  // promotes one more backup at once, long before a hedge would.
  const Bytes forged = vector() ? wire::encode(core::AuthVectorBundle{})
                                : wire::encode(core::ShareReply{});
  const std::vector<std::pair<const char*, sim::ServiceHandler>> answers{
      {"malformed", [](ByteView, sim::Responder r) { r.reply(Bytes{0xff}); }},
      {"refused", refuse()},
      {"forged", [forged](ByteView, sim::Responder r) { r.reply(forged); }},
  };
  for (const auto& [what, handler] : answers) {
    SCOPED_TRACE(what);
    auto ff = warm();
    answer(*ff, ranked(*ff)[0], handler);
    const std::uint64_t hedges = ff->serving().metrics().hedges_launched;
    const LegLog log(ff->f, service());
    const auto record = ff->attach();
    EXPECT_TRUE(record.success) << record.failure;
    const auto launches = log.launches();
    ASSERT_EQ(launches.size(), first_legs() + 1);
    EXPECT_LT(launches.back() - launches.front(), ff->f.config.resilience.hedge_delay);
    // hedges_launched counts the ladder's legs after its primary, only.
    EXPECT_EQ(ff->serving().metrics().hedges_launched, hedges + (vector() ? 1 : 0));
  }
}

TEST_P(FanOutRules, RefusalsDoNotUseUpTheWidth) {
  // ResilienceConfig::none(): the ladder is one leg wide, and `hedge_width`
  // never caps the share round. Two of the three fastest backups refuse;
  // each refusal promotes one more backup, and the attach succeeds.
  core::FederationConfig cfg = Federation::test_config();
  cfg.resilience = core::ResilienceConfig::none();
  auto ff = warm(cfg, Federation::breakers_off());
  for (std::size_t i : {0, 1}) answer(*ff, ranked(*ff)[i], refuse());
  const LegLog log(ff->f, service());
  const auto record = ff->attach();
  EXPECT_TRUE(record.success) << record.failure;
  EXPECT_EQ(log.launches().size(), first_legs() + 2);
}

TEST_P(FanOutRules, NextHedgeGoesOutOneHedgeDelayAfterTheNewestLaunch) {
  // The fastest backup refuses 100 ms after it takes its leg, which
  // promotes the next one. The next `first_legs()` ranked backups take
  // their legs and never answer: the ladder's promoted one, or the share
  // round's two other first legs and its promoted one. The hedge timer
  // restarts at each launch: the first hedge goes out one hedge delay
  // after the promotion, not one after the round began, and each later
  // one a hedge delay after the one before.
  auto ff = warm();
  Federation& f = ff->f;
  const auto order = ranked(*ff);
  answer(*ff, order[0], [&f](ByteView, sim::Responder r) {
    f.simulator.after(ms(100), [r] { r.fail(sim::AppErrorCode::kNotFound, "refused"); });
  });
  for (std::size_t i = 1; i <= first_legs(); ++i) {
    answer(*ff, order[i], [](ByteView, sim::Responder) {});
  }
  const LegLog log(f, service());
  const auto record = ff->attach();
  EXPECT_TRUE(record.success) << record.failure;
  const auto launches = log.launches();
  ASSERT_GE(launches.size(), first_legs() + 2);
  EXPECT_GT(launches[first_legs()] - launches.front(), ms(100));  // the promotion
  for (std::size_t k = first_legs() + 1; k < launches.size(); ++k) {
    EXPECT_EQ(launches[k] - launches[k - 1], f.config.resilience.hedge_delay) << "leg " << k;
  }
}

TEST_P(FanOutRules, EveryBackupRefusingEndsTheAttachWithTheFanOutsText) {
  // Every backup refuses: each is asked once, since refusals never use up
  // the width, and the attach fails with its fan-out's exhaustion text.
  auto ff = warm();
  for (std::size_t i = 0; i < ff->backups.size(); ++i) answer(*ff, i, refuse());
  const std::uint64_t failed = ff->serving().metrics().attaches_failed;
  const LegLog log(ff->f, service());
  const auto record = ff->attach();
  EXPECT_FALSE(record.success);
  EXPECT_NE(record.failure.find(vector() ? "no backup vector: " : "insufficient key shares"),
            std::string::npos)
      << record.failure;
  EXPECT_EQ(log.launches().size(), ff->backups.size());
  EXPECT_EQ(ff->serving().metrics().attaches_failed, failed + 1);
}

}  // namespace
}  // namespace dauth::testing
