// Unit tests for core::PeerRtt, the smoothed per-backup RTT estimate that
// ranks the share legs and the vector-fetch candidates.
#include <gtest/gtest.h>

#include "core/serving_network.h"

namespace dauth::core {
namespace {

TEST(PeerRtt, FirstSampleSeedsThenQuarterGainSmooths) {
  PeerRtt rtt;
  EXPECT_FALSE(rtt.estimate(3).has_value());
  rtt.observe(3, ms(40), 0);
  EXPECT_EQ(rtt.estimate(3), ms(40));
  rtt.observe(3, ms(80), 0);  // 40 + (80 - 40) / 4
  EXPECT_EQ(rtt.estimate(3), ms(50));
  rtt.observe(3, ms(10), 0);  // 50 + (10 - 50) / 4
  EXPECT_EQ(rtt.estimate(3), ms(40));
  EXPECT_FALSE(rtt.estimate(4).has_value());  // peers are independent
}

TEST(PeerRtt, OneTimeoutSampleOutweighsAFastHistory) {
  PeerRtt rtt;
  for (int i = 0; i < 20; ++i) {
    rtt.observe(1, ms(8), 0);
    rtt.observe(2, ms(60), 0);
  }
  EXPECT_TRUE(rtt.before(1, 2));
  rtt.observe(1, sec(2), 0);  // a share leg that timed out
  EXPECT_TRUE(rtt.before(2, 1));
}

TEST(PeerRtt, UnsampledRanksLastAndTiesKeepOrder) {
  PeerRtt rtt;
  EXPECT_FALSE(rtt.before(1, 2));  // both unsampled: keep the order
  EXPECT_FALSE(rtt.before(2, 1));
  rtt.observe(1, sec(2), 0);          // even a timed-out sample
  EXPECT_TRUE(rtt.before(1, 2));   // sampled 1 ranks before unsampled 2
  EXPECT_FALSE(rtt.before(2, 1));
  rtt.observe(2, sec(2), 0);
  EXPECT_FALSE(rtt.before(1, 2));  // tie: neither moves
  EXPECT_FALSE(rtt.before(2, 1));
}

TEST(PeerRtt, SampleStaysFreshForTheAgeBound) {
  PeerRtt rtt;
  EXPECT_FALSE(rtt.fresh(1, 0));  // unsampled
  rtt.observe(1, ms(200), sec(1));
  EXPECT_TRUE(rtt.fresh(1, sec(1) + PeerRtt::kMaxAge));  // the bound is inclusive
  EXPECT_FALSE(rtt.fresh(1, sec(1) + PeerRtt::kMaxAge + 1));
  // A stale estimate still ranks, and the next sample refreshes it.
  rtt.observe(2, ms(50), sec(1));
  EXPECT_TRUE(rtt.before(2, 1));
  EXPECT_TRUE(rtt.before(1, 3));
  rtt.observe(1, ms(40), sec(20));  // stale: the sample replaces the estimate
  EXPECT_TRUE(rtt.fresh(1, sec(20)));
  EXPECT_EQ(rtt.estimate(1), ms(40));
  rtt.observe(1, ms(80), sec(20) + PeerRtt::kMaxAge);  // still fresh: 40 + (80 - 40) / 4
  EXPECT_EQ(rtt.estimate(1), ms(50));
}

}  // namespace
}  // namespace dauth::core
