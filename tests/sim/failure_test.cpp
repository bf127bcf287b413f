#include "sim/failure.h"

#include <gtest/gtest.h>

namespace dauth::sim {
namespace {

NodeConfig basic(const std::string& name) {
  NodeConfig c;
  c.name = name;
  c.access.base = ms(1);
  return c;
}

TEST(Failure, ScheduledOutageTogglesNode) {
  Simulator s(1);
  Network net(s);
  const NodeIndex n = net.add_node(basic("n"));
  FailureInjector injector(net);
  injector.schedule_outage(n, sec(10), sec(5));

  s.run_until(sec(9));
  EXPECT_TRUE(net.node(n).online());
  s.run_until(sec(12));
  EXPECT_FALSE(net.node(n).online());
  s.run_until(sec(16));
  EXPECT_TRUE(net.node(n).online());
}

TEST(Failure, DowntimeAccounting) {
  Simulator s(1);
  Network net(s);
  const NodeIndex n = net.add_node(basic("n"));
  FailureInjector injector(net);
  injector.schedule_outage(n, sec(10), sec(5));
  injector.schedule_outage(n, sec(100), sec(15));

  EXPECT_EQ(injector.downtime(n), sec(20));
  EXPECT_DOUBLE_EQ(injector.availability(n, sec(200)), 0.9);
  EXPECT_EQ(injector.outages(n).size(), 2u);
}

TEST(Failure, UnknownNodeHasNoDowntime) {
  Simulator s(1);
  Network net(s);
  const NodeIndex n = net.add_node(basic("n"));
  FailureInjector injector(net);
  EXPECT_EQ(injector.downtime(n), 0);
  EXPECT_DOUBLE_EQ(injector.availability(n, sec(100)), 1.0);
  EXPECT_TRUE(injector.outages(n).empty());
}

TEST(Failure, RandomOutagesMatchRequestedAvailability) {
  Simulator s(99);
  Network net(s);
  const NodeIndex n = net.add_node(basic("n"));
  FailureInjector injector(net);

  // MTBF 10 days, MTTR ~7h -> availability ≈ 240/(240+7) ≈ 0.97.
  const Time horizon = 365 * kDay;
  const auto outages = injector.schedule_random_outages(n, 10 * kDay, hours(7), horizon);
  EXPECT_GT(outages.size(), 10u);
  const double availability = injector.availability(n, horizon);
  EXPECT_GT(availability, 0.93);
  EXPECT_LT(availability, 0.995);
}

TEST(Failure, RandomOutagesStayInsideHorizon) {
  Simulator s(5);
  Network net(s);
  const NodeIndex n = net.add_node(basic("n"));
  FailureInjector injector(net);
  const Time horizon = 30 * kDay;
  const auto outages = injector.schedule_random_outages(n, kDay, hours(12), horizon);
  for (const Outage& o : outages) {
    EXPECT_LT(o.start, horizon);
    EXPECT_LE(o.start + o.duration, horizon);
  }
}

TEST(Failure, OutageResetsRpcConnections) {
  Simulator s(1);
  Network net(s);
  const NodeIndex a = net.add_node(basic("a"));
  const NodeIndex b = net.add_node(basic("b"));
  Rpc rpc(net);
  FailureInjector injector(net, &rpc);
  rpc.register_service(b, "echo", [](ByteView req, Responder r) { r.reply(to_bytes(req)); });

  int handshake_count_after = -1;
  // Ungated: the announced outage also opens a's circuit toward b.
  RpcOptions ungated;
  ungated.use_breaker = false;
  rpc.call(a, b, "echo", {}, ungated, [&](Bytes) {}, nullptr);
  // Take b down at 1s (drops cached connection), bring it back, call again.
  injector.schedule_outage(b, sec(1), sec(1));
  s.at(sec(3), [&] {
    rpc.call(a, b, "echo", {}, ungated, [&](Bytes) {
      handshake_count_after = static_cast<int>(rpc.handshakes());
    }, nullptr);
  });
  s.run();
  EXPECT_EQ(handshake_count_after, 2);  // had to re-handshake after the outage
}

}  // namespace
}  // namespace dauth::sim
