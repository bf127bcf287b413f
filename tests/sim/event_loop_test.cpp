#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <vector>

namespace dauth::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  Simulator s(1);
  std::vector<int> order;
  s.after(ms(30), [&] { order.push_back(3); });
  s.after(ms(10), [&] { order.push_back(1); });
  s.after(ms(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), ms(30));
  EXPECT_EQ(s.processed_events(), 3u);
}

TEST(EventLoop, SameTimeEventsAreFifo) {
  Simulator s(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.at(ms(5), [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  Simulator s(1);
  int counter = 0;
  std::function<void()> tick = [&] {
    if (++counter < 5) s.after(ms(1), tick);
  };
  s.after(ms(1), tick);
  s.run();
  EXPECT_EQ(counter, 5);
  EXPECT_EQ(s.now(), ms(5));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  Simulator s(1);
  int fired = 0;
  s.after(ms(10), [&] { ++fired; });
  s.after(ms(20), [&] { ++fired; });
  s.after(ms(30), [&] { ++fired; });

  s.run_until(ms(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), ms(20));

  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventLoop, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator s(1);
  s.run_until(sec(5));
  EXPECT_EQ(s.now(), sec(5));
}

TEST(EventLoop, SchedulingInPastThrows) {
  Simulator s(1);
  s.after(ms(10), [&] {
    EXPECT_THROW(s.at(ms(5), [] {}), std::logic_error);
  });
  s.run();
}

TEST(EventLoop, ZeroDelayRunsAtCurrentTime) {
  Simulator s(1);
  bool ran = false;
  s.after(ms(7), [&] {
    s.after(0, [&] {
      ran = true;
      EXPECT_EQ(s.now(), ms(7));
    });
  });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, DeterministicRngAcrossRuns) {
  Simulator a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.rng().next(), b.rng().next());
}

}  // namespace
}  // namespace dauth::sim
