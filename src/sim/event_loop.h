// Discrete-event simulation core: a virtual clock and an event queue.
//
// The paper's evaluation ran on a 12-node physical testbed (Appendix C).
// We replace that testbed with a deterministic discrete-event simulator:
// every latency, service time and failure is an event on this loop, so a
// whole multi-network load test executes in milliseconds of real time and
// is exactly reproducible from its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace dauth::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed) : rng_(seed) {}

  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (>= now).
  void at(Time when, std::function<void()> fn);

  /// Schedules `fn` after `delay` from now.
  void after(Time delay, std::function<void()> fn) { at(now_ + delay, std::move(fn)); }

  /// Runs until the event queue is empty.
  void run();

  /// Runs all events scheduled at or before `deadline`; advances the clock
  /// to `deadline` even if the queue drains early.
  void run_until(Time deadline);

  std::size_t processed_events() const noexcept { return processed_; }

  /// Simulation-wide RNG. Events must draw all randomness here (or from
  /// generators forked from it) for reproducibility.
  Xoshiro256StarStar& rng() noexcept { return rng_; }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;  // tie-breaker: FIFO among same-time events
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Xoshiro256StarStar rng_;
};

}  // namespace dauth::sim
