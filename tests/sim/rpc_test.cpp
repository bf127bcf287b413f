#include "sim/rpc.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstring>
#include <optional>
#include <vector>

#include "obs/tracer.h"

namespace dauth::sim {
namespace {

struct Fixture {
  Simulator s{1};
  Network net{s};
  NodeIndex client;
  NodeIndex server;
  Rpc rpc;

  explicit Fixture(RpcConfig config = {}) : rpc(net, config) {
    NodeConfig c;
    c.name = "client";
    c.access.base = ms(5);
    c.access_mbps = 0.0;
    client = net.add_node(c);
    c.name = "server";
    server = net.add_node(c);
  }

  void register_echo() {
    rpc.register_service(server, "echo", [](ByteView req, Responder r) {
      r.reply(to_bytes(req));
    });
  }
};

TEST(Rpc, EchoRoundTrip) {
  Fixture f;
  f.register_echo();

  Bytes reply;
  bool failed = false;
  f.rpc.call(f.client, f.server, "echo", to_bytes(as_bytes("ping")), {},
             [&](Bytes r) { reply = std::move(r); }, [&](RpcError) { failed = true; });
  f.s.run();
  EXPECT_FALSE(failed);
  EXPECT_EQ(reply, to_bytes(as_bytes("ping")));
  EXPECT_EQ(f.rpc.calls_succeeded(), 1u);
}

TEST(Rpc, ColdCallPaysHandshake) {
  Fixture f;
  f.register_echo();

  Time first_latency = 0, second_latency = 0;
  const Time start = f.s.now();
  f.rpc.call(f.client, f.server, "echo", {}, {}, [&](Bytes) {
    first_latency = f.s.now() - start;
    // Capture second_start by value: this outer callback's frame is gone by
    // the time the inner reply fires, so a by-reference capture would read a
    // dead stack slot (caught by the TSan pass in tools/check.sh).
    const Time second_start = f.s.now();
    f.rpc.call(f.client, f.server, "echo", {}, {},
               [&, second_start](Bytes) { second_latency = f.s.now() - second_start; },
               nullptr);
  }, nullptr);
  f.s.run();

  // One-way is 10ms. Cold: 2 handshake RTTs (40ms) + request + reply (20ms).
  // Warm: just request + reply.
  EXPECT_GE(first_latency, ms(58));
  EXPECT_LE(second_latency, ms(22));
  EXPECT_EQ(f.rpc.handshakes(), 1u);
}

TEST(Rpc, ConnectionReuseDisabledPaysEveryTime) {
  RpcConfig config;
  config.connection_reuse = false;
  Fixture f(config);
  f.register_echo();

  int done = 0;
  f.rpc.call(f.client, f.server, "echo", {}, {}, [&](Bytes) {
    ++done;
    f.rpc.call(f.client, f.server, "echo", {}, {}, [&](Bytes) { ++done; }, nullptr);
  }, nullptr);
  f.s.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(f.rpc.handshakes(), 2u);
}

TEST(Rpc, UnknownServiceFails) {
  Fixture f;
  RpcError error{RpcErrorCode::kTimeout, "", {}};
  bool got_error = false;
  f.rpc.call(f.client, f.server, "nope", {}, {}, nullptr, [&](RpcError e) {
    got_error = true;
    error = e;
  });
  f.s.run();
  EXPECT_TRUE(got_error);
  EXPECT_EQ(error.code, RpcErrorCode::kNoService);
}

TEST(Rpc, ServerOfflineTimesOut) {
  Fixture f;
  f.register_echo();
  f.net.node(f.server).set_online(false);

  RpcError error{RpcErrorCode::kNoService, "", {}};
  Time error_at = -1;
  RpcOptions options;
  options.timeout = sec(2);
  f.rpc.call(f.client, f.server, "echo", {}, options, nullptr, [&](RpcError e) {
    error = e;
    error_at = f.s.now();
  });
  f.s.run();
  EXPECT_EQ(error.code, RpcErrorCode::kTimeout);
  EXPECT_EQ(error_at, sec(2));
  EXPECT_EQ(f.rpc.calls_timed_out(), 1u);
}

TEST(Rpc, CallerOfflineFailsImmediately) {
  Fixture f;
  f.register_echo();
  f.net.node(f.client).set_online(false);

  RpcError error{RpcErrorCode::kTimeout, "", {}};
  f.rpc.call(f.client, f.server, "echo", {}, {}, nullptr, [&](RpcError e) { error = e; });
  f.s.run();
  EXPECT_EQ(error.code, RpcErrorCode::kUnreachable);
}

TEST(Rpc, HandlerCanFail) {
  Fixture f;
  f.rpc.register_service(f.server, "deny", [](ByteView, Responder r) {
    r.fail(AppErrorCode::kUnauthorized, "not authorized");
  });
  RpcError error{RpcErrorCode::kTimeout, "", {}};
  f.rpc.call(f.client, f.server, "deny", {}, {}, nullptr, [&](RpcError e) { error = e; });
  f.s.run();
  EXPECT_EQ(error.code, RpcErrorCode::kRejected);
  EXPECT_EQ(error.message, "not authorized");
}

TEST(Rpc, AsyncHandlerRepliesLater) {
  Fixture f;
  f.rpc.register_service(f.server, "slow", [&](ByteView, Responder r) {
    f.s.after(ms(100), [r] { r.reply(to_bytes(as_bytes("late"))); });
  });
  Bytes reply;
  f.rpc.call(f.client, f.server, "slow", {}, {}, [&](Bytes r) { reply = std::move(r); },
             nullptr);
  f.s.run();
  EXPECT_EQ(reply, to_bytes(as_bytes("late")));
}

TEST(Rpc, SlowHandlerHitsTimeoutAndLateReplyIsIgnored) {
  Fixture f;
  f.rpc.register_service(f.server, "slow", [&](ByteView, Responder r) {
    f.s.after(sec(10), [r] { r.reply({}); });
  });
  bool got_reply = false;
  bool got_error = false;
  RpcOptions options;
  options.timeout = sec(1);
  f.rpc.call(f.client, f.server, "slow", {}, options, [&](Bytes) { got_reply = true; },
             [&](RpcError) { got_error = true; });
  f.s.run();
  EXPECT_FALSE(got_reply);
  EXPECT_TRUE(got_error);
}

TEST(Rpc, ServerQueueingDelaysConcurrentCalls) {
  Fixture f;
  // Server with one slow worker.
  NodeConfig c;
  c.name = "busy";
  c.access.base = ms(1);
  c.access_mbps = 0.0;
  c.workers = 1;
  const NodeIndex busy = f.net.add_node(c);
  f.rpc.register_service(busy, "work", [&](ByteView, Responder r) {
    f.net.node(busy).execute(ms(50), [r] { r.reply({}); });
  });

  std::vector<Time> completions;
  for (int i = 0; i < 3; ++i) {
    f.rpc.call(f.client, busy, "work", {}, {}, [&](Bytes) { completions.push_back(f.s.now()); },
               nullptr);
  }
  f.s.run();
  ASSERT_EQ(completions.size(), 3u);
  // Each call's 50ms of work is serialized on the single worker.
  EXPECT_GE(completions[2] - completions[0], ms(95));
}

TEST(Rpc, ForceNewConnectionOptionBypassesCache) {
  Fixture f;
  f.register_echo();
  int done = 0;
  sim::RpcOptions fresh;
  fresh.force_new_connection = true;
  // Two forced-fresh calls: two handshakes, nothing cached.
  f.rpc.call(f.client, f.server, "echo", {}, fresh, [&](Bytes) {
    ++done;
    f.rpc.call(f.client, f.server, "echo", {}, fresh, [&](Bytes) {
      ++done;
      // A normal call afterwards STILL has no cached connection.
      f.rpc.call(f.client, f.server, "echo", {}, {}, [&](Bytes) { ++done; }, nullptr);
    }, nullptr);
  }, nullptr);
  f.s.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(f.rpc.handshakes(), 3u);
}

TEST(Rpc, ResetConnectionsForcesRehandshake) {
  Fixture f;
  f.register_echo();
  int done = 0;
  f.rpc.call(f.client, f.server, "echo", {}, {}, [&](Bytes) {
    ++done;
    f.rpc.reset_connections(f.server);
    f.rpc.call(f.client, f.server, "echo", {}, {}, [&](Bytes) { ++done; }, nullptr);
  }, nullptr);
  f.s.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(f.rpc.handshakes(), 2u);
}

// ---- call lifecycle: an attempt's events count only while it is open ----

TEST(RpcLifecycle, TimedOutAttemptsLateReplyIsDroppedDuringBackoff) {
  Fixture f;
  // The first request is answered after the attempt has timed out, inside
  // the retry backoff; the second is answered at once.
  int handled = 0;
  f.rpc.register_service(f.server, "slow-once", [&](ByteView, Responder r) {
    if (++handled == 1) {
      f.s.after(ms(170), [r] { r.reply(to_bytes(as_bytes("first"))); });
    } else {
      r.reply(to_bytes(as_bytes("second")));
    }
  });
  RpcOptions options;
  options.timeout = ms(200);  // attempt 1: handshake 40ms, reply lands ~230ms
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = ms(500);  // attempt 2 starts at 700ms
  options.retry.jitter = 0.0;

  std::vector<std::pair<Time, Bytes>> replies;
  int errors = 0;
  f.rpc.call(f.client, f.server, "slow-once", {}, options,
             [&](Bytes r) { replies.emplace_back(f.s.now(), std::move(r)); },
             [&](RpcError) { ++errors; });
  f.s.run();

  EXPECT_EQ(handled, 2);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second, to_bytes(as_bytes("second")));
  EXPECT_GE(replies[0].first, ms(700));
  EXPECT_EQ(f.rpc.calls_started(), 2u);
  EXPECT_EQ(f.rpc.calls_timed_out(), 1u);
  EXPECT_EQ(f.rpc.calls_succeeded(), 1u);
  EXPECT_EQ(f.rpc.retries(), 1u);
}

TEST(RpcLifecycle, RequestArrivingAfterItsAttemptTimedOutNeverRunsTheHandler) {
  Fixture f;
  int handled = 0;
  f.rpc.register_service(f.server, "echo", [&](ByteView req, Responder r) {
    ++handled;
    r.reply(to_bytes(req));
  });
  // Handshake 40ms, then 10ms on the wire: the request lands at 50ms, after
  // the 45ms attempt timeout.
  std::optional<RpcError> error;
  f.rpc.call(f.client, f.server, "echo", {}, RpcOptions::oneshot(ms(45)), nullptr,
             [&](RpcError e) { error = std::move(e); });
  f.s.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, RpcErrorCode::kTimeout);
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(f.net.node(f.server).jobs_completed(), 0u);
}

TEST(RpcLifecycle, CancelledAttemptSpanEndsFailedAndCancelled) {
  Fixture f;
  obs::Tracer tracer([&f] { return f.s.now(); }, &f.s.rng());
  f.rpc.set_tracer(&tracer);
  f.net.node(f.server).set_online(false);

  bool any_callback = false;
  const CallHandle handle =
      f.rpc.call(f.client, f.server, "echo", {}, RpcOptions::oneshot(sec(2)),
                 [&](Bytes) { any_callback = true; }, [&](RpcError) { any_callback = true; });
  f.s.at(ms(100), [&] { handle.cancel(); });
  f.s.run();
  f.rpc.set_tracer(nullptr);

  EXPECT_FALSE(any_callback);
  EXPECT_EQ(f.rpc.calls_timed_out(), 0u);  // the pending timeout no longer counts
  const obs::Span* attempt = nullptr;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name == "rpc:echo") attempt = &span;
  }
  ASSERT_NE(attempt, nullptr);
  EXPECT_TRUE(attempt->finished());
  EXPECT_EQ(attempt->end, ms(100));
  EXPECT_FALSE(attempt->ok);
  bool cancelled = false;
  for (const obs::Attr& attr : attempt->attrs) {
    cancelled |= std::strcmp(attr.name, "cancelled") == 0 && attr.value.as_bool();
  }
  EXPECT_TRUE(cancelled);
}

TEST(RpcLifecycle, LegsHeldByTheirOwnCallbacksAreFreedWithTheSimulation) {
  // A hedge keeps its legs' handles in state its legs' callbacks capture.
  // The handles must not own the calls, or a leg still pending when the
  // simulation is torn down and that state would keep each other alive.
  struct Hedge {
    std::vector<CallHandle> legs;
  };
  std::weak_ptr<Hedge> watch;
  {
    Fixture f;
    f.net.node(f.server).set_online(false);
    auto hedge = std::make_shared<Hedge>();
    watch = hedge;
    for (int i = 0; i < 2; ++i) {
      hedge->legs.push_back(f.rpc.call(f.client, f.server, "echo", {},
                                       RpcOptions::oneshot(sec(1)), [hedge](Bytes) {},
                                       [hedge](RpcError) {}));
    }
    hedge->legs[0].cancel();
    hedge.reset();
    EXPECT_FALSE(watch.expired());  // the pending leg still holds it
  }
  EXPECT_TRUE(watch.expired());
}

TEST(RpcLifecycle, LastAttemptsHandlerHoldsTheOnlyCopyOfItsRequest) {
#ifdef DAUTH_SANITIZE
  GTEST_SKIP() << "sanitizer allocators replace malloc";
#else
  // A one-shot call whose handler defers its reply, as the home's report
  // handler does for the proofs it charges: once the handler has run, the
  // request's bytes are gone, not kept by the call until the reply.
  Fixture f;
  std::optional<Responder> deferred;
  std::size_t received = 0;
  f.rpc.register_service(f.server, "defer", [&](ByteView request, Responder r) {
    received = request.size();
    deferred = std::move(r);
  });
  // Heap in use: a 1 MiB request is above glibc's mmap threshold, so it is
  // one mmapped block while it lives.
  const auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  constexpr std::size_t kRequestBytes = 1 << 20;
  const std::size_t before = heap_in_use();
  std::optional<Bytes> reply;
  f.rpc.call(f.client, f.server, "defer", Bytes(kRequestBytes, 0x5a),
             RpcOptions::oneshot(sec(2)), [&](Bytes r) { reply = std::move(r); }, nullptr);
  f.s.run_until(ms(500));
  ASSERT_EQ(received, kRequestBytes);
  ASSERT_TRUE(deferred.has_value());
  EXPECT_LT(heap_in_use(), before + kRequestBytes / 16) << "the request outlived its handler";

  deferred->reply(to_bytes(as_bytes("done")));
  f.s.run();
  EXPECT_EQ(reply, to_bytes(as_bytes("done")));
#endif
}

TEST(RpcLifecycle, EarlierAttemptHandledLateLeavesTheLastAttemptsRequestIntact) {
  // Attempt 1 waits in the server's queue past its timeout, so the retry,
  // attempt 2 of 2, is sent and queued behind it. Attempt 1's handler runs
  // first, and must leave attempt 2 its request: only the last possible
  // attempt takes the request over.
  Fixture f;
  NodeConfig c;
  c.name = "busy";
  c.access.base = ms(5);
  c.access_mbps = 0.0;
  c.workers = 1;
  const NodeIndex busy = f.net.add_node(c);
  std::vector<Bytes> handled;
  f.rpc.register_service(busy, "echo", [&](ByteView request, Responder r) {
    handled.push_back(to_bytes(request));
    r.reply(to_bytes(request));
  });
  f.net.node(busy).execute(ms(300), [] {});  // the worker is busy until 300ms

  RpcOptions options;
  options.timeout = ms(250);  // attempt 1 lands at ~50ms and times out at 250ms
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = ms(10);  // attempt 2 lands at ~270ms
  options.retry.jitter = 0.0;
  const Bytes request = to_bytes(as_bytes("intact"));
  std::optional<Bytes> reply;
  int errors = 0;
  f.rpc.call(f.client, busy, "echo", request, options, [&](Bytes r) { reply = std::move(r); },
             [&](RpcError) { ++errors; });
  f.s.run();

  EXPECT_EQ(f.rpc.retries(), 1u);
  ASSERT_EQ(handled.size(), 2u);
  EXPECT_EQ(handled[0], request);
  EXPECT_EQ(handled[1], request);
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(reply, request);
}

}  // namespace
}  // namespace dauth::sim
