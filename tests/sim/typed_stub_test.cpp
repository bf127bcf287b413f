// The typed boundary (sim/service.h): stubs encode and decode through one
// service declaration, structured AppErrors survive the round trip, an
// undecodable reply is kBadReply, and serve() rejects an undecodable
// request frame kMalformed before its handler runs.
#include "sim/service.h"

#include <gtest/gtest.h>

namespace dauth::sim {
namespace {

struct Ping {
  std::uint64_t value = 0;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.value);
  }
};

constexpr Service<Ping, Ping> kDouble{"double"};
constexpr Service<Ack, Ack> kPing{"ping"};
constexpr Service<Ack, Ping> kGarbage{"garbage"};
constexpr Service<Ack, Ping> kDeny{"deny"};
constexpr Service<Ack, Ping> kAnything{"anything"};

struct Fixture {
  Simulator s{1};
  Network net{s};
  NodeIndex client;
  NodeIndex server;
  Rpc rpc{net};

  Fixture() {
    NodeConfig c;
    c.name = "client";
    c.access.base = ms(5);
    client = net.add_node(c);
    c.name = "server";
    server = net.add_node(c);
  }
};

TEST(TypedStub, RoundTripsTypedPayloads) {
  Fixture f;
  serve(f.rpc, f.server, kDouble, [](Ping ping, TypedResponder<Ping> r) {
    ping.value *= 2;
    r.reply(ping);
  });

  std::optional<std::uint64_t> doubled;
  TypedStub(f.rpc, f.client, kDouble)
      .call(f.server, Ping{21}, RpcOptions::oneshot(), [&](CallResult<Ping> result) {
        ASSERT_TRUE(result.ok());
        doubled = result->value;
      });
  f.s.run();
  EXPECT_EQ(doubled, 42u);
}

TEST(TypedStub, AckServicesNeedNoPayload) {
  Fixture f;
  bool served = false;
  f.rpc.register_service(f.server, "ping", [&](ByteView req, Responder r) {
    served = true;
    EXPECT_TRUE(req.empty());
    r.reply({});
  });

  bool ok = false;
  TypedStub(f.rpc, f.client, kPing)
      .call(f.server, Ack{}, RpcOptions::oneshot(),
            [&](CallResult<Ack> result) { ok = result.ok(); });
  f.s.run();
  EXPECT_TRUE(served);
  EXPECT_TRUE(ok);
}

TEST(TypedStub, UndecodableReplyIsBadReplyNotSuccess) {
  Fixture f;
  f.rpc.register_service(f.server, "garbage", [](ByteView, Responder r) {
    r.reply(to_bytes(as_bytes("not a Ping")));
  });

  std::optional<RpcError> error;
  TypedStub(f.rpc, f.client, kGarbage)
      .call(f.server, Ack{}, RpcOptions::oneshot(), [&](CallResult<Ping> result) {
        ASSERT_FALSE(result.ok());
        error = result.error();
      });
  f.s.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, RpcErrorCode::kBadReply);
  // A protocol-level failure names the service so logs are actionable.
  EXPECT_NE(error->message.find("garbage"), std::string::npos);
}

TEST(TypedStub, StructuredRejectionsSurviveTheRoundTrip) {
  Fixture f;
  serve(f.rpc, f.server, kDeny, [](Ack, TypedResponder<Ping> r) {
    r.fail(AppErrorCode::kNotFound, "unknown user");
  });

  std::optional<CallResult<Ping>> result;
  TypedStub(f.rpc, f.client, kDeny)
      .call(f.server, Ack{}, RpcOptions::oneshot(),
            [&](CallResult<Ping> r) { result = std::move(r); });
  f.s.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->ok());
  EXPECT_EQ(result->error().code, RpcErrorCode::kRejected);
  ASSERT_TRUE(result->app_error().has_value());
  EXPECT_EQ(result->app_error()->code, AppErrorCode::kNotFound);
  EXPECT_EQ(result->app_error()->detail, "unknown user");
}

TEST(TypedStub, TransportErrorsPassThrough) {
  Fixture f;
  f.net.node(f.server).set_online(false);

  std::optional<RpcError> error;
  TypedStub(f.rpc, f.client, kAnything)
      .call(f.server, Ack{}, RpcOptions::oneshot(ms(500)), [&](CallResult<Ping> result) {
        ASSERT_FALSE(result.ok());
        error = result.error();
      });
  f.s.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, RpcErrorCode::kTimeout);
  EXPECT_FALSE(error->app.has_value());
}

TEST(Serve, UndecodableRequestIsMalformedAndNeverReachesTheHandler) {
  Fixture f;
  int handled = 0;
  int malformed = 0;
  serve(
      f.rpc, f.server, kDouble,
      [&](Ping ping, TypedResponder<Ping> r) {
        ++handled;
        r.reply(ping);
      },
      [&] { ++malformed; });

  // A truncated Ping, a Ping with a trailing byte, and a valid Ping.
  const Bytes valid = wire::encode(Ping{7});
  Bytes long_frame = valid;
  long_frame.push_back(0);
  std::vector<std::optional<AppError>> errors;
  for (const Bytes& frame : {Bytes(valid.begin(), valid.end() - 1), long_frame, valid}) {
    f.rpc.call(
        f.client, f.server, "double", frame, RpcOptions::oneshot(),
        [&](Bytes) { errors.emplace_back(); }, [&](RpcError e) { errors.push_back(e.app); });
    f.s.run();
  }
  ASSERT_EQ(errors.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(errors[i].has_value()) << i;
    EXPECT_EQ(errors[i]->code, AppErrorCode::kMalformed) << i;
    EXPECT_EQ(errors[i]->detail, "malformed double") << i;
  }
  EXPECT_FALSE(errors[2].has_value());
  EXPECT_EQ(malformed, 2);
  EXPECT_EQ(handled, 1);
}

}  // namespace
}  // namespace dauth::sim
