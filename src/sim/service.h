// The typed RPC boundary: each service declared once, both ends derived.
//
// In the paper's Rust/Tonic prototype (§5.1) a gRPC service names its
// request and reply types once, and the client stub and the server handler
// are both generated from that declaration. Here a service is one constant,
//
//   inline constexpr sim::Service<UsageProof, ShareReply> kBackupGetShare{"backup.get_share"};
//
// declared next to its messages, and both ends of every call derive from it:
//   * TypedStub<Req, Rsp> encodes a Req with wire::encode, issues it through
//     Rpc::call (retries, deadline budget, breaker gating per RpcOptions)
//     and hands back a CallResult<Rsp>: a decoded reply, or a structured
//     RpcError. A reply that does not decode is kBadReply, never retried.
//   * serve() registers a handler that receives a decoded Req, moved in, and
//     a TypedResponder<Rsp> that encodes the reply. A request frame that does
//     not decode is answered kMalformed here, once for every service, and
//     reported to `on_malformed` (the roles count it).
// Every message is a wire field list (wire/writer.h); Ack is the empty one.
//
// Header-only: the libraries that declare services (aka, directory, core,
// baseline) sit above sim, and nothing here needs its own translation unit.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/rpc.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::sim {

/// One RPC service: its name and its (request, reply) pair. The name must
/// outlive every stub and registration made from it (a string literal).
template <typename Req, typename Rsp>
struct Service {
  std::string_view name;
};

/// The empty message, for requests and replies with no body.
struct Ack {
  template <typename F, typename Self>
  static void fields(F&, Self&) {}
};

/// Result of a typed call: a decoded reply or a structured error.
template <typename Rsp>
class CallResult {
 public:
  static CallResult success(Rsp value) {
    CallResult result;
    result.value_ = std::move(value);
    return result;
  }
  static CallResult failure(RpcError error) {
    CallResult result;
    result.error_ = std::move(error);
    return result;
  }

  bool ok() const noexcept { return value_.has_value(); }

  Rsp& value() { return *value_; }
  const Rsp& value() const { return *value_; }
  Rsp* operator->() { return &*value_; }
  const Rsp* operator->() const { return &*value_; }

  const RpcError& error() const { return *error_; }
  /// The handler's structured rejection, when it sent one.
  const std::optional<AppError>& app_error() const { return error_->app; }

 private:
  CallResult() = default;
  std::optional<Rsp> value_;
  std::optional<RpcError> error_;
};

/// The client end of one service, calling from node `from`.
template <typename Req, typename Rsp>
class TypedStub {
 public:
  using Callback = std::function<void(CallResult<Rsp>)>;

  TypedStub(Rpc& rpc, NodeIndex from, const Service<Req, Rsp>& service)
      : rpc_(&rpc), from_(from), service_(service.name) {}

  /// Encode, call, decode. `callback` fires exactly once (unless the
  /// returned handle is cancelled first).
  ///
  /// With a tracer installed this wraps the whole call (all attempts,
  /// backoffs, breaker waits) in one logical "call:<service>" span; the
  /// per-attempt "rpc:<service>" spans land underneath it.
  CallHandle call(NodeIndex to, const Req& request, const RpcOptions& options,
                  Callback callback, ResilienceObserver observer = {}) const {
    const std::string service(service_);
    obs::TraceContext call_span{};
    RpcOptions traced_options = options;
    if (obs::Tracer* tracer = rpc_->tracer(); tracer != nullptr) {
      call_span = tracer->start_span("call:" + service, options.trace_parent);
      traced_options.trace_parent = call_span;
    }
    const auto end_call_span = [rpc = rpc_, call_span](bool ok) {
      if (obs::Tracer* tracer = rpc->tracer(); tracer != nullptr && call_span.valid()) {
        tracer->end_span(call_span, ok);
      }
    };
    return rpc_->call(
        from_, to, service, wire::encode(request), traced_options,
        [callback, end_call_span, service](Bytes reply) {
          std::optional<Rsp> decoded;
          try {
            decoded = wire::decode<Rsp>(reply);
          } catch (const wire::WireError& e) {
            end_call_span(false);
            if (callback) {
              callback(CallResult<Rsp>::failure(
                  {RpcErrorCode::kBadReply, "bad " + service + " reply: " + e.what(), {}}));
            }
            return;
          }
          end_call_span(true);
          if (callback) callback(CallResult<Rsp>::success(std::move(*decoded)));
        },
        [callback, end_call_span](RpcError error) {
          end_call_span(false);
          if (callback) callback(CallResult<Rsp>::failure(std::move(error)));
        },
        std::move(observer));
  }

 private:
  Rpc* rpc_;
  NodeIndex from_;
  std::string_view service_;
};

/// The server end's answer to one request: exactly one of reply()/fail()
/// must be called, possibly after further asynchronous work.
template <typename Rsp>
class TypedResponder {
 public:
  explicit TypedResponder(Responder responder) : responder_(std::move(responder)) {}

  void reply(const Rsp& response) const { responder_.reply(wire::encode(response)); }
  void fail(AppErrorCode code, std::string detail) const {
    responder_.fail(code, std::move(detail));
  }

 private:
  Responder responder_;
};

/// Registers `handler` for `service` on `node`, overwriting any handler
/// there. The request frame is decoded once, here: one that does not decode
/// is rejected kMalformed and reported to `on_malformed`, and the handler
/// never runs.
template <typename Req, typename Rsp>
void serve(Rpc& rpc, NodeIndex node, const Service<Req, Rsp>& service,
           std::type_identity_t<std::function<void(Req, TypedResponder<Rsp>)>> handler,
           std::function<void()> on_malformed = {}) {
  rpc.register_service(
      node, std::string(service.name),
      [name = service.name, handler = std::move(handler),
       on_malformed = std::move(on_malformed)](ByteView frame, Responder responder) {
        Req request;
        try {
          request = wire::decode<Req>(frame);
        } catch (const wire::WireError&) {
          if (on_malformed) on_malformed();
          responder.fail(AppErrorCode::kMalformed, "malformed " + std::string(name));
          return;
        }
        handler(std::move(request), TypedResponder<Rsp>(std::move(responder)));
      });
}

}  // namespace dauth::sim
