// Simulated RPC layer with connection caching — the gRPC/Tonic stand-in.
//
// The paper's prototype (§5.1) calls out connection re-use between dAuth
// instances as a significant optimization: a cold call pays TCP+TLS
// handshake round-trips before the request even leaves, a warm call does
// not. This layer models exactly that, plus request/response transfer,
// server-side queueing (via Node::execute) and client-side timeouts.
// Handlers are asynchronous: a server may issue further RPCs (e.g. a
// serving network fanning out to backup networks) before responding.
//
// Every call runs the resilience substrate (docs/RESILIENCE.md): `call`
// drives retries with deterministic jittered backoff inside an overall
// deadline budget, and consults per-peer circuit breakers
// (sim/resilience.h) so known-down peers fail fast instead of burning a
// timeout. A call is one record whose attempts are numbered; an event of
// an attempt that is no longer open (a late reply, a request that lands
// after its timeout) is dropped. sim/service.h declares services and derives
// typed stubs and handlers on top of this byte-level layer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "obs/tracer.h"
#include "sim/network.h"
#include "sim/resilience.h"

namespace dauth::sim {

/// Transport-level outcome of a call. Only kTimeout / kUnreachable are
/// idempotent-safe to retry; kRejected is an authoritative application
/// answer and is never retried.
enum class RpcErrorCode {
  kTimeout,      // no response within the deadline
  kUnreachable,  // caller offline / link refused
  kNoService,    // no handler registered at the destination
  kRejected,     // application-level failure sent by the handler (see AppError)
  kCircuitOpen,  // failed fast: the peer's circuit breaker is open
  kBadReply,     // reply arrived but could not be decoded (sim/service.h)
};

/// Application-level failure taxonomy, carried inside kRejected replies so
/// callers branch on a code instead of string-matching error messages.
enum class AppErrorCode {
  kMalformed,     // request failed to decode
  kUnauthorized,  // signature / proof / constant-time check failed
  kNotFound,      // unknown user, network, GUTI, or context
  kExhausted,     // resource depleted (e.g. no vectors left for the user)
  kUnsupported,   // recognized but unserviceable request (e.g. revoked epoch)
  kUpstream,      // the handler's own dependency failed
};

struct AppError {
  AppErrorCode code;
  std::string detail;
};

struct RpcError {
  RpcErrorCode code;
  std::string message;
  /// Present iff code == kRejected: the handler's structured failure.
  std::optional<AppError> app;

  /// Safe to retry? Only transient transport failures qualify.
  bool retryable() const noexcept {
    return code == RpcErrorCode::kTimeout || code == RpcErrorCode::kUnreachable;
  }
};

const char* to_string(RpcErrorCode code) noexcept;
const char* to_string(AppErrorCode code) noexcept;

/// One documented options struct for every call path. Presets:
///   RpcOptions::oneshot(t)    — single attempt with timeout t (the default).
///   RpcOptions::durable(d)    — retry inside an overall deadline budget d,
///                               per-attempt timeouts carved from what's left.
struct RpcOptions {
  /// Per-attempt timeout (handshake + request + service + response).
  Time timeout = sec(5);
  /// Overall budget across attempts and backoffs; 0 = per-attempt only.
  Time deadline = 0;
  /// Retry schedule for transient failures.
  RetryPolicy retry = RetryPolicy::none();
  /// Consult the per-peer circuit breaker.
  bool use_breaker = true;
  /// Pay the connection handshake on THIS call and do not cache the
  /// connection — models stacks that open a fresh transport per request
  /// (the paper contrasts dAuth's persistent connections with Open5GS's
  /// on-demand S6a/N12 connections, §6.3.2).
  bool force_new_connection = false;
  /// Tracing (docs/OBSERVABILITY.md): parent span for the spans this call
  /// records. Invalid (the default) falls back to the tracer's ambient
  /// context; ignored entirely while no tracer is installed.
  obs::TraceContext trace_parent{};

  static RpcOptions oneshot(Time timeout = sec(5)) {
    RpcOptions options;
    options.timeout = timeout;
    return options;
  }

  /// Retry until `deadline` is spent. Each attempt's timeout is the smaller
  /// of deadline/max_attempts and the remaining budget.
  static RpcOptions durable(Time deadline, RetryPolicy retry = {}) {
    RpcOptions options;
    options.deadline = deadline;
    options.retry = retry;
    options.timeout = deadline / (retry.max_attempts > 0 ? retry.max_attempts : 1);
    return options;
  }
};

/// Handed to a service handler; exactly one of reply()/fail() must be called
/// (eventually — the handler may hold onto it across further async work).
class Responder {
 public:
  /// The reply bytes, or the rejection (nullopt for a reply).
  using ReplyFn = std::function<void(Bytes, std::optional<AppError>)>;

  explicit Responder(std::shared_ptr<ReplyFn> fn) : fn_(std::move(fn)) {}

  void reply(Bytes data) const { (*fn_)(std::move(data), std::nullopt); }
  void fail(AppError error) const { (*fn_)({}, std::move(error)); }
  void fail(AppErrorCode code, std::string detail) const {
    fail(AppError{code, std::move(detail)});
  }

 private:
  std::shared_ptr<ReplyFn> fn_;
};

using ServiceHandler = std::function<void(ByteView request, Responder responder)>;
using ReplyCallback = std::function<void(Bytes reply)>;
using ErrorCallback = std::function<void(RpcError error)>;

/// Events the policy layer surfaces to interested callers (the serving
/// network turns these into ServingMetrics counters).
enum class ResilienceEvent {
  kRetry,          // an attempt failed transiently and will be re-issued
  kBreakerOpen,    // a failure tripped a circuit closed -> open
  kBreakerSkip,    // a call failed fast because the circuit was open
  kHalfOpenProbe,  // an open circuit admitted its recovery probe
};

using ResilienceObserver = std::function<void(ResilienceEvent event)>;

class CallHandle;

struct RpcConfig {
  /// Round trips needed to establish a connection (TCP + TLS 1.3 ≈ 2).
  int handshake_rtts = 2;
  /// Server-side cost to accept+decode a request on the reference CPU.
  Time server_base_cost = us(120);
  /// Re-use established connections between node pairs (paper §5.1 opt. 1).
  bool connection_reuse = true;
  /// Per-peer circuit breaker tuning (calls with RpcOptions::use_breaker).
  CircuitBreakerConfig breaker;
};

class Rpc {
 public:
  Rpc(Network& network, RpcConfig config = {})
      : network_(network), config_(config), breakers_(config.breaker) {}

  /// Registers a named service on a node. Overwrites any existing handler
  /// and returns it (empty when there was none), so a caller can wrap it.
  ServiceHandler register_service(NodeIndex node, std::string service, ServiceHandler handler);

  /// Issues one asynchronous call. Exactly one of on_reply / on_error fires
  /// (unless the handle is cancelled first). Retries transient failures
  /// (kTimeout/kUnreachable) per options.retry with jittered backoff drawn
  /// from the sim RNG, carves per-attempt timeouts from options.deadline,
  /// and, with options.use_breaker, consults the per-peer circuit breaker
  /// (fails fast with kCircuitOpen while it is open).
  CallHandle call(NodeIndex from, NodeIndex to, const std::string& service, Bytes request,
                  const RpcOptions& options, ReplyCallback on_reply, ErrorCallback on_error,
                  ResilienceObserver observer = {});

  /// Drops all cached connections involving `node` (e.g. after it fails).
  void reset_connections(NodeIndex node);

  const RpcConfig& config() const noexcept { return config_; }

  CircuitBreakerSet& breakers() noexcept { return breakers_; }
  const CircuitBreakerSet& breakers() const noexcept { return breakers_; }

  /// Installs (or removes, with nullptr) the span recorder. Off by default;
  /// every tracing site guards on the pointer, so the disabled path costs
  /// one branch. The tracer must outlive in-flight calls.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  obs::Tracer* tracer() const noexcept { return tracer_; }

  std::uint64_t calls_started() const noexcept { return calls_started_; }
  std::uint64_t calls_succeeded() const noexcept { return calls_succeeded_; }
  std::uint64_t calls_timed_out() const noexcept { return calls_timed_out_; }
  std::uint64_t handshakes() const noexcept { return handshakes_; }
  std::uint64_t retries() const noexcept { return retries_; }

  Network& network() noexcept { return network_; }

 private:
  friend class CallHandle;
  struct Call;
  using Outcome = std::variant<Bytes, RpcError>;

  void attempt(const std::shared_ptr<Call>& call);
  void send_request(const std::shared_ptr<Call>& call, int attempt);
  void end_attempt(const std::shared_ptr<Call>& call, int attempt, Outcome outcome);
  void settle(Call& call, Outcome outcome);
  void cancel(Call& call);

  Network& network_;
  RpcConfig config_;
  CircuitBreakerSet breakers_;
  obs::Tracer* tracer_ = nullptr;
  std::map<std::pair<NodeIndex, std::string>, ServiceHandler> services_;
  std::set<std::pair<NodeIndex, NodeIndex>> connections_;
  std::uint64_t calls_started_ = 0;
  std::uint64_t calls_succeeded_ = 0;
  std::uint64_t calls_timed_out_ = 0;
  std::uint64_t handshakes_ = 0;
  std::uint64_t retries_ = 0;
};

/// Cancellable reference to an in-flight call. cancel() suppresses both
/// callbacks, pending retries and the timeout accounting — the mechanism
/// behind hedged-request loser cancellation. The handle does not own the
/// call (its pending events do), so a handle held in a call's own callback
/// captures, as a hedge's legs are, forms no cycle.
class CallHandle {
 public:
  CallHandle() = default;

  void cancel() const;

 private:
  friend class Rpc;
  CallHandle(Rpc* rpc, std::weak_ptr<Rpc::Call> call) : rpc_(rpc), call_(std::move(call)) {}
  Rpc* rpc_ = nullptr;
  std::weak_ptr<Rpc::Call> call_;
};

}  // namespace dauth::sim
