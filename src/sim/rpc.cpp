#include "sim/rpc.h"

#include <algorithm>
#include <utility>

namespace dauth::sim {

const char* to_string(RpcErrorCode code) noexcept {
  switch (code) {
    case RpcErrorCode::kTimeout: return "timeout";
    case RpcErrorCode::kUnreachable: return "unreachable";
    case RpcErrorCode::kNoService: return "no-service";
    case RpcErrorCode::kRejected: return "rejected";
    case RpcErrorCode::kCircuitOpen: return "circuit-open";
    case RpcErrorCode::kBadReply: return "bad-reply";
  }
  return "unknown";
}

const char* to_string(AppErrorCode code) noexcept {
  switch (code) {
    case AppErrorCode::kMalformed: return "malformed";
    case AppErrorCode::kUnauthorized: return "unauthorized";
    case AppErrorCode::kNotFound: return "not-found";
    case AppErrorCode::kExhausted: return "exhausted";
    case AppErrorCode::kUnsupported: return "unsupported";
    case AppErrorCode::kUpstream: return "upstream";
  }
  return "unknown";
}

/// One call, across all its attempts. Attempts are numbered from 1; every
/// event an attempt schedules carries its number and is dropped unless it
/// belongs to the open attempt of a live call. The call is owned by those
/// pending events (and by a server's Responder), never by its CallHandle.
struct Rpc::Call {
  NodeIndex from;
  NodeIndex to;
  std::string service;
  /// Shared with a handler queued for one of its requests, so the call can
  /// drop it once over without copying it for each attempt; the last
  /// possible attempt's handler takes it over (send_request).
  std::shared_ptr<const Bytes> request;
  RpcOptions options;
  ReplyCallback on_reply;
  ErrorCallback on_error;
  ResilienceObserver observer;
  Time start = 0;
  /// Parent span resolved when the call is issued, so retries issued from
  /// timer callbacks (no ambient context) stay parented to the caller.
  obs::TraceContext parent{};
  /// The latest attempt's span ("rpc:<service>") when a tracer is installed.
  obs::TraceContext span{};
  int attempts = 0;    // attempts issued; the latest is number `attempts`
  int open = 0;        // number of the open attempt, 0 while none is
  bool probe = false;  // the latest attempt is the half-open breaker probe
  bool over = false;   // settled or cancelled

  bool live(int attempt) const noexcept { return !over && open == attempt; }
};

void CallHandle::cancel() const {
  if (const auto call = call_.lock()) rpc_->cancel(*call);
}

ServiceHandler Rpc::register_service(NodeIndex node, std::string service,
                                     ServiceHandler handler) {
  return std::exchange(services_[{node, std::move(service)}], std::move(handler));
}

CallHandle Rpc::call(NodeIndex from, NodeIndex to, const std::string& service, Bytes request,
                     const RpcOptions& options, ReplyCallback on_reply, ErrorCallback on_error,
                     ResilienceObserver observer) {
  auto call = std::make_shared<Call>(
      Call{from, to, service, std::make_shared<const Bytes>(std::move(request)), options,
           std::move(on_reply), std::move(on_error), std::move(observer),
           network_.simulator().now()});
  if (tracer_ != nullptr) {
    call->parent = options.trace_parent.valid() ? options.trace_parent : tracer_->current();
  }
  attempt(call);
  return CallHandle(this, call);
}

void Rpc::attempt(const std::shared_ptr<Call>& call) {
  if (call->over) return;
  auto& simulator = network_.simulator();
  const Time now = simulator.now();
  const RpcOptions& options = call->options;

  call->probe = false;
  if (options.use_breaker) {
    const auto verdict = breakers_.admit(call->from, call->to, now);
    if (!verdict.allowed) {
      if (call->observer) call->observer(ResilienceEvent::kBreakerSkip);
      if (tracer_ != nullptr) {
        const auto skip = tracer_->instant_span("breaker-skip:" + call->service, call->parent);
        tracer_->set_attr(skip, "peer", network_.node(call->to).name());
      }
      // Fail fast, but deliver asynchronously like every other error path.
      simulator.after(0, [this, call] {
        settle(*call, RpcError{RpcErrorCode::kCircuitOpen,
                               "circuit open toward " + network_.node(call->to).name(), {}});
      });
      return;
    }
    if (verdict.probe) {
      call->probe = true;
      if (call->observer) call->observer(ResilienceEvent::kHalfOpenProbe);
    }
  }

  // Carve this attempt's timeout from whatever deadline budget remains.
  Time timeout = options.timeout;
  if (options.deadline > 0) {
    const Time remaining = options.deadline - (now - call->start);
    if (remaining <= 0) {
      simulator.after(0, [this, call] {
        settle(*call, RpcError{RpcErrorCode::kTimeout, "deadline budget exhausted", {}});
      });
      return;
    }
    timeout = std::min(timeout, remaining);
  }

  const int n = call->open = ++call->attempts;
  ++calls_started_;
  if (tracer_ != nullptr) {
    call->span = tracer_->start_span("rpc:" + call->service, call->parent);
    tracer_->set_attr(call->span, "peer", network_.node(call->to).name());
    tracer_->set_attr(call->span, "attempt", n);
  }

  if (!network_.node(call->from).online()) {
    // Deliver the error asynchronously to keep callback ordering uniform.
    simulator.after(0, [this, call, n] {
      end_attempt(call, n, RpcError{RpcErrorCode::kUnreachable, "caller offline", {}});
    });
    return;
  }

  // Client-side timeout covers handshake + request + service + response.
  simulator.after(timeout, [this, call, n] {
    if (!call->live(n)) return;
    ++calls_timed_out_;
    end_attempt(call, n, RpcError{RpcErrorCode::kTimeout, "rpc deadline exceeded", {}});
  });

  const bool reuse_allowed = config_.connection_reuse && !options.force_new_connection;
  if (reuse_allowed && connections_.contains({call->from, call->to})) {
    send_request(call, n);
    return;
  }

  // Cold connection: pay handshake round trips, then remember the connection.
  ++handshakes_;
  Time handshake_delay = 0;
  for (int i = 0; i < config_.handshake_rtts; ++i) {
    handshake_delay += network_.sample_delay(call->from, call->to, 64);
    handshake_delay += network_.sample_delay(call->to, call->from, 64);
  }
  simulator.after(handshake_delay, [this, call, n, reuse_allowed] {
    if (!call->live(n)) return;                     // timed out during the handshake
    if (!network_.node(call->to).online()) return;  // server down: let the timeout fire
    if (reuse_allowed) connections_.insert({call->from, call->to});
    send_request(call, n);
  });
}

void Rpc::send_request(const std::shared_ptr<Call>& call, int n) {
  const std::size_t request_size = call->request->size() + 64;  // framing overhead
  network_.send(call->from, call->to, request_size, [this, call, n] {
    if (!call->live(n)) return;

    const auto handler_it = services_.find({call->to, call->service});
    if (handler_it == services_.end()) {
      // A NACK still crosses the network back to the caller.
      network_.send(call->to, call->from, 64, [this, call, n] {
        end_attempt(call, n,
                    RpcError{RpcErrorCode::kNoService, "no handler for " + call->service, {}});
      });
      return;
    }

    // Queue the request on the server's worker pool, then run the handler.
    network_.node(call->to).execute(
        config_.server_base_cost,
        [this, call, n, handler = &handler_it->second, attempt_span = call->span,
         request = call->request] {
          // Server span: covers handler execution up to the moment the reply
          // (or rejection) is handed back to the transport. Made ambient for
          // the synchronous handler body, so RPCs the handler issues inline
          // become its children without explicit plumbing.
          obs::TraceContext handle_span{};
          if (tracer_ != nullptr) {
            handle_span = tracer_->start_span("handle:" + call->service, attempt_span);
          }
          auto reply_fn = std::make_shared<Responder::ReplyFn>(
              [this, call, n, handle_span](Bytes reply, std::optional<AppError> app) {
                if (tracer_ != nullptr && handle_span.valid()) {
                  tracer_->end_span(handle_span, !app.has_value());
                }
                const std::size_t reply_size = reply.size() + 64;
                network_.send(call->to, call->from, reply_size,
                              [this, call, n, reply = std::move(reply),
                               app = std::move(app)]() mutable {
                                if (app.has_value()) {
                                  std::string message = app->detail;
                                  end_attempt(call, n,
                                              RpcError{RpcErrorCode::kRejected,
                                                       std::move(message), std::move(app)});
                                } else {
                                  end_attempt(call, n, std::move(reply));
                                }
                              });
              });
          std::optional<obs::Tracer::Scope> ambient;
          if (tracer_ != nullptr) ambient.emplace(*tracer_, handle_span);
          (*handler)(*request, Responder(std::move(reply_fn)));
        });
    // The call's last possible attempt leaves the handler the only copy, so
    // the bytes go once it has decoded them, not when a deferred reply
    // comes; an earlier attempt keeps the call's, as a later one may still
    // need it.
    if (n >= call->options.retry.max_attempts) call->request.reset();
  });
}

void Rpc::end_attempt(const std::shared_ptr<Call>& call, int n, Outcome outcome) {
  if (!call->live(n)) return;
  call->open = 0;
  const RpcError* error = std::get_if<RpcError>(&outcome);
  if (error == nullptr) ++calls_succeeded_;
  if (tracer_ != nullptr && call->span.valid()) {
    if (error != nullptr) {
      tracer_->set_attr(call->span, "error", to_string(error->code));
      if (error->app.has_value()) {
        tracer_->set_attr(call->span, "app_error", to_string(error->app->code));
      }
    }
    tracer_->end_span(call->span, error == nullptr);
  }

  const Time now = network_.simulator().now();
  const RpcOptions& options = call->options;
  const bool transient = error != nullptr && error->retryable();
  if (options.use_breaker) {
    if (!transient) {
      // A reply, or the peer's rejection / NACK: the transport is healthy.
      breakers_.on_success(call->from, call->to);
    } else if (breakers_.on_failure(call->from, call->to, now) && call->observer) {
      call->observer(ResilienceEvent::kBreakerOpen);
    }
  }
  if (transient && call->attempts < options.retry.max_attempts) {
    const Time delay =
        backoff_delay(options.retry, call->attempts, network_.simulator().rng());
    if (options.deadline <= 0 || options.deadline - (now - call->start) > delay) {
      ++retries_;
      if (call->observer) call->observer(ResilienceEvent::kRetry);
      network_.simulator().after(delay, [this, call] { attempt(call); });
      return;
    }
  }
  settle(*call, std::move(outcome));
}

void Rpc::settle(Call& call, Outcome outcome) {
  if (call.over) return;
  call.over = true;
  // A call that is over lives on only for its pending events, which read
  // neither the request nor the caller's callbacks: release both before
  // invoking one.
  call.request.reset();
  call.observer = nullptr;
  auto on_reply = std::exchange(call.on_reply, nullptr);
  auto on_error = std::exchange(call.on_error, nullptr);
  if (auto* reply = std::get_if<Bytes>(&outcome)) {
    if (on_reply) on_reply(std::move(*reply));
  } else if (on_error) {
    on_error(std::get<RpcError>(std::move(outcome)));
  }
}

void Rpc::cancel(Call& call) {
  if (call.over) return;
  call.over = true;
  if (call.open != 0 && tracer_ != nullptr && call.span.valid()) {
    tracer_->set_attr(call.span, "cancelled", true);
    tracer_->end_span(call.span, false);
  }
  if (call.probe && call.options.use_breaker) breakers_.abandon_probe(call.from, call.to);
  call.request.reset();
  call.on_reply = nullptr;
  call.on_error = nullptr;
}

void Rpc::reset_connections(NodeIndex node) {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->first == node || it->second == node) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dauth::sim
