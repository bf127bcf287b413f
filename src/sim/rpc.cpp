#include "sim/rpc.h"

#include <algorithm>

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

void CallHandle::cancel() const {
  if (!state_ || state_->cancelled || state_->settled) return;
  state_->cancelled = true;
  if (state_->abort) state_->abort();
  state_->abort = nullptr;
}

bool CallHandle::active() const {
  return state_ != nullptr && !state_->cancelled && !state_->settled;
}

struct Rpc::CallState {
  NodeIndex from;
  NodeIndex to;
  ReplyCallback on_reply;
  ErrorCallback on_error;
  bool done = false;
  /// Attempt span ("rpc:<service>") when a tracer is installed.
  obs::TraceContext span{};
};

/// One call: the surviving context across its attempts.
struct Rpc::PolicyState {
  NodeIndex from;
  NodeIndex to;
  std::string service;
  Bytes request;
  RpcOptions options;
  ReplyCallback on_reply;
  ErrorCallback on_error;
  ResilienceObserver observer;
  std::shared_ptr<CallHandle::Cancellable> control;
  Time start = 0;
  int attempts_issued = 0;
  bool probe = false;  // the in-flight attempt is a half-open breaker probe
  /// Parent span resolved when the call is issued, so retries issued from
  /// timer callbacks (no ambient context) stay parented to the caller.
  obs::TraceContext parent{};
  /// Weak: the in-flight attempt is owned by its pending simulator events,
  /// and its callbacks own this PolicyState — an owning pointer here would
  /// close a shared_ptr cycle and leak both on cancel/teardown.
  std::weak_ptr<CallState> current;
};

void Rpc::register_service(NodeIndex node, std::string service, ServiceHandler handler) {
  services_[{node, std::move(service)}] = std::move(handler);
}

std::shared_ptr<Rpc::CallState> Rpc::start_call(NodeIndex from, NodeIndex to,
                                                const std::string& service, Bytes request,
                                                const RpcOptions& options, int attempt,
                                                ReplyCallback on_reply,
                                                ErrorCallback on_error) {
  ++calls_started_;
  auto state = std::make_shared<CallState>();
  state->from = from;
  state->to = to;
  state->on_reply = std::move(on_reply);
  state->on_error = std::move(on_error);

  if (tracer_ != nullptr) {
    state->span = tracer_->start_span("rpc:" + service, options.trace_parent);
    tracer_->set_attr(state->span, "peer", network_.node(to).name());
    tracer_->set_attr(state->span, "attempt", attempt);
  }

  auto& simulator = network_.simulator();

  if (!network_.node(from).online()) {
    // Deliver the error asynchronously to keep callback ordering uniform.
    simulator.after(0, [this, state] {
      finish_error(state, {RpcErrorCode::kUnreachable, "caller offline", {}});
    });
    return state;
  }

  // Client-side timeout covers handshake + request + service + response.
  simulator.after(options.timeout, [this, state] {
    if (!state->done) {
      ++calls_timed_out_;
      finish_error(state, {RpcErrorCode::kTimeout, "rpc deadline exceeded", {}});
    }
  });

  const bool reuse_allowed = config_.connection_reuse && !options.force_new_connection;
  const bool have_connection = reuse_allowed && connections_.contains({from, to});
  if (have_connection) {
    send_request(from, to, service, std::move(request), state);
    return state;
  }

  // Cold connection: pay handshake round trips, then remember the connection.
  ++handshakes_;
  Time handshake_delay = 0;
  for (int i = 0; i < config_.handshake_rtts; ++i) {
    handshake_delay += network_.sample_delay(from, to, 64);
    handshake_delay += network_.sample_delay(to, from, 64);
  }
  simulator.after(handshake_delay,
                  [this, from, to, service, request = std::move(request), state,
                   reuse_allowed]() mutable {
                    if (state->done) return;  // timed out during handshake
                    if (!network_.node(to).online()) return;  // server down: let timeout fire
                    if (reuse_allowed) connections_.insert({from, to});
                    send_request(from, to, service, std::move(request), std::move(state));
                  });
  return state;
}

CallHandle Rpc::call(NodeIndex from, NodeIndex to, const std::string& service, Bytes request,
                     const RpcOptions& options, ReplyCallback on_reply, ErrorCallback on_error,
                     ResilienceObserver observer) {
  auto state = std::make_shared<PolicyState>();
  state->from = from;
  state->to = to;
  state->service = service;
  state->request = std::move(request);
  state->options = options;
  state->on_reply = std::move(on_reply);
  state->on_error = std::move(on_error);
  state->observer = std::move(observer);
  state->start = network_.simulator().now();
  if (tracer_ != nullptr) {
    state->parent = options.trace_parent.valid() ? options.trace_parent
                                                 : tracer_->current();
  }
  state->control = std::make_shared<CallHandle::Cancellable>();
  // Weak: the control block must not keep the policy state (and its pending
  // retries) alive — a run abandoned at end-of-simulation must still free.
  state->control->abort = [this, weak = std::weak_ptr<PolicyState>(state)] {
    auto s = weak.lock();
    if (!s) return;
    if (auto current = s->current.lock()) {
      current->done = true;
      // Release the attempt's callbacks now: they hold the only owning
      // references to this PolicyState (and the caller's captures).
      current->on_reply = nullptr;
      current->on_error = nullptr;
      if (tracer_ != nullptr && current->span.valid()) {
        tracer_->set_attr(current->span, "cancelled", true);
        tracer_->end_span(current->span, false);
      }
    }
    if (s->probe && s->options.use_breaker) breakers_.abandon_probe(s->from, s->to);
  };
  attempt(state);
  return CallHandle(state->control);
}

void Rpc::attempt(std::shared_ptr<PolicyState> state) {
  if (state->control->cancelled || state->control->settled) return;
  auto& simulator = network_.simulator();
  const Time now = simulator.now();

  state->probe = false;
  if (state->options.use_breaker) {
    const auto verdict = breakers_.admit(state->from, state->to, now);
    if (!verdict.allowed) {
      if (state->observer) state->observer(ResilienceEvent::kBreakerSkip);
      if (tracer_ != nullptr) {
        const auto skip =
            tracer_->instant_span("breaker-skip:" + state->service, state->parent);
        tracer_->set_attr(skip, "peer", network_.node(state->to).name());
      }
      // Fail fast, but deliver asynchronously like every other error path.
      simulator.after(0, [this, state] {
        settle_error(state, {RpcErrorCode::kCircuitOpen,
                             "circuit open toward " + network_.node(state->to).name(),
                             {}});
      });
      return;
    }
    if (verdict.probe) {
      state->probe = true;
      if (state->observer) state->observer(ResilienceEvent::kHalfOpenProbe);
    }
  }

  // Carve this attempt's timeout from whatever deadline budget remains.
  Time attempt_timeout = state->options.timeout;
  if (state->options.deadline > 0) {
    const Time remaining = state->options.deadline - (now - state->start);
    if (remaining <= 0) {
      simulator.after(0, [this, state] {
        settle_error(state, {RpcErrorCode::kTimeout, "deadline budget exhausted", {}});
      });
      return;
    }
    attempt_timeout = std::min(attempt_timeout, remaining);
  }

  RpcOptions attempt_options = state->options;
  attempt_options.timeout = attempt_timeout;
  ++state->attempts_issued;
  attempt_options.trace_parent = state->parent;

  state->current = start_call(
      state->from, state->to, state->service, state->request, attempt_options,
      state->attempts_issued,
      [this, state](Bytes reply) {
        if (state->control->cancelled || state->control->settled) return;
        if (state->options.use_breaker) breakers_.on_success(state->from, state->to);
        state->control->settled = true;
        state->control->abort = nullptr;
        if (state->on_reply) state->on_reply(std::move(reply));
      },
      [this, state](RpcError error) {
        if (state->control->cancelled || state->control->settled) return;
        const Time at = network_.simulator().now();
        if (state->options.use_breaker) {
          if (error.retryable()) {
            if (breakers_.on_failure(state->from, state->to, at) && state->observer) {
              state->observer(ResilienceEvent::kBreakerOpen);
            }
          } else {
            // The peer answered (rejection / NACK): transport is healthy.
            breakers_.on_success(state->from, state->to);
          }
        }
        if (error.retryable() &&
            state->attempts_issued < state->options.retry.max_attempts) {
          const Time delay = backoff_delay(state->options.retry, state->attempts_issued,
                                           network_.simulator().rng());
          const bool budget_left =
              state->options.deadline <= 0 ||
              state->options.deadline - (at - state->start) > delay;
          if (budget_left) {
            ++retries_;
            if (state->observer) state->observer(ResilienceEvent::kRetry);
            network_.simulator().after(delay, [this, state] { attempt(state); });
            return;
          }
        }
        settle_error(state, std::move(error));
      });
}

void Rpc::settle_error(const std::shared_ptr<PolicyState>& state, RpcError error) {
  if (state->control->cancelled || state->control->settled) return;
  state->control->settled = true;
  state->control->abort = nullptr;
  if (state->on_error) state->on_error(std::move(error));
}

void Rpc::send_request(NodeIndex from, NodeIndex to, const std::string& service, Bytes request,
                       std::shared_ptr<CallState> state) {
  const std::size_t request_size = request.size() + 64;  // framing overhead
  network_.send(from, to, request_size,
                [this, from, to, service, request = std::move(request), state]() mutable {
    if (state->done) return;

    const auto handler_it = services_.find({to, service});
    if (handler_it == services_.end()) {
      // A NACK still crosses the network back to the caller.
      network_.send(to, from, 64, [this, state, service] {
        finish_error(state, {RpcErrorCode::kNoService, "no handler for " + service, {}});
      });
      return;
    }

    // Queue the request on the server's worker pool, then run the handler.
    network_.node(to).execute(
        config_.server_base_cost,
        [this, from, to, service, handler = &handler_it->second,
         request = std::move(request), state] {
          // Server span: covers handler execution up to the moment the reply
          // (or rejection) is handed back to the transport. Made ambient for
          // the synchronous handler body, so RPCs the handler issues inline
          // become its children without explicit plumbing.
          obs::TraceContext handle_span{};
          if (tracer_ != nullptr) {
            handle_span = tracer_->start_span("handle:" + service, state->span);
          }
          auto reply_fn = std::make_shared<Responder::ReplyFn>(
              [this, from, to, state, handle_span](Bytes reply, std::optional<AppError> app) {
                if (tracer_ != nullptr && handle_span.valid()) {
                  tracer_->end_span(handle_span, !app.has_value());
                }
                const std::size_t reply_size = reply.size() + 64;
                network_.send(to, from, reply_size,
                              [this, state, reply = std::move(reply),
                               app = std::move(app)]() mutable {
                                if (app.has_value()) {
                                  std::string message = app->detail;
                                  finish_error(state, {RpcErrorCode::kRejected,
                                                       std::move(message), std::move(app)});
                                } else {
                                  finish_ok(state, std::move(reply));
                                }
                              });
              });
          std::optional<obs::Tracer::Scope> ambient;
          if (tracer_ != nullptr) ambient.emplace(*tracer_, handle_span);
          (*handler)(request, Responder(std::move(reply_fn)));
        });
  });
}

void Rpc::finish_ok(const std::shared_ptr<CallState>& state, Bytes reply) {
  if (state->done) return;
  state->done = true;
  ++calls_succeeded_;
  if (tracer_ != nullptr && state->span.valid()) {
    tracer_->end_span(state->span, true);
  }
  // Move the callback out and drop both before invoking: an attempt's
  // callbacks own their PolicyState, which must not outlive settlement.
  auto on_reply = std::move(state->on_reply);
  state->on_reply = nullptr;
  state->on_error = nullptr;
  if (on_reply) on_reply(std::move(reply));
}

void Rpc::finish_error(const std::shared_ptr<CallState>& state, RpcError error) {
  if (state->done) return;
  state->done = true;
  if (tracer_ != nullptr && state->span.valid()) {
    tracer_->set_attr(state->span, "error", to_string(error.code));
    if (error.app.has_value()) {
      tracer_->set_attr(state->span, "app_error", to_string(error.app->code));
    }
    tracer_->end_span(state->span, false);
  }
  auto on_error = std::move(state->on_error);
  state->on_reply = nullptr;
  state->on_error = nullptr;
  if (on_error) on_error(std::move(error));
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
