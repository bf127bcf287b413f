// Span recorder for the deterministic simulator.
//
// The Tracer owns every completed and in-flight span of a run. It is wired
// with a clock closure (the simulator's virtual now()) and the simulator's
// RNG so span identity and timing are fully deterministic per seed — the
// obs library itself never touches wall-clock time or global randomness.
//
// Two ways to parent a span:
//   * explicitly, by passing the parent TraceContext (async continuations
//     store the context in their state struct and thread it through), or
//   * ambiently, via Tracer::Scope — an RAII guard that makes a context
//     "current" for the dynamic extent of a synchronous handler body, so
//     RPCs issued inside it become children without plumbing changes.
//
// A null Tracer* everywhere means tracing is off; call sites guard with one
// pointer test, so the disabled path adds no measurable work.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "obs/trace.h"

namespace dauth::obs {

/// One span: a named interval of virtual time inside a trace. `end < 0`
/// marks a span still open when inspected (exporters render it zero-length).
struct Span {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_id = 0;  // 0 = root of its trace
  std::string name;
  Time start = 0;
  Time end = -1;
  bool ok = true;
  std::vector<Attr> attrs;

  bool finished() const noexcept { return end >= 0; }
  Time duration() const noexcept { return finished() ? end - start : 0; }
};

class Tracer {
 public:
  using Clock = std::function<Time()>;

  /// `rng` must outlive the tracer (it is the simulator's RNG, forked or
  /// shared — ids only need uniqueness within a run, not independence).
  Tracer(Clock clock, Xoshiro256StarStar* rng)
      : clock_(std::move(clock)), rng_(rng) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span. An invalid `parent` falls back to the ambient current
  /// context; if that is also empty the span roots a brand-new trace.
  TraceContext start_span(std::string name, TraceContext parent = {});

  /// Attaches a typed attribute to an open (or already closed) span.
  void set_attr(const TraceContext& ctx, const char* name, AttrValue value);

  /// Closes a span at the current virtual time.
  void end_span(const TraceContext& ctx, bool ok = true);

  /// Convenience: a zero-length marker span (e.g. a breaker fast-fail).
  TraceContext instant_span(std::string name, TraceContext parent = {});

  /// Ambient context for synchronous extents (see file comment).
  TraceContext current() const {
    return ambient_.empty() ? TraceContext{} : ambient_.back();
  }

  class Scope {
   public:
    Scope(Tracer& tracer, TraceContext ctx) : tracer_(tracer) {
      tracer_.ambient_.push_back(ctx);
    }
    ~Scope() { tracer_.ambient_.pop_back(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  const std::deque<Span>& spans() const noexcept { return spans_; }

  /// All spans of one trace, in recording (i.e. start) order.
  std::vector<const Span*> trace(TraceId id) const;

  /// Trace ids in first-seen order (stable across runs of the same seed).
  std::vector<TraceId> trace_ids() const;

  const Span* find(SpanId id) const;

 private:
  SpanId fresh_id();

  Clock clock_;
  Xoshiro256StarStar* rng_;
  std::deque<Span> spans_;
  std::unordered_map<SpanId, std::size_t> index_;
  std::vector<TraceContext> ambient_;
};

}  // namespace dauth::obs
