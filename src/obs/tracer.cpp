#include "obs/tracer.h"

#include <algorithm>

namespace dauth::obs {

std::string AttrValue::to_string() const {
  switch (kind_) {
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kUint:
      return std::to_string(uint_);
    case Kind::kLabel:
      return label_;
  }
  return "";
}

SpanId Tracer::fresh_id() {
  // Zero is the "no span" sentinel; skip it. Collisions within a run are
  // astronomically unlikely at 64 bits but would only merge two spans in an
  // export, never corrupt protocol state.
  std::uint64_t id = 0;
  while (id == 0) id = rng_->next();
  return id;
}

TraceContext Tracer::start_span(std::string name, TraceContext parent) {
  if (!parent.valid()) parent = current();

  Span span;
  span.span_id = fresh_id();
  if (parent.valid()) {
    span.trace_id = parent.trace_id;
    span.parent_id = parent.span_id;
  } else {
    span.trace_id = fresh_id();
  }
  span.name = std::move(name);
  span.start = clock_();

  const TraceContext ctx{span.trace_id, span.span_id};
  index_.emplace(span.span_id, spans_.size());
  spans_.push_back(std::move(span));
  return ctx;
}

void Tracer::set_attr(const TraceContext& ctx, const char* name, AttrValue value) {
  if (!ctx.valid()) return;
  const auto it = index_.find(ctx.span_id);
  if (it == index_.end()) return;
  spans_[it->second].attrs.push_back(Attr{name, std::move(value)});
}

void Tracer::end_span(const TraceContext& ctx, bool ok) {
  if (!ctx.valid()) return;
  const auto it = index_.find(ctx.span_id);
  if (it == index_.end()) return;
  Span& span = spans_[it->second];
  if (span.finished()) return;  // first close wins
  span.end = clock_();
  span.ok = ok;
}

TraceContext Tracer::instant_span(std::string name, TraceContext parent) {
  const TraceContext ctx = start_span(std::move(name), parent);
  end_span(ctx, true);
  return ctx;
}

std::vector<const Span*> Tracer::trace(TraceId id) const {
  std::vector<const Span*> result;
  for (const Span& span : spans_) {
    if (span.trace_id == id) result.push_back(&span);
  }
  return result;
}

std::vector<TraceId> Tracer::trace_ids() const {
  std::vector<TraceId> ids;
  for (const Span& span : spans_) {
    if (std::find(ids.begin(), ids.end(), span.trace_id) == ids.end()) {
      ids.push_back(span.trace_id);
    }
  }
  return ids;
}

const Span* Tracer::find(SpanId id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

}  // namespace dauth::obs
