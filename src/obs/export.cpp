#include "obs/export.h"

#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "common/time.h"

namespace dauth::obs {

namespace {

std::string hex_id(std::uint64_t id) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << id;
  return out.str();
}

void append_escaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';  // span names / labels never carry control characters
    } else {
      out << c;
    }
  }
  out << '"';
}

/// Microseconds with nanosecond remainder as three decimals, e.g. "12.345".
void append_us(std::ostringstream& out, Time t) {
  if (t < 0) t = 0;
  out << (t / kMicrosecond) << '.' << std::setw(3) << std::setfill('0')
      << (t % kMicrosecond) << std::setfill(' ') << std::setw(0);
}

void append_attr_value(std::ostringstream& out, const AttrValue& value) {
  switch (value.kind()) {
    case AttrValue::Kind::kBool:
      out << (value.as_bool() ? "true" : "false");
      return;
    case AttrValue::Kind::kInt:
      out << value.as_int();
      return;
    case AttrValue::Kind::kUint:
      out << value.as_uint();
      return;
    case AttrValue::Kind::kLabel:
      append_escaped(out, value.as_label());
      return;
  }
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer) {
  std::map<TraceId, int> lanes;
  int next_lane = 1;
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first_event = true;
  for (const Span& span : tracer.spans()) {
    const auto [lane_it, inserted] = lanes.emplace(span.trace_id, next_lane);
    if (inserted) ++next_lane;

    if (!first_event) out << ',';
    first_event = false;
    out << "{\"name\":";
    append_escaped(out, span.name);
    out << ",\"ph\":\"X\",\"ts\":";
    append_us(out, span.start);
    out << ",\"dur\":";
    append_us(out, span.duration());
    out << ",\"pid\":1,\"tid\":" << lane_it->second << ",\"args\":{";
    out << "\"trace\":\"" << hex_id(span.trace_id) << "\"";
    out << ",\"span\":\"" << hex_id(span.span_id) << "\"";
    if (span.parent_id != 0) {
      out << ",\"parent\":\"" << hex_id(span.parent_id) << "\"";
    }
    out << ",\"ok\":" << (span.ok ? "true" : "false");
    for (const Attr& attr : span.attrs) {
      out << ',';
      append_escaped(out, attr.name);
      out << ':';
      append_attr_value(out, attr.value);
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

std::string text_tree(const Tracer& tracer, TraceId id) {
  const std::vector<const Span*> spans = tracer.trace(id);
  std::map<SpanId, std::vector<const Span*>> children;
  std::set<SpanId> present;
  for (const Span* span : spans) present.insert(span->span_id);
  std::vector<const Span*> roots;
  for (const Span* span : spans) {
    if (span->parent_id != 0 && present.count(span->parent_id) > 0) {
      children[span->parent_id].push_back(span);
    } else {
      roots.push_back(span);  // true root, or orphan rendered at top level
    }
  }

  std::ostringstream out;
  out << "trace " << hex_id(id) << "\n";
  const std::function<void(const Span*, int)> render = [&](const Span* span,
                                                           int depth) {
    for (int i = 0; i < depth; ++i) out << "  ";
    out << span->name << "  " << format_time(span->start) << " +"
        << (span->finished() ? format_time(span->duration()) : "open")
        << (span->ok ? "" : "  FAIL");
    for (const Attr& attr : span->attrs) {
      out << "  " << attr.name << '=' << attr.value.to_string();
    }
    out << "\n";
    for (const Span* child : children[span->span_id]) render(child, depth + 1);
  };
  for (const Span* root : roots) render(root, 1);
  return out.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

}  // namespace dauth::obs
