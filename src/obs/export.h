// Trace exporters.
//
// Two renderings of the same span data:
//   * chrome_trace_json — the Chrome `trace_event` format ("X" complete
//     events, microsecond timestamps), loadable in Perfetto or
//     chrome://tracing. Each trace gets its own tid lane so concurrent
//     attaches stack instead of overlapping.
//   * text_tree — a compact indented causal tree of one trace, for test
//     failure messages and terminal inspection.
//
// Export.ChromeTraceBytesArePinned (tests/obs/obs_test.cpp) pins the JSON
// byte for byte; `tools/bench_diff.py --trace` checks that a written file
// parses as JSON and has the trace_event shape (docs/OBSERVABILITY.md §4).
#pragma once

#include <string>

#include "obs/tracer.h"

namespace dauth::obs {

/// Whole-tracer export in Chrome trace_event JSON. Deterministic byte-exact
/// output for a given tracer state.
std::string chrome_trace_json(const Tracer& tracer);

/// Indented rendering of one trace's span tree (recording order, roots
/// first). Includes timing, status, and attributes.
std::string text_tree(const Tracer& tracer, TraceId id);

/// Writes `content` to `path` (truncating). Returns false on I/O failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace dauth::obs
