#include "report.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>

#ifndef DAUTH_SOURCE_DIR
#define DAUTH_SOURCE_DIR "."
#endif

namespace dauth::bench {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping: our labels only contain printable ASCII,
/// but quotes/backslashes must not corrupt the record.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

/// Trimmed output of a read-only git query against the source tree, or
/// nullopt when git is unavailable or the tree is not a checkout.
std::optional<std::string> git(const std::string& args) {
  const std::string command = "git --no-optional-locks -C \"" DAUTH_SOURCE_DIR "\" " + args +
                              " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  if (pclose(pipe) != 0) return std::nullopt;
  while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back()))) out.pop_back();
  return out;
}

std::mutex seeds_mutex;
std::set<std::uint64_t> seeds_run;

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

void note_seed(std::uint64_t seed) {
  const std::lock_guard<std::mutex> lock(seeds_mutex);
  seeds_run.insert(seed);
}

ReportRow make_row(const std::string& series, double x, SampleSet& samples,
                   const std::string& kind) {
  ReportRow row;
  row.series = series;
  row.kind = kind;
  row.x = x;
  row.n = samples.size();
  if (!samples.empty()) {
    row.p50 = samples.quantile(0.5);
    row.p90 = samples.quantile(0.9);
    row.p95 = samples.quantile(0.95);
    row.p99 = samples.quantile(0.99);
    row.mean = samples.mean();
    row.min = samples.min();
    row.max = samples.max();
  }
  return row;
}

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)), start_monotonic_(now_seconds()) {}

void BenchReport::add(ReportRow row) { rows_.push_back(std::move(row)); }

void BenchReport::add_scalar(const std::string& series, double value) {
  ReportRow row;
  row.series = series;
  row.kind = "scalar";
  row.value = value;
  rows_.push_back(std::move(row));
}

std::string BenchReport::write() const {
  std::string dir = ".";
  if (const char* env = std::getenv("DAUTH_BENCH_OUT"); env && *env) dir = env;
  const std::string path = dir + "/BENCH_" + name_ + ".json";

  std::ofstream out(path);
  if (!out) return "";

  // Provenance is taken now, not when the binary was configured: the commit
  // checked out and whether tracked files differ from it.
  const auto commit = git("rev-parse --short HEAD");
  const auto status = git("status --porcelain --untracked-files=no");
  std::string seeds;
  {
    const std::lock_guard<std::mutex> lock(seeds_mutex);
    for (const std::uint64_t seed : seeds_run) {
      seeds += (seeds.empty() ? "" : ", ") + std::to_string(seed);
    }
  }
  const double wall = now_seconds() - start_monotonic_;
  out << "{\n"
      << "  \"bench\": \"" << json_escape(name_) << "\",\n"
      << "  \"commit\": \"" << json_escape(commit.value_or("unknown")) << "\",\n"
      << "  \"dirty\": " << (status ? (status->empty() ? "false" : "true") : "null") << ",\n"
      << "  \"seeds\": [" << seeds << "],\n"
      << "  \"threads\": " << threads_ << ",\n"
      << "  \"wall_clock_seconds\": " << json_number(wall) << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ReportRow& r = rows_[i];
    out << "    {\"series\": \"" << json_escape(r.series) << "\", \"kind\": \""
        << json_escape(r.kind) << "\"";
    if (r.kind == "scalar") {
      out << ", \"value\": " << json_number(r.value);
    } else {
      out << ", \"x\": " << json_number(r.x) << ", \"n\": " << r.n
          << ", \"p50\": " << json_number(r.p50) << ", \"p90\": " << json_number(r.p90)
          << ", \"p95\": " << json_number(r.p95) << ", \"p99\": " << json_number(r.p99)
          << ", \"mean\": " << json_number(r.mean) << ", \"min\": " << json_number(r.min)
          << ", \"max\": " << json_number(r.max);
    }
    out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (!registry_json_.empty()) {
    // Pre-serialized by MetricsRegistry::to_json(); emitted as-is.
    out << ",\n  \"registry\": " << registry_json_;
  }
  out << "\n}\n";
  out.close();
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return path;
}

}  // namespace dauth::bench
