// dauth_sim — command-line scenario runner.
//
// Lets an operator explore the dAuth design space without writing C++:
//
//   dauth_sim --system dauth --mode backup --backups 8 --threshold 4
//             --scenario edge-fiber --load 500 --duration 120 --cdf
//
//   dauth_sim --system open5gs --scenario cloud-fiber --load 1000
//   dauth_sim --system roaming --scenario edge-residential --load 200
//
// Flags (all optional):
//   --system {dauth|open5gs|roaming}   system under test        [dauth]
//   --mode {home|backup}               dAuth home online/offline [home]
//   --scenario {edge-fiber|edge-residential|cloud-fiber|cloud-residential}
//   --backups N                        backup networks (dAuth)   [8]
//   --threshold M                      key-share threshold       [2]
//   --load R                           registrations per minute  [200]
//   --duration S                       load duration, seconds    [60]
//   --pool N                           subscriber pool size      [64]
//   --seed S                           RNG seed                  [42]
//   --physical-ran                     srsUE profile instead of UERANSIM
//   --cdf                              print CDF rows as well
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

using namespace dauth;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--system dauth|open5gs|roaming] [--mode home|backup]\n"
               "          [--scenario edge-fiber|edge-residential|cloud-fiber|cloud-residential]\n"
               "          [--backups N] [--threshold M] [--load R] [--duration S]\n"
               "          [--pool N] [--seed S] [--physical-ran] [--cdf]\n",
               argv0);
  std::exit(2);
}

sim::Scenario parse_scenario(const std::string& name, const char* argv0) {
  if (name == "edge-fiber") return sim::Scenario::kEdgeFiber;
  if (name == "edge-residential") return sim::Scenario::kEdgeResidential;
  if (name == "cloud-fiber") return sim::Scenario::kCloudFiber;
  if (name == "cloud-residential") return sim::Scenario::kCloudResidential;
  std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
  usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string system = "dauth";
  std::string mode = "home";
  sim::Scenario scenario = sim::Scenario::kEdgeFiber;
  std::size_t backups = 8;
  std::size_t threshold = 2;
  double load = 200;
  long duration_s = 60;
  std::size_t pool = 64;
  std::uint64_t seed = 42;
  bool physical_ran = false;
  bool print_cdf_rows = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--system") system = next();
    else if (arg == "--mode") mode = next();
    else if (arg == "--scenario") scenario = parse_scenario(next(), argv[0]);
    else if (arg == "--backups") backups = std::strtoul(next().c_str(), nullptr, 10);
    else if (arg == "--threshold") threshold = std::strtoul(next().c_str(), nullptr, 10);
    else if (arg == "--load") load = std::strtod(next().c_str(), nullptr);
    else if (arg == "--duration") duration_s = std::strtol(next().c_str(), nullptr, 10);
    else if (arg == "--pool") pool = std::strtoul(next().c_str(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--physical-ran") physical_ran = true;
    else if (arg == "--cdf") print_cdf_rows = true;
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (threshold > backups) {
    std::fprintf(stderr, "threshold (%zu) cannot exceed backups (%zu)\n", threshold, backups);
    return 2;
  }

  const Time duration = sec(duration_s);
  ran::LoadResult result;
  std::string label;

  if (system == "dauth") {
    bench::DauthOptions options;
    options.scenario = scenario;
    options.backup_count = backups;
    options.pool_size = pool;
    options.seed = seed;
    options.physical_ran = physical_ran;
    options.home_offline = (mode == "backup");
    options.config.threshold = threshold;
    options.config.report_interval = 0;
    // Budget vectors for the configured run plus slack (race width 2).
    const double expected = load * static_cast<double>(duration_s) / 60.0;
    options.config.vectors_per_backup = std::max<std::size_t>(
        4, static_cast<std::size_t>(3.0 * expected / static_cast<double>(pool * backups)) + 4);
    bench::DauthBench harness(options);
    result = harness.run_load(load, duration);
    label = "dauth-" + mode;
  } else if (system == "open5gs" || system == "roaming") {
    bench::BaselineOptions options;
    options.scenario = scenario;
    options.pool_size = pool;
    options.seed = seed;
    options.physical_ran = physical_ran;
    options.roaming = (system == "roaming");
    bench::BaselineBench harness(options);
    result = harness.run_load(load, duration);
    label = system;
  } else {
    std::fprintf(stderr, "unknown system '%s'\n", system.c_str());
    usage(argv[0]);
  }

  std::printf("system=%s scenario=%s load=%g/min duration=%lds seed=%llu\n", label.c_str(),
              sim::to_string(scenario), load, duration_s,
              static_cast<unsigned long long>(seed));
  if (system == "dauth") {
    std::printf("backups=%zu threshold=%zu mode=%s\n", backups, threshold, mode.c_str());
  }
  std::printf("attempted=%zu succeeded=%zu failed=%zu skipped=%zu\n", result.attempted,
              result.succeeded, result.failed, result.skipped_busy);
  for (const auto& reason : result.failures) {
    std::printf("failure: %s\n", reason.c_str());
  }
  if (!result.latencies.empty()) {
    bench::print_summary("latency (ms)", result.latencies);
    if (print_cdf_rows) bench::print_cdf(label, result.latencies, 20);
  }
  return result.failed > result.succeeded ? 1 : 0;
}
