// Extension bench (§7.4 future work): inter-organizational handover vs
// full re-authentication.
//
// The paper: "Allowing for performant and secure inter-organizational
// handover ... would make a large-scale dAuth system much more performant
// and suitable for more rapid mobility scenarios." This bench quantifies
// the gap our horizontal-key handover closes: a UE bounces between two
// federated edge serving networks, either by handover (context transfer +
// horizontal KDF) or by attaching from scratch each time (home-online and
// backup modes).
#include <cstdio>

#include "harness.h"

using namespace dauth;

namespace {

constexpr int kMoves = 200;
constexpr std::uint64_t kSeed = 99;

const Supi kSupi("315010000000001");

/// home-net backed up on four networks, two serving networks, all on SCN
/// edge boxes; keys from seeds 10-16.
core::FederationSpec mobility_spec() {
  core::FederationSpec spec;
  spec.seed = kSeed;
  spec.config.threshold = 2;
  spec.config.vectors_per_backup = 2 * kMoves + 8;
  spec.config.report_interval = 0;
  const char* names[] = {"home-net", "serving-a", "serving-b", "backup-1",
                         "backup-2", "backup-3", "backup-4"};
  spec.topology = [names](sim::Network& network, core::FederationSpec&) {
    network.add_node(sim::profile(sim::NodeClass::kCloud, "directory"));
    for (const char* name : names) {
      network.add_node(sim::profile(sim::NodeClass::kScnEdge, name));
    }
    network.add_node(sim::profile(sim::NodeClass::kRanSite, "ran"));
  };
  for (std::uint64_t i = 0; i < 7; ++i) {
    spec.networks.push_back({NetworkId(names[i]), names[i], 10 + i});
  }
  spec.homes = {{NetworkId("home-net"),
                 {NetworkId("backup-1"), NetworkId("backup-2"), NetworkId("backup-3"),
                  NetworkId("backup-4")},
                 {kSupi}}};
  return spec;
}

/// The disseminated world; nets: 0 = home, 1..2 serving, 3..6 backups.
std::unique_ptr<core::FederationWorld> mobility_world(bool home_offline) {
  bench::note_seed(kSeed);
  auto world = core::build(mobility_spec());
  world->simulator.run();
  if (home_offline) {
    core::DauthNode& home = world->net(0);
    world->network.node(home.node()).set_online(false);
    world->net(1).serving().set_home_health(home.id(), false);
    world->net(2).serving().set_home_health(home.id(), false);
  }
  return world;
}

SampleSet run_handover_chain(core::FederationWorld& world) {
  auto profile = world.ue_profile();
  profile.use_guti = true;
  const auto ue = world.make_ue(kSupi, world.net(1).node(), profile);
  bool attached = false;
  ue->attach([&](const ran::AttachRecord& r) { attached = r.success; });
  world.simulator.run();
  SampleSet latencies;
  if (!attached) return latencies;

  for (int i = 0; i < kMoves; ++i) {
    const auto target = world.net(1 + (i % 2 == 0 ? 1 : 0)).node();
    bool done = false;
    ue->handover_to(target, [&](const ran::HandoverRecord& r) {
      done = true;
      if (r.success) latencies.add_time(r.latency());
    });
    world.simulator.run();
    if (!done) break;
  }
  return latencies;
}

SampleSet run_reattach_chain(core::FederationWorld& world) {
  const auto ue = world.make_ue(kSupi, world.net(1).node());
  SampleSet latencies;
  for (int i = 0; i < kMoves; ++i) {
    ue->move_to(world.net(1 + (i % 2)).node());
    bool done = false;
    ue->attach([&](const ran::AttachRecord& r) {
      done = true;
      if (r.success) latencies.add_time(r.latency());
    });
    world.simulator.run();
    if (!done) break;
  }
  return latencies;
}

}  // namespace

int main() {
  bench::print_title("Extension (§7.4): handover vs full re-authentication");
  std::printf("A UE bounces %d times between two federated edge serving networks.\n\n",
              kMoves);

  // Four independent worlds: run them concurrently on the sweep pool.
  struct Variant {
    std::string label;
    bool home_offline;
    bool handover;
  };
  const Variant variants[] = {
      {"re-attach per move (home online)", false, false},
      {"re-attach per move (backup mode)", true, false},
      {"handover per move (home online)", false, true},
      {"handover per move (home OFFLINE)", true, true},
  };

  std::vector<bench::SweepPoint> points;
  for (const Variant& v : variants) {
    points.push_back({v.label, [v] {
                        const auto world = mobility_world(v.home_offline);
                        auto samples = v.handover ? run_handover_chain(*world)
                                                  : run_reattach_chain(*world);
                        bench::PointResult out;
                        out.text = bench::format_summary(v.label, samples);
                        out.rows.push_back(bench::make_row(v.label, 0, samples, "summary"));
                        return out;
                      }});
  }
  bench::BenchReport report("ext_handover");
  bench::run_sweep(points, &report);
  report.write();

  std::printf(
      "\nHandover needs one context-transfer RPC between the serving networks\n"
      "plus one UE round trip — no AKA, no home network, no key shares — and\n"
      "inherits dAuth's resilience: it works identically during home outages.\n");
  return 0;
}
