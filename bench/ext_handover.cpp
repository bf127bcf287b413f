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

#include "core/dauth_node.h"
#include "harness.h"
#include "ran/gnb.h"

using namespace dauth;

namespace {

constexpr int kMoves = 200;
constexpr std::uint64_t kSeed = 99;

struct MobilityWorld {
  sim::Simulator simulator{kSeed};
  sim::Network network{simulator};
  sim::Rpc rpc{network};
  directory::DirectoryServer directory_server;
  sim::NodeIndex dir_node{};
  sim::NodeIndex ran_node{};
  std::vector<std::unique_ptr<core::DauthNode>> nets;  // 0=home, 1..2 serving, 3..6 backups
  aka::SubscriberKeys keys;
  const Supi supi{"315010000000001"};

  explicit MobilityWorld(bool home_offline) {
    bench::note_seed(kSeed);
    auto cfg = sim::profile(sim::NodeClass::kCloud, "directory");
    dir_node = network.add_node(cfg);
    directory_server.bind(rpc, dir_node);

    core::FederationConfig config;
    config.threshold = 2;
    config.vectors_per_backup = 2 * kMoves + 8;
    config.report_interval = 0;

    const char* names[] = {"home-net", "serving-a", "serving-b", "backup-1",
                           "backup-2", "backup-3", "backup-4"};
    for (int i = 0; i < 7; ++i) {
      auto node_cfg = sim::profile(sim::NodeClass::kScnEdge, names[i]);
      const auto node = network.add_node(node_cfg);
      nets.push_back(std::make_unique<core::DauthNode>(
          rpc, node, NetworkId(names[i]), dir_node, directory_server, config, 10 + i));
    }
    ran_node = network.add_node(sim::profile(sim::NodeClass::kRanSite, "ran"));

    nets[0]->set_backups({nets[3]->id(), nets[4]->id(), nets[5]->id(), nets[6]->id()});
    keys = nets[0]->provision_subscriber(supi);
    nets[0]->home().disseminate(supi);
    simulator.run();

    if (home_offline) {
      network.node(nets[0]->node()).set_online(false);
      nets[1]->serving().set_home_health(nets[0]->id(), false);
      nets[2]->serving().set_home_health(nets[0]->id(), false);
    }
  }
};

SampleSet run_handover_chain(MobilityWorld& world) {
  auto profile = ran::emulated_ran_profile("5G:mnc010.mcc315.3gppnetwork.org");
  profile.use_guti = true;
  ran::Ue ue(world.rpc, world.ran_node, world.nets[1]->node(), world.supi, world.keys,
             profile);
  bool attached = false;
  ue.attach([&](const ran::AttachRecord& r) { attached = r.success; });
  world.simulator.run();
  SampleSet latencies;
  if (!attached) return latencies;

  for (int i = 0; i < kMoves; ++i) {
    const auto target = world.nets[1 + (i % 2 == 0 ? 1 : 0)]->node();
    bool done = false;
    ue.handover_to(target, [&](const ran::HandoverRecord& r) {
      done = true;
      if (r.success) latencies.add_time(r.latency());
    });
    world.simulator.run();
    if (!done) break;
  }
  return latencies;
}

SampleSet run_reattach_chain(MobilityWorld& world) {
  auto profile = ran::emulated_ran_profile("5G:mnc010.mcc315.3gppnetwork.org");
  ran::Ue ue(world.rpc, world.ran_node, world.nets[1]->node(), world.supi, world.keys,
             profile);
  SampleSet latencies;
  for (int i = 0; i < kMoves; ++i) {
    ue.move_to(world.nets[1 + (i % 2)]->node());
    bool done = false;
    ue.attach([&](const ran::AttachRecord& r) {
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
                        MobilityWorld world(v.home_offline);
                        auto samples = v.handover ? run_handover_chain(world)
                                                  : run_reattach_chain(world);
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
