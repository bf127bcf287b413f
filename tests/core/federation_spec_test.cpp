// Key-material pin: the federations built from a core::FederationSpec
// register the same NetworkEntry and BackupsEntry records, and provision
// the same SIM keys, as the hand wiring they replaced. Each digest was
// recorded from that hand wiring; a change to a spec's seeds, placement,
// ids or provisioning order moves it.
#include <gtest/gtest.h>

#include "../integration/federation_fixture.h"
#include "crypto/sha256.h"
#include "harness.h"
#include "quickstart_federation.h"

namespace dauth::testing {
namespace {

/// SHA-256 over each network's registered NetworkEntry and BackupsEntry,
/// in daemon order, then each SIM's SUPI, K and OPc in SUPI order.
std::string key_material_digest(const core::FederationWorld& world) {
  crypto::Sha256 h;
  for (const auto& net : world.nets) {
    if (const auto entry = world.directory_server.network(net->id())) {
      h.update(wire::encode(*entry));
    }
    if (const auto backups = world.directory_server.backups(net->id())) {
      h.update(wire::encode(*backups));
    }
  }
  for (const auto& [supi, keys] : world.keys) {
    h.update(as_bytes(supi.str()));
    h.update(ByteView(keys.k));
    h.update(ByteView(keys.opc));
  }
  return to_hex(h.finish());
}

TEST(FederationSpec, FixtureKeyMaterialIsPinned) {
  Federation f(5);
  f.provision(Supi("901550000000001"), 0, {1, 2, 3});
  EXPECT_EQ(key_material_digest(f),
            "1e303c41a495343136cd08fe0c51fee946f9c4de12de39b67873afc1b131acc4");
}

TEST(FederationSpec, Fig3BenchKeyMaterialIsPinned) {
  // fig3_single_ue --trace's federation: six non-cloud backups drawn from
  // the simulator's stream.
  bench::DauthOptions options;
  options.physical_ran = true;
  options.pool_size = 1;
  options.home_offline = true;
  options.backup_count = 6;
  options.backup_pool = bench::BackupPool::kNonCloud;
  options.config.threshold = 2;
  options.config.vectors_per_backup = 8;
  options.config.report_interval = 0;
  const bench::DauthBench bench(options);
  EXPECT_EQ(key_material_digest(bench.world()),
            "2f98007d5a24a0367a425b4dca8f32b8ecfe39003659bf67a6a7e569c68f7cc4");
}

TEST(FederationSpec, QuickstartKeyMaterialIsPinned) {
  const auto world = core::build(examples::quickstart_spec());
  EXPECT_EQ(key_material_digest(*world),
            "56309e6777466176f1d0d21d79738a9024813f899c7274513c7ce28c72687cef");
}

}  // namespace
}  // namespace dauth::testing
