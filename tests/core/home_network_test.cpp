// Unit-level HomeNetwork tests: slice management, dissemination accounting,
// local vector generation, and configuration limits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "../integration/federation_fixture.h"
#include "crypto/drbg.h"
#include "crypto/gf256.h"
#include "wire/writer.h"

namespace dauth::testing {
namespace {

const Supi kAlice("901550000000001");

TEST(HomeNetwork, RejectsMoreThan31Backups) {
  Federation f(2);
  std::vector<NetworkId> too_many;
  // Appended, not "b" + std::to_string(i): GCC 12 at -O3 flags that
  // operator+ with a false -Wrestrict.
  for (int i = 0; i < 32; ++i) too_many.emplace_back(std::string("b").append(std::to_string(i)));
  EXPECT_THROW(f.net(0).home().set_backups(too_many), std::invalid_argument);
}

TEST(HomeNetwork, SliceAssignmentsStableAcrossReconfiguration) {
  // Slices must never be recycled while material may be outstanding: after
  // dropping and re-adding backups, previously assigned networks keep their
  // slice and new ones get fresh slices.
  Federation f(6);
  auto& home = f.net(0).home();
  home.set_backups({f.net(1).id(), f.net(2).id(), f.net(3).id()});
  // Shrink, then extend with a new member.
  home.set_backups({f.net(1).id(), f.net(3).id()});
  home.set_backups({f.net(1).id(), f.net(3).id(), f.net(4).id()});

  // Exhausting the 31 slices proves they are not reused: 3 consumed above
  // (nets 1,2,3) + net 4 = 4; adding 27 more distinct ids is fine, the 28th
  // new id must throw.
  std::vector<NetworkId> ids = {f.net(1).id(), f.net(3).id(), f.net(4).id()};
  for (int i = 0; i < 27; ++i) ids.emplace_back("fresh-" + std::to_string(i));
  EXPECT_NO_THROW(home.set_backups(ids));
  ids.emplace_back("one-too-many");
  EXPECT_THROW(home.set_backups(ids), std::length_error);
}

TEST(HomeNetwork, RevokingAFormerBackupKeepsTheCurrentSet) {
  // A network an earlier set_backups dropped keeps its slice, and its
  // vectors may still be out, so it can still be revoked (§4.3): its slice
  // is retired. The current backup set, and the one published to the
  // directory, stays as it is.
  Federation f(5);
  auto& home = f.net(0).home();
  home.set_backups({f.net(1).id(), f.net(2).id(), f.net(3).id()});
  home.set_backups({f.net(1).id(), f.net(3).id()});
  const std::vector<NetworkId> current = {f.net(1).id(), f.net(3).id()};

  bool done = false;
  home.revoke_backup(f.net(2).id(), [&] { done = true; });
  f.simulator.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(home.metrics().revocations, 1u);
  EXPECT_EQ(home.backups(), current);
  const auto published = f.directory_server.backups(f.net(0).id());
  ASSERT_TRUE(published.has_value());
  EXPECT_EQ(published->backups, current);

  // The slice is retired: a second revocation of it is a no-op.
  home.revoke_backup(f.net(2).id());
  f.simulator.run();
  EXPECT_EQ(home.metrics().revocations, 1u);
}

TEST(HomeNetwork, DisseminationCountsMaterial) {
  Federation f(5);
  (void)f.provision(kAlice, 0, {1, 2, 3});
  const auto& m = f.net(0).home().metrics();
  EXPECT_EQ(m.vectors_disseminated, 3 * f.config.vectors_per_backup);
  EXPECT_EQ(m.shares_disseminated, 3 * f.config.vectors_per_backup * 3);
  // Every backup stored everything it was sent.
  for (std::size_t i : {1u, 2u, 3u}) {
    EXPECT_EQ(f.net(i).backup().stored_vectors(f.net(0).id(), kAlice),
              f.config.vectors_per_backup);
    EXPECT_EQ(f.net(i).backup().stored_shares(f.net(0).id(), kAlice),
              3 * f.config.vectors_per_backup);
  }
}

TEST(HomeNetwork, DisseminateUnknownSubscriberIsNoop) {
  Federation f(3);
  f.net(0).set_backups({f.net(1).id()});
  std::size_t reported = 99;
  f.net(0).home().disseminate(Supi("999999999999999"),
                              [&](std::size_t n) { reported = n; });
  f.simulator.run();
  EXPECT_EQ(reported, 0u);
}

TEST(HomeNetwork, DisseminateWithNoBackupsIsNoop) {
  Federation f(2);
  const auto keys = f.net(0).provision_subscriber(kAlice);
  (void)keys;
  std::size_t reported = 99;
  f.net(0).home().disseminate(kAlice, [&](std::size_t n) { reported = n; });
  f.simulator.run();
  EXPECT_EQ(reported, 0u);
}

TEST(HomeNetwork, LocalVectorsUseHomeSliceAndAdvance) {
  Federation f(2);
  f.net(0).provision_subscriber(kAlice);
  crypto::Key256 k1{}, k2{};
  const auto v1 = f.net(0).home().generate_local_vector(kAlice, k1);
  const auto v2 = f.net(0).home().generate_local_vector(kAlice, k2);
  EXPECT_EQ(aka::sqn_slice(v1.sqn), aka::kHomeSlice);
  EXPECT_EQ(aka::sqn_slice(v2.sqn), aka::kHomeSlice);
  EXPECT_GT(v2.sqn, v1.sqn);
  EXPECT_FALSE(ct_equal(k1, k2));
  EXPECT_NE(v1.rand, v2.rand);
  EXPECT_THROW(f.net(0).home().generate_local_vector(Supi("0"), k1), std::invalid_argument);
}

TEST(HomeNetwork, DisseminatedSqnsLandInTheBackupsSlice) {
  // Protocol invariant: a backup's vectors are confined to one slice, so
  // consumption order across backups never conflicts at the SIM.
  core::FederationConfig cfg = Federation::test_config();
  cfg.vectors_per_backup = 3;
  Federation f(4, cfg);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  f.network.node(f.net(0).node()).set_online(false);

  // Drain every vector through attaches and record accepted SQNs per path.
  auto ue = f.make_ue(kAlice, keys, 3);
  std::vector<std::uint64_t> accepted;
  for (int i = 0; i < 3; ++i) {
    const auto record = f.attach(*ue);
    if (!record.success) break;
    accepted.push_back(ue->usim().sqn_tracker().highest_overall());
  }
  ASSERT_GE(accepted.size(), 2u);
  // SQN high-water mark strictly increases per successful attach.
  for (std::size_t i = 1; i < accepted.size(); ++i) EXPECT_GT(accepted[i], accepted[i - 1]);
}

TEST(HomeNetwork, RoundDrawsEveryRandThenEveryCoefficientRow) {
  // A round's randomness is two requests on the home's DRBG: every RAND, in
  // generation order (backup by backup), then every vector's threshold - 1
  // coefficient rows. A twin DRBG reproduces the pushed RANDs from its
  // first request and every share ordinate from its second, and each
  // vector's shares recombine to its K_seaf.
  core::FederationConfig cfg = Federation::test_config();
  cfg.threshold = 3;
  Federation f(5, cfg);
  const std::vector<std::size_t> backups = {1, 2, 3, 4};
  std::map<std::size_t, core::StoreBatch> pushed;  // by share x - 1
  for (std::size_t b = 0; b < backups.size(); ++b) {
    f.rpc.register_service(f.net(backups[b]).node(), "backup.store",
                           [&, b](ByteView request, sim::Responder r) {
                             auto push = wire::decode<core::StoreMaterialRequest>(request);
                             pushed[b] = std::move(push.batches.at(0));
                             r.reply(wire::encode(sim::Ack{}));
                           });
  }
  const auto keys = f.provision(kAlice, 0, backups);
  ASSERT_EQ(pushed.size(), backups.size());

  const std::size_t n = backups.size() * cfg.vectors_per_backup;
  constexpr std::size_t kRows = 2 * 32;  // threshold - 1 rows of K_seaf's 32 bytes
  crypto::DeterministicDrbg twin("home:" + f.net(0).id().str(), f.spec.networks[0].key_seed);
  const Bytes rands = twin.bytes(16 * n);
  const Bytes coefficients = twin.bytes(n * kRows);

  std::size_t i = 0;  // the vector's place in generation order
  for (std::size_t b = 0; b < backups.size(); ++b) {
    for (const core::VectorLeaf& vector : pushed.at(b).vectors) {
      ASSERT_LT(i, n);
      EXPECT_EQ(to_bytes(ByteView(vector.rand)), to_bytes(ByteView(rands).subspan(16 * i, 16)))
          << "vector " << i;
      const aka::AuthVector av =
          aka::generate_auth_vector(keys, vector.sqn, vector.rand, cfg.serving_network_name);
      std::vector<crypto::ShamirShare> shares;
      for (std::size_t s = 0; s < backups.size(); ++s) {
        // Share i of a batch is its leaf v + i, after its v vectors.
        const core::StoreBatch& batch = pushed.at(s);
        const auto numbered = std::ranges::find_if(batch.shares, [&](const core::ShareLeaf& l) {
          return l.leaf == batch.vectors.size() + i;
        });
        ASSERT_NE(numbered, batch.shares.end()) << "vector " << i << " share " << s;
        const core::ShareLeaf share = *numbered;
        ASSERT_EQ(share.hxres_star, vector.hxres_star) << "vector " << i << " share " << s;
        ASSERT_EQ(share.x, s + 1);
        // K_seaf + c1 x + c2 x^2, byte by byte, from the twin's rows.
        Bytes expected(32);
        for (std::size_t j = 0; j < 32; ++j) {
          const std::uint8_t c1 = coefficients[i * kRows + j];
          const std::uint8_t c2 = coefficients[i * kRows + 32 + j];
          const std::uint8_t tail = crypto::gf256::add(crypto::gf256::mul(c2, share.x), c1);
          expected[j] = crypto::gf256::add(crypto::gf256::mul(tail, share.x), av.k_seaf[j]);
        }
        EXPECT_TRUE(ct_equal(ByteView(share.y), expected)) << "vector " << i << " share " << s;
        shares.push_back({share.x, SecretBytes(ByteView(share.y))});
      }
      for (std::size_t first = 0; first + cfg.threshold <= shares.size(); ++first) {
        const std::vector<crypto::ShamirShare> quorum(
            shares.begin() + static_cast<std::ptrdiff_t>(first),
            shares.begin() + static_cast<std::ptrdiff_t>(first + cfg.threshold));
        EXPECT_TRUE(ct_equal(crypto::shamir_combine(quorum), av.k_seaf)) << "vector " << i;
      }
      ++i;
    }
  }
  EXPECT_EQ(i, n);
}

TEST(ServingNetwork, HealthCacheStatesAndMetrics) {
  Federation f(5);
  const auto keys = f.provision(kAlice, 0, {1, 2, 3});
  auto& serving = f.net(4).serving();

  // Unknown home: assumed reachable; explicit hints override.
  serving.set_home_health(f.net(0).id(), false);
  auto ue = f.make_ue(kAlice, keys, 4);
  const auto record = f.attach(*ue);
  EXPECT_TRUE(record.success);
  EXPECT_EQ(record.path, "backup");          // hint respected, home never tried
  EXPECT_EQ(serving.metrics().home_fallbacks, 0u);  // no timeout was paid

  serving.set_home_health(f.net(0).id(), true);
  const auto record2 = f.attach(*ue);
  EXPECT_EQ(record2.path, "home-online");
}

TEST(ServingNetwork, MetricsTallyAttaches) {
  Federation f(4);
  const auto keys = f.provision(kAlice, 0, {1, 2});
  auto ue = f.make_ue(kAlice, keys, 3);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(f.attach(*ue).success);
  const auto& m = f.net(3).serving().metrics();
  EXPECT_EQ(m.attaches_started, 3u);
  EXPECT_EQ(m.attaches_succeeded, 3u);
  EXPECT_EQ(m.attaches_failed, 0u);
  EXPECT_EQ(m.home_auths, 3u);
  EXPECT_EQ(m.local_auths, 0u);
  EXPECT_EQ(m.backup_auths, 0u);
}

}  // namespace
}  // namespace dauth::testing
