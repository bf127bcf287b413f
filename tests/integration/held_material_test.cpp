// The heap a backup spends per held bundle (docs/PERFORMANCE.md §13, §17, §18).
//
// A backup holds one key share of every vector of every user it backs up,
// so the bytes per held bundle bound how many users one node can back up.
// The check reads glibc's in-use heap before and after dissemination, so it
// skips under the sanitizers, whose allocators replace malloc.
#include <gtest/gtest.h>

#include <malloc.h>

#include <string>

#include "federation_fixture.h"

namespace dauth::testing {
namespace {

TEST(HeldMaterial, HeapPerHeldBundleIsWithinBudget) {
#ifdef DAUTH_SANITIZE
  GTEST_SKIP() << "sanitizer allocators replace malloc";
#else
  // backup_steady's shape at a twelfth of its users: eight backups, each
  // holding 16 vectors of its own per user and a share of all 128.
  constexpr std::size_t kBackups = 8;
  constexpr std::size_t kUsers = 8;
  core::FederationConfig config = Federation::test_config();
  config.vectors_per_backup = 16;
  Federation f(kBackups + 2, config);
  core::HomeSpec home{f.net(0).id(), {}, {}};
  for (std::size_t b = 1; b <= kBackups; ++b) home.backups.push_back(f.net(b).id());
  for (std::size_t u = 0; u < kUsers; ++u) {
    home.subscribers.emplace_back("90155000000" + std::to_string(1000 + u));
  }

  // Provisioned, with every round queued (a queued round holds only its
  // per-backup counts), then disseminated.
  f.declare(home);
  const std::size_t provisioned = mallinfo2().uordblks;
  f.simulator.run();
  const std::size_t disseminated = mallinfo2().uordblks;

  std::size_t bundles = 0;
  for (std::size_t b = 1; b <= kBackups; ++b) {
    for (const Supi& supi : home.subscribers) {
      bundles += f.net(b).backup().stored_vectors(home.home, supi) +
                 f.net(b).backup().stored_shares(home.home, supi);
    }
  }
  ASSERT_EQ(bundles, kBackups * kUsers * (16 + kBackups * 16));
  ASSERT_GT(disseminated, provisioned);
  const double per_bundle = static_cast<double>(disseminated - provisioned) / bundles;
  // 79 B measured (x86-64, glibc 2.36 malloc), plus 8 B for allocator and
  // toolchain drift. A batch tree that kept its leaf level measured 112 B
  // (docs/PERFORMANCE.md §18), and a share held as a std::map node with a
  // shared_ptr to its batch 168 B (§17).
  EXPECT_LE(per_bundle, 87.0) << "heap per held bundle";
#endif
}

}  // namespace
}  // namespace dauth::testing
