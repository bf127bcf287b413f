// Differential tests for the SHA-256 compression functions
// (docs/PERFORMANCE.md §9): the portable C++ compression is the reference,
// and the x86-64 SHA-NI compression must agree with it bit-for-bit on random
// (state, block) pairs, on the FIPS 180-4 example messages, and on every
// message length the streaming buffer logic can split. The hardware half is
// skipped only on CPUs without SHA-NI.
#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

#include "crypto/drbg.h"

namespace dauth::crypto {
namespace {

using Compress = void (*)(std::uint32_t*, const std::uint8_t*) noexcept;

struct Impl {
  const char* name;
  Compress compress;  // null when this build has no such implementation
};

void PrintTo(const Impl& impl, std::ostream* os) { *os << impl.name; }

Impl portable() { return {"Portable", detail::sha256_compress_portable}; }

Impl shani() {
#if defined(__x86_64__)
  return {"ShaNi", detail::sha256_compress_shani};
#else
  return {"ShaNi", nullptr};
#endif
}

bool runnable(const Impl& impl) {
  return impl.compress == detail::sha256_compress_portable ||
         (impl.compress != nullptr && detail::sha256_shani_available());
}

/// One-shot SHA-256 over a caller-chosen compression: FIPS 180-4 padding,
/// then every block through `compress`.
Sha256Digest hash_with(Compress compress, ByteView message) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bit_len = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bit_len >> (8 * i)));
  for (std::size_t off = 0; off < padded.size(); off += 64) compress(state, padded.data() + off);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j)
      digest[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
  return digest;
}

TEST(Sha256Dispatch, LivePathIsTheAvailableOne) {
  const bool hw = detail::sha256_shani_available();
  std::printf("[ info     ] live SHA-256 compression: %s\n", hw ? "sha-ni" : "portable");
  RecordProperty("sha256_compression", hw ? "sha-ni" : "portable");

  // The dispatched entry point computes the reference result, and it picks
  // SHA-NI exactly when the CPU reports the extension.
  DeterministicDrbg rng("sha256-dispatch", 0);
  const auto block = rng.array<64>();
  std::uint32_t live[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint32_t reference[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  detail::sha256_compress(live, block.data());
  detail::sha256_compress_portable(reference, block.data());
  EXPECT_EQ(0, std::memcmp(live, reference, sizeof(live)));
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(hw, __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"));
#else
  EXPECT_FALSE(hw);
#endif
}

TEST(Sha256Dispatch, ShaniMatchesPortableOnRandomStatesAndBlocks) {
  const Impl hw = shani();
  if (!runnable(hw)) GTEST_SKIP() << "CPU lacks SHA-NI; only the portable compression runs";
  DeterministicDrbg rng("sha256-dispatch", 1);
  for (int i = 0; i < 10000; ++i) {
    const auto state_bytes = rng.array<32>();
    const auto block = rng.array<64>();
    std::uint32_t a[8];
    std::memcpy(a, state_bytes.data(), sizeof(a));
    std::uint32_t b[8];
    std::memcpy(b, a, sizeof(a));
    detail::sha256_compress_portable(a, block.data());
    hw.compress(b, block.data());
    ASSERT_EQ(0, std::memcmp(a, b, sizeof(a))) << "pair " << i;
  }
}

class Sha256Compression : public ::testing::TestWithParam<Impl> {
 protected:
  void SetUp() override {
    if (!runnable(GetParam())) GTEST_SKIP() << "CPU lacks SHA-NI; hardware half skipped";
  }
};

TEST_P(Sha256Compression, Fips180Examples) {
  const Compress compress = GetParam().compress;
  EXPECT_EQ(to_hex(hash_with(compress, {})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(hash_with(compress, as_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(hash_with(
                compress, as_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(hash_with(compress,
                             as_bytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                                      "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  const std::string million(1000000, 'a');
  EXPECT_EQ(to_hex(hash_with(compress, as_bytes(million))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Compression, EveryStreamingSplitUpTo300Bytes) {
  const Compress compress = GetParam().compress;
  DeterministicDrbg rng("sha256-dispatch", 2);
  const Bytes data = rng.bytes(300);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const ByteView message(data.data(), len);
    const Sha256Digest expected = hash_with(compress, message);
    ASSERT_EQ(expected, hash_with(detail::sha256_compress_portable, message)) << "len " << len;
    for (std::size_t split = 0; split <= len; ++split) {
      Sha256 ctx;
      ctx.update(message.first(split));
      ctx.update(message.subspan(split));
      ASSERT_EQ(ctx.finish(), expected) << "len " << len << " split " << split;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Implementations, Sha256Compression, ::testing::Values(portable(), shani()),
                         [](const ::testing::TestParamInfo<Impl>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace dauth::crypto
