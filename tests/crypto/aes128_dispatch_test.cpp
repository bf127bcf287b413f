// Differential tests for the AES-128 implementations: the portable code is
// the reference, and the x86-64 AES-NI key expansion and block function
// must agree with it bit-for-bit on random keys and blocks and on the
// FIPS 197 and SP 800-38A vectors. The hardware half is skipped only on
// CPUs without AES-NI.
#include "crypto/aes128.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

#include "crypto/drbg.h"

namespace dauth::crypto {
namespace {

using Expand = void (*)(const std::uint8_t*, std::uint8_t*) noexcept;
using Encrypt = void (*)(const std::uint8_t*, const std::uint8_t*, std::uint8_t*) noexcept;

struct Impl {
  const char* name;
  Expand expand;  // null when this build has no such implementation
  Encrypt encrypt;
};

void PrintTo(const Impl& impl, std::ostream* os) { *os << impl.name; }

Impl portable() {
  return {"Portable", detail::aes128_expand_portable, detail::aes128_encrypt_portable};
}

Impl aes_ni() {
#if defined(__x86_64__)
  return {"AesNi", detail::aes128_expand_ni, detail::aes128_encrypt_ni};
#else
  return {"AesNi", nullptr, nullptr};
#endif
}

bool runnable(const Impl& impl) {
  return impl.expand == detail::aes128_expand_portable ||
         (impl.expand != nullptr && detail::aes128_ni_available());
}

/// One block under `key` through `impl`'s own schedule.
AesBlock encrypt_with(const Impl& impl, const AesKey& key, const AesBlock& in) {
  std::uint8_t schedule[176];
  impl.expand(key.data(), schedule);
  AesBlock out;
  impl.encrypt(schedule, in.data(), out.data());
  return out;
}

TEST(Aes128Dispatch, LivePathIsTheAvailableOne) {
  const bool hw = detail::aes128_ni_available();
  std::printf("[ info     ] live AES-128 path: %s\n", hw ? "aes-ni" : "portable");
  RecordProperty("aes128_path", hw ? "aes-ni" : "portable");

  // Aes128 computes the reference result, and it picks AES-NI exactly when
  // the CPU reports the extension.
  DeterministicDrbg rng("aes128-dispatch", 0);
  const AesKey key = rng.array<16>();
  const AesBlock block = rng.array<16>();
  EXPECT_EQ(Aes128(key).encrypt_block(block), encrypt_with(portable(), key, block));
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(hw, __builtin_cpu_supports("aes") != 0);
#else
  EXPECT_FALSE(hw);
#endif
}

TEST(Aes128Dispatch, AesNiMatchesPortableOnRandomKeysAndBlocks) {
  const Impl hw = aes_ni();
  if (!runnable(hw)) GTEST_SKIP() << "CPU lacks AES-NI; only the portable path runs";
  DeterministicDrbg rng("aes128-dispatch", 1);
  for (int i = 0; i < 10000; ++i) {
    const AesKey key = rng.array<16>();
    const AesBlock block = rng.array<16>();
    std::uint8_t reference[176];
    std::uint8_t schedule[176];
    detail::aes128_expand_portable(key.data(), reference);
    hw.expand(key.data(), schedule);
    ASSERT_EQ(0, std::memcmp(reference, schedule, sizeof(schedule))) << "key " << i;
    ASSERT_EQ(encrypt_with(hw, key, block), encrypt_with(portable(), key, block)) << "pair " << i;
  }
}

class Aes128Path : public ::testing::TestWithParam<Impl> {
 protected:
  void SetUp() override {
    if (!runnable(GetParam())) GTEST_SKIP() << "CPU lacks AES-NI; hardware half skipped";
  }
};

TEST_P(Aes128Path, Fips197Vectors) {
  const Impl& impl = GetParam();
  const auto key = array_from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c");
  // Appendix A.1: the last round key of the expansion.
  std::uint8_t schedule[176];
  impl.expand(key.data(), schedule);
  EXPECT_EQ(to_hex(ByteView(schedule + 160, 16)), "d014f9a8c9ee2589e13f0cc8b6630ca6");
  // Appendix B and C.1.
  EXPECT_EQ(to_hex(encrypt_with(impl, key, array_from_hex<16>("3243f6a8885a308d313198a2e0370734"))),
            "3925841d02dc09fbdc118597196a0b32");
  EXPECT_EQ(to_hex(encrypt_with(impl, array_from_hex<16>("000102030405060708090a0b0c0d0e0f"),
                                array_from_hex<16>("00112233445566778899aabbccddeeff"))),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// SP 800-38A F.1.1 (ECB) and F.5.1 (CTR), AES-128: the same four plaintext
// blocks under the same key.
TEST_P(Aes128Path, Sp80038aEcbAndCtrVectors) {
  const Impl& impl = GetParam();
  const auto key = array_from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c");
  const char* plains[] = {
      "6bc1bee22e409f96e93d7e117393172a", "ae2d8a571e03ac9c9eb76fac45af8e51",
      "30c81c46a35ce411e5fbc1191a0a52ef", "f69f2445df4f9b17ad2b417be66c3710"};
  const char* ecb[] = {
      "3ad77bb40d7a3660a89ecaf32466ef97", "f5d3d58503b9699de785895a96fdbaaf",
      "43b1cd7f598ece23881b00e3ed030688", "7b0c785e27e8ad3f8223207104725dd4"};
  const char* ctr[] = {
      "874d6191b620e3261bef6864990db6ce", "9806f66b7970fdff8617187bb9fffdff",
      "5ae4df3edbd5d35e5b4f09020db03eab", "1e031dda2fbe03d1792170a0f3009cee"};
  AesBlock counter = array_from_hex<16>("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  for (int i = 0; i < 4; ++i) {
    const AesBlock plain = array_from_hex<16>(plains[i]);
    EXPECT_EQ(to_hex(encrypt_with(impl, key, plain)), ecb[i]) << "block " << i;
    const AesBlock keystream = encrypt_with(impl, key, counter);
    AesBlock cipher;
    for (int j = 0; j < 16; ++j) cipher[j] = static_cast<std::uint8_t>(plain[j] ^ keystream[j]);
    EXPECT_EQ(to_hex(cipher), ctr[i]) << "block " << i;
    for (int j = 15; j >= 12; --j) {  // the low 32 bits, big-endian
      if (++counter[j] != 0) break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Implementations, Aes128Path, ::testing::Values(portable(), aes_ni()),
                         [](const ::testing::TestParamInfo<Impl>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace dauth::crypto
