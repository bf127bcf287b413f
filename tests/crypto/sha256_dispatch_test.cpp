// Differential tests for the SHA-256 compression functions
// (docs/PERFORMANCE.md §9): the portable C++ compression is the reference,
// and the x86-64 SHA-NI compression must agree with it bit-for-bit on random
// (state, block) pairs, on the FIPS 180-4 example messages, and on every
// message length the streaming buffer logic can split. The hardware half is
// skipped only on CPUs without SHA-NI.
//
// sha256_each (docs/PERFORMANCE.md §27) is held to sha256() on each of its
// paths, the AVX-512 lanes and one message at a time through SHA-NI and
// through the portable compression, for every message length from 0 to
// 200 bytes and every count from 0 to 40; MerkleTree, which hashes its
// levels through it, to an RFC 9162 reference built here from sha256().
#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/merkle.h"

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

using Each = void (*)(ByteView, std::size_t, std::span<Sha256Digest>) noexcept;

struct EachPath {
  const char* name;
  Each each;       // null when this build has no such path
  bool runnable;   // whether this CPU runs it
};

void PrintTo(const EachPath& path, std::ostream* os) { *os << path.name; }

EachPath lanes() {
#if defined(__x86_64__)
  return {"Avx512Lanes", detail::sha256_each_lanes, detail::sha256_lanes_available()};
#else
  return {"Avx512Lanes", nullptr, false};
#endif
}

EachPath serial_shani() {
#if defined(__x86_64__)
  return {"ShaNiSerial",
          [](ByteView messages, std::size_t length, std::span<Sha256Digest> out) noexcept {
            detail::sha256_each_serial(detail::sha256_compress_shani, messages, length, out);
          },
          detail::sha256_shani_available()};
#else
  return {"ShaNiSerial", nullptr, false};
#endif
}

EachPath serial_portable() {
  return {"PortableSerial",
          [](ByteView messages, std::size_t length, std::span<Sha256Digest> out) noexcept {
            detail::sha256_each_serial(detail::sha256_compress_portable, messages, length, out);
          },
          true};
}

TEST(Sha256Dispatch, LiveLanePathIsTheAvailableOne) {
  const bool lanes_live = detail::sha256_lanes_available();
  const char* path = lanes_live ? "avx512 lanes" : "serial";
  std::printf("[ info     ] live sha256_each path: %s\n", path);
  RecordProperty("sha256_each_path", path);
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(lanes_live,
            __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw"));
#else
  EXPECT_FALSE(lanes_live);
#endif
  // The dispatched entry point agrees with sha256() on a full group of
  // lanes and a remainder.
  DeterministicDrbg rng("sha256-dispatch", 3);
  const Bytes messages = rng.bytes(19 * 65);
  std::vector<Sha256Digest> out(19);
  sha256_each(messages, 65, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], sha256(ByteView(messages).subspan(i * 65, 65))) << "message " << i;
  }
}

class Sha256Each : public ::testing::TestWithParam<EachPath> {
 protected:
  void SetUp() override {
    if (!GetParam().runnable) GTEST_SKIP() << "CPU lacks the " << GetParam().name << " path";
  }
};

TEST_P(Sha256Each, EveryLengthAndCountMatchesSha256) {
  // Lengths 0-200 cover one to four blocks, and 56-63 mod 64, where the
  // padding spills into a block of its own; counts 0-40 cover no group of
  // lanes, one and two, each with every remainder.
  const Each each = GetParam().each;
  DeterministicDrbg rng("sha256-each", 0);
  const Bytes data = rng.bytes(200 * 40);
  std::vector<Sha256Digest> expected;
  std::vector<Sha256Digest> out;
  for (std::size_t length = 0; length <= 200; ++length) {
    const ByteView messages = ByteView(data).first(40 * length);
    expected.clear();
    for (std::size_t i = 0; i < 40; ++i) {
      expected.push_back(sha256(messages.subspan(i * length, length)));
    }
    for (std::size_t count = 0; count <= 40; ++count) {
      out.assign(count + 1, Sha256Digest{});  // one more than asked for: left alone
      each(messages.first(count * length), length, std::span(out).first(count));
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], expected[i])
            << "length " << length << " count " << count << " message " << i;
      }
      ASSERT_EQ(out[count], Sha256Digest{}) << "length " << length << " count " << count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, Sha256Each,
                         ::testing::Values(lanes(), serial_shani(), serial_portable()),
                         [](const ::testing::TestParamInfo<EachPath>& param_info) {
                           return std::string(param_info.param.name);
                         });

// RFC 9162 §2.1.1 over leaf hashes: a node is SHA-256(0x01 || left || right),
// and the left subtree holds the largest power of two below n leaves.
Sha256Digest reference_node(const Sha256Digest& left, const Sha256Digest& right) {
  Bytes message{0x01};
  message.insert(message.end(), left.begin(), left.end());
  message.insert(message.end(), right.begin(), right.end());
  return sha256(message);
}

Sha256Digest reference_root(std::span<const Sha256Digest> leaves) {
  if (leaves.size() == 1) return leaves[0];
  std::size_t k = 1;
  while (2 * k < leaves.size()) k *= 2;
  return reference_node(reference_root(leaves.first(k)), reference_root(leaves.subspan(k)));
}

TEST(Sha256Dispatch, MerkleTreesMatchAnRfc9162Reference) {
  DeterministicDrbg rng("sha256-each", 1);
  std::vector<Sha256Digest> leaves;
  for (std::size_t n = 1; n <= 300; ++n) {
    leaves.push_back(rng.array<32>());
    // The levels by neighbours paired and an odd last node promoted, which
    // is the same tree; the tree stores its third level up, or its root
    // alone when that is lower.
    std::vector<std::vector<Sha256Digest>> levels{leaves};
    while (levels.back().size() > 1) {
      const std::vector<Sha256Digest>& below = levels.back();
      std::vector<Sha256Digest> above;
      for (std::size_t i = 0; i + 1 < below.size(); i += 2) {
        above.push_back(reference_node(below[i], below[i + 1]));
      }
      if (below.size() % 2 == 1) above.push_back(below.back());
      levels.push_back(std::move(above));
    }
    std::vector<Sha256Digest> stored;
    for (std::size_t level = 0; level < levels.size(); ++level) {
      if (level >= 3 || level + 1 == levels.size()) {
        stored.insert(stored.end(), levels[level].begin(), levels[level].end());
      }
    }
    const MerkleTree tree(leaves);
    ASSERT_EQ(tree.root(), reference_root(leaves)) << n << " leaves";
    ASSERT_EQ(levels.back()[0], tree.root()) << n << " leaves";
    ASSERT_TRUE(std::ranges::equal(tree.nodes(), stored)) << n << " leaves";
  }
  EXPECT_EQ(merkle_node_hash(leaves[0], leaves[1]), reference_node(leaves[0], leaves[1]));
}

}  // namespace
}  // namespace dauth::crypto
