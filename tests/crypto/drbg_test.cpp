#include "crypto/drbg.h"

#include <gtest/gtest.h>

#include <set>

namespace dauth::crypto {
namespace {

TEST(Drbg, DeterministicForSameSeed) {
  DeterministicDrbg a("label", 7);
  DeterministicDrbg b("label", 7);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
}

TEST(Drbg, DifferentSeedsDiffer) {
  DeterministicDrbg a("label", 7);
  DeterministicDrbg b("label", 8);
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, DifferentLabelsDiffer) {
  DeterministicDrbg a("alpha", 7);
  DeterministicDrbg b("beta", 7);
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, SequentialDrawsDiffer) {
  DeterministicDrbg d("x", 1);
  const Bytes first = d.bytes(32);
  const Bytes second = d.bytes(32);
  EXPECT_NE(first, second);
}

TEST(Drbg, SplitDrawsMatchCombined) {
  // Request sizes shouldn't change the stream... HMAC_DRBG regenerates V per
  // call, so this property does NOT hold; instead verify stability: the same
  // sequence of calls yields the same outputs.
  DeterministicDrbg a("y", 2);
  DeterministicDrbg b("y", 2);
  (void)a.bytes(10);
  (void)b.bytes(10);
  EXPECT_EQ(a.bytes(20), b.bytes(20));
}

TEST(Drbg, FillExactSizes) {
  DeterministicDrbg d("z", 3);
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 100u}) {
    Bytes buf = d.bytes(n);
    EXPECT_EQ(buf.size(), n);
  }
}

TEST(Drbg, ArrayHelper) {
  DeterministicDrbg d("arr", 4);
  const auto a = d.array<16>();
  const auto b = d.array<16>();
  EXPECT_NE(a, b);
}

TEST(Drbg, NextU64Spread) {
  DeterministicDrbg d("u64", 5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(d.next_u64());
  EXPECT_EQ(seen.size(), 100u);  // no collisions expected
}

TEST(Drbg, ReseedChangesStream) {
  DeterministicDrbg a("r", 6);
  DeterministicDrbg b("r", 6);
  b.reseed(as_bytes("extra entropy"));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, RandomSourceInterface) {
  DeterministicDrbg d("iface", 7);
  RandomSource& source = d;
  Bytes buf(16);
  source.fill(buf);
  EXPECT_NE(buf, Bytes(16, 0));
}

TEST(Drbg, LongFillIsConsecutiveCappedRequests) {
  // SP 800-90A caps one generate request at 2^19 bits (64 KiB): a 200 KiB
  // fill is the stream of a twin's 64 + 64 + 64 + 8 KiB fills, and the
  // draw after it continues the same stream.
  static_assert(DeterministicDrbg::kMaxRequestBytes == 64 * 1024);
  DeterministicDrbg one("drbg-cap", 8);
  DeterministicDrbg twin("drbg-cap", 8);
  const Bytes whole = one.bytes(200 * 1024);
  Bytes pieces;
  for (const std::size_t kib : {64u, 64u, 64u, 8u}) {
    const Bytes piece = twin.bytes(kib * 1024);
    pieces.insert(pieces.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(whole, pieces);
  EXPECT_EQ(one.bytes(32), twin.bytes(32));

  // At the cap it is one request: a twin's two halves differ from it.
  DeterministicDrbg capped("drbg-cap", 9);
  DeterministicDrbg halves("drbg-cap", 9);
  const Bytes full = capped.bytes(64 * 1024);
  Bytes split = halves.bytes(32 * 1024);
  const Bytes second = halves.bytes(32 * 1024);
  split.insert(split.end(), second.begin(), second.end());
  EXPECT_NE(full, split);
}

TEST(Drbg, StreamIsPinned) {
  // A mixed sequence of fill sizes (empty, partial, whole and multi-block
  // draws) and reseeds, hashed: the digest pins every output byte and every
  // state update, so a faster HMAC or DRBG must leave it as it is.
  DeterministicDrbg d("drbg-pin", 42);
  Sha256 h;
  std::size_t draws = 0;
  for (std::size_t n : {0u, 1u, 7u, 16u, 31u, 32u, 33u, 64u, 65u, 100u, 255u}) {
    h.update(d.bytes(n));
    if (++draws % 3 == 0) d.reseed(d.bytes(n % 40));
  }
  d.reseed({});
  h.update(d.bytes(48));
  const std::uint64_t word = d.next_u64();
  for (int i = 0; i < 8; ++i) h.update(ByteArray<1>{static_cast<std::uint8_t>(word >> (8 * i))});
  DeterministicDrbg seeded(as_bytes("explicit seed material"));
  h.update(seeded.bytes(80));
  EXPECT_EQ(to_hex(h.finish()), "76a779659885daf96d806a63fdc7e99f2bc1a434b6299d8d2870367441bbe752");
}

}  // namespace
}  // namespace dauth::crypto
