// Tests for the secret hygiene type layer (src/common/secret.h): zeroize on
// destruction/move, redacting formatters, ct-only equality, and the
// secure_wipe primitive itself.
#include "common/secret.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <new>
#include <sstream>
#include <utility>

#include "common/bytes.h"

namespace dauth {
namespace {

ByteArray<16> pattern16() {
  ByteArray<16> a;
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::uint8_t>(i + 1);
  return a;
}

bool all_zero(const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

// ---- secure_wipe -------------------------------------------------------------

TEST(SecureWipe, ZeroizesExactRange) {
  std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  secure_wipe(buf + 2, 4);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_TRUE(all_zero(buf + 2, 4));
  EXPECT_EQ(buf[6], 7);
  EXPECT_EQ(buf[7], 8);

  // The wipe stores bytes up to a word boundary, then words, then bytes:
  // every start offset and every length 0-70 must clear exactly its range.
  alignas(8) std::uint8_t wide[96];
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 70; ++length) {
      for (std::size_t i = 0; i < sizeof(wide); ++i) wide[i] = static_cast<std::uint8_t>(i | 0x80);
      secure_wipe(wide + start, length);
      for (std::size_t i = 0; i < sizeof(wide); ++i) {
        const bool inside = i >= start && i < start + length;
        ASSERT_EQ(wide[i], inside ? 0 : static_cast<std::uint8_t>(i | 0x80))
            << "start " << start << " length " << length << " byte " << i;
      }
    }
  }
}

TEST(SecureWipe, ZeroLengthAndNullAreSafe) {
  std::uint8_t b = 0xAB;
  secure_wipe(&b, 0);
  EXPECT_EQ(b, 0xAB);
  secure_wipe(nullptr, 0);
}

// ---- Secret<N> lifecycle -----------------------------------------------------
//
// Destruction wipes storage; to observe that, the Secret is constructed with
// placement new into a caller-owned buffer and destroyed explicitly, then the
// raw buffer is inspected. Reading storage after the destructor runs is only
// defensible in a test, and only because the buffer itself is still alive.

TEST(Secret, DestructorWipesStorage) {
  // Non-zero sentinel: the all-zero check below can only pass because the
  // destructor wiped, never because the buffer happened to start at zero.
  alignas(Secret<16>) unsigned char storage[sizeof(Secret<16>)];
  std::fill(std::begin(storage), std::end(storage), 0xA5);
  auto* s = new (storage) Secret<16>(pattern16());
  EXPECT_EQ((*s)[0], 1);
  s->~Secret<16>();
  // The destructor ended the object's lifetime, so an optimizing compiler
  // treats the buffer as indeterminate (-Wmaybe-uninitialized at -O3). Read
  // it through an opaque pointer to see the bytes actually left in memory.
  const unsigned char* left = storage;
  __asm__ __volatile__("" : "+r"(left) : : "memory");
  EXPECT_TRUE(all_zero(left, sizeof(storage)));
}

TEST(Secret, MoveWipesSource) {
  Secret<16> src(pattern16());
  Secret<16> dst(std::move(src));
  EXPECT_TRUE(ct_equal(dst, ByteView(pattern16())));
  // NOLINTNEXTLINE(bugprone-use-after-move): wipe-on-move is the contract.
  EXPECT_TRUE(all_zero(src.data(), src.size()));

  Secret<16> assigned;
  assigned = std::move(dst);
  EXPECT_TRUE(ct_equal(assigned, ByteView(pattern16())));
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_TRUE(all_zero(dst.data(), dst.size()));
}

TEST(Secret, ExplicitWipeAndFill) {
  Secret<16> s(pattern16());
  s.wipe();
  EXPECT_TRUE(all_zero(s.data(), s.size()));
  s.fill(0x5A);
  EXPECT_EQ(s[15], 0x5A);
}

TEST(Secret, ViewCtorEnforcesLength) {
  const Bytes three = {1, 2, 3};
  EXPECT_THROW(Secret<16>{ByteView(three)}, std::invalid_argument);
  const ByteArray<16> raw = pattern16();
  const Secret<16> ok{ByteView(raw)};
  EXPECT_TRUE(ct_equal(ok, ByteView(raw)));
}

// ---- Secret<N> redaction and equality ----------------------------------------

TEST(Secret, ToHexRedacts) {
  const Secret<16> s(pattern16());
  EXPECT_EQ(to_hex(s), "<redacted:16>");
  // The explicit escape hatch still reveals for test vectors.
  EXPECT_EQ(to_hex(s.raw()), "0102030405060708090a0b0c0d0e0f10");
}

TEST(Secret, StreamInsertionRedacts) {
  std::ostringstream os;
  os << Secret<32>{};
  EXPECT_EQ(os.str(), "<redacted:32>");
}

TEST(Secret, EqualityOnlyThroughCtEqual) {
  const Secret<16> a(pattern16());
  const Secret<16> b(pattern16());
  EXPECT_TRUE(ct_equal(a, b));
  Secret<16> c(pattern16());
  c.mutable_view()[0] ^= 0xFF;
  EXPECT_FALSE(ct_equal(a, c));
  // operator== is deleted; this must stay non-compiling:
  //   bool bad = (a == b);
}

// ---- SecretBytes ---------------------------------------------------------------

TEST(SecretBytes, DestructorWipesStorage) {
  Bytes backing = {9, 9, 9, 9};
  const std::uint8_t* heap = nullptr;
  {
    SecretBytes s(std::move(backing));
    heap = s.data();
    EXPECT_EQ(s[0], 9);
  }
  // The vector's heap block outlives the wrapper only as freed memory, so it
  // cannot be inspected here; cover the observable path instead: wipe().
  (void)heap;
  SecretBytes s(Bytes{7, 7, 7});
  s.wipe();
  EXPECT_TRUE(all_zero(s.data(), s.size()));
}

TEST(SecretBytes, MoveLeavesSourceEmpty) {
  SecretBytes src(Bytes{1, 2, 3});
  SecretBytes dst(std::move(src));
  EXPECT_EQ(dst.size(), 3u);
  // NOLINTNEXTLINE(bugprone-use-after-move): emptiness is the contract.
  EXPECT_TRUE(src.empty());
}

TEST(SecretBytes, ShrinkingResizeWipesTail) {
  SecretBytes s(Bytes{1, 2, 3, 4, 5, 6});
  const std::uint8_t* base = s.data();
  s.resize(2);
  EXPECT_EQ(s.size(), 2u);
  // resize() down never reallocates, so the old tail is inspectable.
  EXPECT_TRUE(all_zero(base + 2, 4));
}

TEST(SecretBytes, RedactsAndComparesConstantTime) {
  const SecretBytes s(Bytes{1, 2, 3});
  EXPECT_EQ(to_hex(s), "<redacted:3>");
  std::ostringstream os;
  os << s;
  EXPECT_EQ(os.str(), "<redacted:3>");
  EXPECT_TRUE(ct_equal(s, SecretBytes(Bytes{1, 2, 3})));
  EXPECT_FALSE(ct_equal(s, SecretBytes(Bytes{1, 2, 4})));
  EXPECT_FALSE(ct_equal(s, SecretBytes(Bytes{1, 2})));
}

}  // namespace
}  // namespace dauth
