#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <new>
#include <string>

namespace dauth::crypto {
namespace {

// RFC 4231 HMAC-SHA-256 test cases.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, as_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(as_bytes("Jefe"),
                               as_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t i = 1; i <= 25; ++i) key.push_back(i);
  const Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);  // key longer than block size -> hashed first
  EXPECT_EQ(to_hex(hmac_sha256(
                key, as_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key,
                as_bytes("This is a test using a larger than block-size key and a "
                         "larger than block-size data. The key needs to be hashed "
                         "before being used by the HMAC algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// RFC 5869 HKDF-SHA-256 test case 1.
// ---- The keyed type ---------------------------------------------------------

TEST(HmacSha256, PartsMacLikeTheirConcatenation) {
  // RFC 4231 case 2, its message fed in parts, and the streaming form.
  const HmacSha256 hmac(as_bytes("Jefe"));
  const std::string expected = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  EXPECT_EQ(to_hex(hmac.mac({as_bytes("what do ya"), {}, as_bytes(" want for nothing?")})),
            expected);
  Sha256 inner = hmac.start();
  inner.update(as_bytes("what do ya want "));
  inner.update(as_bytes("for nothing?"));
  EXPECT_EQ(to_hex(hmac.finish(inner)), expected);
  // The key is reused: a second MAC under it is independent of the first.
  EXPECT_EQ(to_hex(hmac.mac({as_bytes("what do ya want for nothing?")})), expected);
}

TEST(HmacSha256, DestructorWipesStorage) {
  // The midstates after the ipad and opad blocks are key-equivalent: anyone
  // holding them can MAC under the key. A long key's digest goes through
  // them too. Constructed in a non-zero caller-owned buffer and destroyed
  // explicitly, every byte of the object must read zero afterwards.
  alignas(HmacSha256) unsigned char storage[sizeof(HmacSha256)];
  std::fill(std::begin(storage), std::end(storage), 0xA5);
  const Bytes key(131, 0xaa);  // longer than a block: hashed first
  auto* hmac = new (storage) HmacSha256(key);
  EXPECT_EQ(to_hex(hmac->mac({as_bytes("Test Using Larger Than Block-Size Key - Hash Key First")})),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  hmac->~HmacSha256();
  // Read the ended object's bytes through an opaque pointer (see
  // Secret.DestructorWipesStorage).
  const unsigned char* left = storage;
  __asm__ __volatile__("" : "+r"(left) : : "memory");
  for (std::size_t i = 0; i < sizeof(storage); ++i) ASSERT_EQ(left[i], 0) << "byte " << i;
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");

  const auto prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3 (zero-length salt and info).
TEST(Hkdf, Rfc5869Case3) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandLengthLimit) {
  const Bytes prk(32, 0x01);
  EXPECT_NO_THROW(hkdf_expand(prk, {}, 255 * 32));
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

TEST(Hkdf, DifferentInfoGivesDifferentKeys) {
  const Bytes ikm(32, 0x42);
  const Bytes a = hkdf({}, ikm, as_bytes("context-a"), 32);
  const Bytes b = hkdf({}, ikm, as_bytes("context-b"), 32);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace dauth::crypto
