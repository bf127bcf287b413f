#include "crypto/pairwise.h"

#include <gtest/gtest.h>

namespace dauth::crypto {
namespace {

// RFC 7748 §6.1's two key pairs, whose shared secret is
// 4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742.
const X25519Scalar kAlice(
    array_from_hex<32>("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"));
const X25519Point kAlicePublic =
    array_from_hex<32>("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
const X25519Scalar kBob(
    array_from_hex<32>("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"));
const X25519Point kBobPublic =
    array_from_hex<32>("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

constexpr std::string_view kLabel = "dauth-push-v1";

/// The MAC of a fixed message under `key`, which stands for the key itself.
std::string mac_of(const HmacSha256& key) { return to_hex(key.mac({as_bytes("store push")})); }

TEST(PairwiseKey, KnownAnswer) {
  // K = HMAC-SHA-256(shared, "dauth-push-v1" || u32le 5 || "net-1" ||
  // u32le 5 || "net-2"), computed apart from this code; the MAC below is
  // HMAC-SHA-256(K, "store push").
  const auto key = derive_pairwise_key(kAlice, kBobPublic, kLabel, "net-1", "net-2");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(mac_of(*key), "c66e408f8bc8b45a3670195eff7adb2f34f1111a16515d8e7875187a7ff73494");
}

TEST(PairwiseKey, BothSidesDeriveTheSameKey) {
  const auto alice = derive_pairwise_key(kAlice, kBobPublic, kLabel, "net-1", "net-2");
  const auto bob = derive_pairwise_key(kBob, kAlicePublic, kLabel, "net-1", "net-2");
  ASSERT_TRUE(alice.has_value() && bob.has_value());
  EXPECT_EQ(mac_of(*alice), mac_of(*bob));
}

TEST(PairwiseKey, LabelAndEachIdChangeTheKey) {
  const std::string base = mac_of(*derive_pairwise_key(kAlice, kBobPublic, kLabel, "a", "b"));
  EXPECT_NE(mac_of(*derive_pairwise_key(kAlice, kBobPublic, "dauth-push-v2", "a", "b")), base);
  EXPECT_NE(mac_of(*derive_pairwise_key(kAlice, kBobPublic, kLabel, "c", "b")), base);
  EXPECT_NE(mac_of(*derive_pairwise_key(kAlice, kBobPublic, kLabel, "a", "c")), base);
  // The pair is ordered, and each id is framed by its length.
  EXPECT_NE(mac_of(*derive_pairwise_key(kAlice, kBobPublic, kLabel, "b", "a")), base);
  EXPECT_NE(mac_of(*derive_pairwise_key(kAlice, kBobPublic, kLabel, "ab", "")),
            mac_of(*derive_pairwise_key(kAlice, kBobPublic, kLabel, "a", "b")));
}

TEST(PairwiseKey, AnAllZeroSharedSecretIsRefused) {
  // u = 0 is a small-order point: every scalar maps it to zero (RFC 7748
  // §6.1), so its "shared secret" is known to anyone.
  const X25519Point zero{};
  EXPECT_FALSE(derive_pairwise_key(kAlice, zero, kLabel, "net-1", "net-2").has_value());
  PairwiseKeys keys(kAlice, std::string(kLabel));
  EXPECT_EQ(keys.get("net-1", "net-2", zero), nullptr);
}

TEST(PairwiseKeys, CachesEachPairUntilThePeerKeyChanges) {
  PairwiseKeys keys(kAlice, std::string(kLabel));
  const HmacSha256* first = keys.get("net-1", "net-2", kBobPublic);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(keys.get("net-1", "net-2", kBobPublic), first);
  EXPECT_EQ(mac_of(*first),
            mac_of(*derive_pairwise_key(kAlice, kBobPublic, kLabel, "net-1", "net-2")));

  // Another pair gets a key of its own; a new peer key replaces the pair's.
  const HmacSha256* other = keys.get("net-1", "net-3", kBobPublic);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(mac_of(*other), mac_of(*first));
  const X25519Point rotated = x25519_base(kAlice);
  const HmacSha256* replaced = keys.get("net-1", "net-2", rotated);
  ASSERT_NE(replaced, nullptr);
  EXPECT_EQ(mac_of(*replaced),
            mac_of(*derive_pairwise_key(kAlice, rotated, kLabel, "net-1", "net-2")));
  EXPECT_NE(mac_of(*replaced),
            mac_of(*derive_pairwise_key(kAlice, kBobPublic, kLabel, "net-1", "net-2")));
}

}  // namespace
}  // namespace dauth::crypto
