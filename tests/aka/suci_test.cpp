#include "aka/suci.h"

#include <gtest/gtest.h>

#include "wire/reader.h"

namespace dauth::aka {
namespace {

TEST(Suci, ConcealDeconcealRoundTrip) {
  crypto::DeterministicDrbg rng("suci", 1);
  const auto home = crypto::x25519_generate(rng);
  const Supi supi("901550000000042");

  const Suci suci = conceal_supi(supi, home.public_key, rng);
  EXPECT_EQ(suci.mcc, "901");
  EXPECT_EQ(suci.mnc, "550");

  const auto recovered = deconceal_suci(suci, home.secret);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, supi);
}

TEST(Suci, MsinIsActuallyEncrypted) {
  crypto::DeterministicDrbg rng("suci", 2);
  const auto home = crypto::x25519_generate(rng);
  const Supi supi("901550000000042");
  const Suci suci = conceal_supi(supi, home.public_key, rng);

  // Ciphertext must not contain the MSIN digits verbatim.
  const std::string msin(supi.msin());
  const std::string ct(reinterpret_cast<const char*>(suci.ciphertext.data()),
                       suci.ciphertext.size());
  EXPECT_EQ(ct.find(msin), std::string::npos);
  EXPECT_NE(ct, msin);
}

TEST(Suci, FreshEphemeralPerConcealment) {
  crypto::DeterministicDrbg rng("suci", 3);
  const auto home = crypto::x25519_generate(rng);
  const Supi supi("901550000000042");
  const Suci a = conceal_supi(supi, home.public_key, rng);
  const Suci b = conceal_supi(supi, home.public_key, rng);
  EXPECT_NE(a.ephemeral_public, b.ephemeral_public);
  EXPECT_NE(a.ciphertext, b.ciphertext);  // unlinkability across attaches
  // Both still decrypt.
  EXPECT_EQ(deconceal_suci(a, home.secret), supi);
  EXPECT_EQ(deconceal_suci(b, home.secret), supi);
}

TEST(Suci, WireFormRoundTripsAndRejectsTrailingBytes) {
  crypto::DeterministicDrbg rng("suci", 5);
  const auto home = crypto::x25519_generate(rng);
  const Supi supi("901550000000042");
  const Suci suci = conceal_supi(supi, home.public_key, rng);

  const Bytes frame = wire::encode(suci);
  const Suci decoded = wire::decode<Suci>(frame);
  EXPECT_EQ(decoded.mcc, suci.mcc);
  EXPECT_EQ(decoded.mnc, suci.mnc);
  EXPECT_EQ(decoded.ephemeral_public, suci.ephemeral_public);
  EXPECT_EQ(decoded.ciphertext, suci.ciphertext);
  EXPECT_EQ(decoded.mac, suci.mac);
  EXPECT_EQ(deconceal_suci(decoded, home.secret), supi);

  Bytes extended = frame;
  extended.push_back(0x00);
  EXPECT_THROW((void)wire::decode<Suci>(extended), wire::WireError);
}

TEST(Suci, WrongKeyFailsMac) {
  crypto::DeterministicDrbg rng("suci", 4);
  const auto home = crypto::x25519_generate(rng);
  const auto other = crypto::x25519_generate(rng);
  const Suci suci = conceal_supi(Supi("901550000000042"), home.public_key, rng);
  EXPECT_FALSE(deconceal_suci(suci, other.secret).has_value());
}

TEST(Suci, TamperedCiphertextFailsMac) {
  crypto::DeterministicDrbg rng("suci", 5);
  const auto home = crypto::x25519_generate(rng);
  Suci suci = conceal_supi(Supi("901550000000042"), home.public_key, rng);
  suci.ciphertext[0] ^= 0x01;
  EXPECT_FALSE(deconceal_suci(suci, home.secret).has_value());
}

TEST(Suci, TamperedMacFails) {
  crypto::DeterministicDrbg rng("suci", 6);
  const auto home = crypto::x25519_generate(rng);
  Suci suci = conceal_supi(Supi("901550000000042"), home.public_key, rng);
  suci.mac[3] ^= 0x80;
  EXPECT_FALSE(deconceal_suci(suci, home.secret).has_value());
}

TEST(Suci, TamperedEphemeralKeyFails) {
  crypto::DeterministicDrbg rng("suci", 7);
  const auto home = crypto::x25519_generate(rng);
  Suci suci = conceal_supi(Supi("901550000000042"), home.public_key, rng);
  suci.ephemeral_public[5] ^= 0x01;
  EXPECT_FALSE(deconceal_suci(suci, home.secret).has_value());
}

TEST(Suci, DifferentSubscribersDistinct) {
  crypto::DeterministicDrbg rng("suci", 8);
  const auto home = crypto::x25519_generate(rng);
  const Suci a = conceal_supi(Supi("901550000000001"), home.public_key, rng);
  const Suci b = conceal_supi(Supi("901550000000002"), home.public_key, rng);
  EXPECT_EQ(deconceal_suci(a, home.secret), Supi("901550000000001"));
  EXPECT_EQ(deconceal_suci(b, home.secret), Supi("901550000000002"));
}

TEST(Suci, BackupNetworkCanDeconcealWithSharedKey) {
  // dAuth §4.2.1: the home network shares the SUCI decryption key with its
  // backups; a backup holding home.secret can de-conceal during an outage.
  crypto::DeterministicDrbg rng("suci", 9);
  const auto home = crypto::x25519_generate(rng);
  const crypto::X25519Scalar shared_with_backup = home.secret;

  const Supi supi("901550000000042");
  const Suci suci = conceal_supi(supi, home.public_key, rng);
  EXPECT_EQ(deconceal_suci(suci, shared_with_backup), supi);
}

}  // namespace
}  // namespace dauth::aka
