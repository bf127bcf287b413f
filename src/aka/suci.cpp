#include "aka/suci.h"

#include <cstring>

#include "common/secret.h"
#include "crypto/aes128.h"
#include "crypto/hmac.h"

namespace dauth::aka {
namespace {

struct DerivedKeys {
  Secret<16> enc_key;
  Secret<32> mac_key;
};

DerivedKeys derive_keys(const crypto::X25519Point& shared,
                        const crypto::X25519Point& ephemeral_public) {
  // HKDF with the ephemeral public key bound into the info string.
  const SecretBytes okm(crypto::hkdf(
      /*salt=*/{}, /*ikm=*/shared,
      /*info=*/concat(as_bytes("suci-profile-a"), ephemeral_public),
      /*length=*/48));
  DerivedKeys keys;
  std::memcpy(keys.enc_key.data(), okm.data(), 16);
  std::memcpy(keys.mac_key.data(), okm.data() + 16, 32);
  return keys;
}

ByteArray<8> compute_tag(const Secret<32>& mac_key, ByteView ciphertext) {
  const auto full = crypto::hmac_sha256(mac_key, ciphertext);
  return take<8>(full);
}

}  // namespace

Suci conceal_supi(const Supi& supi, const crypto::X25519Point& home_public_key,
                  crypto::RandomSource& random) {
  const crypto::X25519KeyPair ephemeral = crypto::x25519_generate(random);
  crypto::X25519Point shared = crypto::x25519(ephemeral.secret, home_public_key);
  const DerivedKeys keys = derive_keys(shared, ephemeral.public_key);
  secure_wipe(MutableByteView(shared));  // the ECDH output is keying material

  Suci suci;
  suci.mcc = std::string(supi.mcc());
  suci.mnc = std::string(supi.mnc());
  suci.ephemeral_public = ephemeral.public_key;

  suci.ciphertext = to_bytes(as_bytes(supi.msin()));
  const crypto::Aes128 cipher(keys.enc_key);
  crypto::aes128_ctr_xor(cipher, crypto::AesBlock{}, suci.ciphertext);

  suci.mac = compute_tag(keys.mac_key, suci.ciphertext);
  return suci;
}

std::optional<Supi> deconceal_suci(const Suci& suci,
                                   const crypto::X25519Scalar& home_secret_key) {
  crypto::X25519Point shared = crypto::x25519(home_secret_key, suci.ephemeral_public);
  const DerivedKeys keys = derive_keys(shared, suci.ephemeral_public);
  secure_wipe(MutableByteView(shared));

  if (!ct_equal(compute_tag(keys.mac_key, suci.ciphertext), suci.mac)) return std::nullopt;

  Bytes plaintext = suci.ciphertext;
  const crypto::Aes128 cipher(keys.enc_key);
  crypto::aes128_ctr_xor(cipher, crypto::AesBlock{}, plaintext);

  std::string digits = suci.mcc + suci.mnc;
  digits.append(plaintext.begin(), plaintext.end());
  return Supi(std::move(digits));
}

}  // namespace dauth::aka
