// SUCI: Subscription Concealed Identifier (TS 33.501 §6.12, Annex C).
//
// 5G UEs never send their permanent identifier (SUPI) in the clear; they
// encrypt the subscriber part (MSIN) to the home network's public key with
// an ECIES scheme. We implement a Profile-A-shaped construction:
//   ephemeral X25519 key pair -> shared secret -> HKDF -> AES-128-CTR key +
//   HMAC-SHA-256 MAC key; ciphertext = CTR(MSIN), tag = HMAC(ct)[0..7].
//
// In dAuth (§4.2.1) the home network hands the SUCI decryption key to its
// backup networks so they can de-conceal user IDs during an outage.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/ids.h"
#include "crypto/drbg.h"
#include "crypto/x25519.h"

namespace dauth::aka {

/// A concealed identifier as sent over the air.
///
/// No operator==: although every field is ciphertext or routing info, SUCIs
/// are linkability-sensitive and nothing in the protocol compares them —
/// equality would only ever be a bug (e.g. replay "detection" that defeats
/// the unlinkability the scheme buys). Compare fields explicitly if needed.
struct Suci {
  std::string mcc;                        // routing info stays cleartext
  std::string mnc;
  crypto::X25519Point ephemeral_public;   // UE's ephemeral key
  Bytes ciphertext;                       // encrypted MSIN digits
  ByteArray<8> mac;                       // truncated HMAC tag

  /// Framed as a byte string inside attach and vector requests.
  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.mcc, m.mnc, m.ephemeral_public, m.ciphertext, m.mac);
  }
};

/// Conceals `supi` to the home network's public key.
Suci conceal_supi(const Supi& supi, const crypto::X25519Point& home_public_key,
                  crypto::RandomSource& random);

/// De-conceals a SUCI with the home network's private key. Returns the SUPI,
/// or nullopt if the MAC check fails (tampered or wrong-key ciphertext).
std::optional<Supi> deconceal_suci(const Suci& suci,
                                   const crypto::X25519Scalar& home_secret_key);

}  // namespace dauth::aka
