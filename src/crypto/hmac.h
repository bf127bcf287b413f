// HMAC-SHA-256 (RFC 2104 / FIPS 198-1) and HKDF (RFC 5869).
//
// HMAC-SHA-256 is the PRF underlying the 3GPP key-derivation function
// (TS 33.220 Annex B) and the HMAC-DRBG; HKDF is used by the SUCI ECIES
// concealment profile.
#pragma once

#include <initializer_list>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace dauth::crypto {

/// HMAC-SHA-256 under one key, keyed once: it holds the SHA-256 midstates
/// after the K ^ ipad and K ^ opad blocks, so each MAC costs the message's
/// blocks plus one outer compression, and no padded key block outlives the
/// constructor. A message of at most 55 bytes (every HMAC-DRBG generate
/// step) is padded and compressed in one block, with no Sha256 context. The
/// midstates are key-equivalent, so every copy wipes them on destruction.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key) noexcept;
  ~HmacSha256();

  HmacSha256(const HmacSha256&) noexcept = default;
  HmacSha256& operator=(const HmacSha256&) noexcept = default;

  /// MAC of the concatenation of `parts`, without building it.
  Sha256Digest mac(std::initializer_list<ByteView> parts) const noexcept;

  /// Streaming form: start() is the keyed inner hash to feed the message
  /// to, and finish() completes the MAC from it and wipes it.
  Sha256 start() const noexcept { return Sha256(inner_); }
  Sha256Digest finish(Sha256& inner) const noexcept;

 private:
  std::uint32_t inner_[8];  // after K ^ ipad
  std::uint32_t outer_[8];  // after K ^ opad
};

/// HMAC-SHA-256 of `data` under `key` (any key length).
Sha256Digest hmac_sha256(ByteView key, ByteView data);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Sha256Digest hkdf_extract(ByteView salt, ByteView ikm);

/// HKDF-Expand: derives `length` (<= 255*32) bytes from PRK and info.
Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length);

/// Extract-then-expand convenience.
Bytes hkdf(ByteView salt, ByteView ikm, ByteView info, std::size_t length);

}  // namespace dauth::crypto
