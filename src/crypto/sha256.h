// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for H(XRES) share indices, bundle digests, and as the PRF core of
// HMAC-SHA-256 in the 3GPP key-derivation function (TS 33.220 Annex B).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace dauth::crypto {

using Sha256Digest = ByteArray<32>;

/// Incremental SHA-256 context. Typical use:
///   Sha256 h; h.update(a); h.update(b); auto d = h.finish();
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(ByteView data) noexcept;
  /// Finalizes and returns the digest. The context must be reset() before
  /// further use.
  Sha256Digest finish() noexcept;

 private:
  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience wrapper.
Sha256Digest sha256(ByteView data) noexcept;

/// The FIPS 180-4 compression function, exposed so the differential test
/// can pin every implementation to the portable one. Each call folds one
/// 64-byte block into `state`.
namespace detail {

/// Portable C++ compression: the fallback on every CPU without SHA-NI.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* block) noexcept;

#if defined(__x86_64__)
/// x86-64 SHA Extensions compression. Only call it when
/// sha256_shani_available() is true.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* block) noexcept;
#endif

/// Whether this CPU runs the SHA-NI compression (decided once per process).
bool sha256_shani_available() noexcept;

/// The compression Sha256 uses: SHA-NI when available, else portable.
void sha256_compress(std::uint32_t state[8], const std::uint8_t* block) noexcept;

}  // namespace detail

}  // namespace dauth::crypto
