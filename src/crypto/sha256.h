// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for H(XRES) share indices, bundle digests, and as the PRF core of
// HMAC-SHA-256 in the 3GPP key-derivation function (TS 33.220 Annex B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/bytes.h"

namespace dauth::crypto {

using Sha256Digest = ByteArray<32>;

/// Incremental SHA-256 context. Typical use:
///   Sha256 h; h.update(a); h.update(b); auto d = h.finish();
class Sha256 {
 public:
  Sha256() noexcept { reset(); }
  /// Resumes a hash after its first 64-byte block, which left `state`: the
  /// keyed midstates of HMAC (crypto/hmac.h).
  explicit Sha256(const std::uint32_t (&state)[8]) noexcept;

  void reset() noexcept;
  void update(ByteView data) noexcept {
    // Inline for the short fields of a message hashed in place (a Merkle
    // leaf, core/messages.cpp): bytes that fit in the buffer are only copied.
    if (data.size() < 64 - buffer_len_) {
      if (!data.empty()) std::memcpy(buffer_ + buffer_len_, data.data(), data.size());
      buffer_len_ += data.size();
      total_len_ += data.size();
      return;
    }
    update_blocks(data);
  }
  /// Finalizes and returns the digest. The context must be reset() before
  /// further use.
  Sha256Digest finish() noexcept;

 private:
  /// update() for data that fills the buffer: whole blocks are compressed.
  void update_blocks(ByteView data) noexcept;

  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience wrapper.
Sha256Digest sha256(ByteView data) noexcept;

/// The SHA-256 of each of `out.size()` messages of `length` bytes, laid end
/// to end in `messages` (which holds exactly that many bytes): out[i] is
/// sha256() of message i. The messages are independent, so on a CPU with
/// AVX-512 they are hashed sixteen at a time (docs/PERFORMANCE.md §27).
void sha256_each(ByteView messages, std::size_t length, std::span<Sha256Digest> out) noexcept;

/// The FIPS 180-4 compression function, exposed so the differential test
/// can pin every implementation to the portable one. Each call folds one
/// 64-byte block into `state`.
namespace detail {

/// The FIPS 180-4 initial hash value.
inline constexpr std::uint32_t kSha256InitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

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

using Sha256Compress = void (*)(std::uint32_t state[8], const std::uint8_t* block) noexcept;

/// sha256_each one message at a time through `compress`: the path on every
/// CPU without AVX-512, and for the messages left over from its lanes.
void sha256_each_serial(Sha256Compress compress, ByteView messages, std::size_t length,
                        std::span<Sha256Digest> out) noexcept;

#if defined(__x86_64__)
/// sha256_each through the AVX-512 lanes, sixteen messages at a time, the
/// rest through sha256_compress. Only call it when
/// sha256_lanes_available() is true.
void sha256_each_lanes(ByteView messages, std::size_t length,
                       std::span<Sha256Digest> out) noexcept;
#endif

/// Whether this CPU runs the AVX-512 lanes (AVX-512F and AVX-512BW,
/// decided once per process).
bool sha256_lanes_available() noexcept;

/// The last block of a `message_bytes`-byte message, whose final `tail`
/// (at most 55) bytes open `block`: pads them in place, folds the block
/// into `state` and writes the digest to `digest`, which may be `block`.
/// Sha256::finish ends with it, and HMAC hashes a short message from a
/// keyed midstate with it.
void sha256_final_block(std::uint32_t state[8], std::uint8_t block[64], std::size_t tail,
                        std::uint64_t message_bytes, std::uint8_t digest[32]) noexcept;

}  // namespace detail

}  // namespace dauth::crypto
