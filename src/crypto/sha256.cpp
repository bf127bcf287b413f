#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dauth::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

// Big-endian stores as one swapped word each: byte-wise stores here make
// the next block's vector loads wait on store forwarding.
template <typename Word>
inline void store_be(std::uint8_t* p, Word v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(Word) == 4) {
      v = __builtin_bswap32(v);
    } else {
      v = __builtin_bswap64(v);
    }
  }
  std::memcpy(p, &v, sizeof(v));
}

void store_digest(const std::uint32_t state[8], std::uint8_t digest[32]) noexcept {
  for (int i = 0; i < 8; ++i) store_be(digest + 4 * i, state[i]);
}

}  // namespace

void Sha256::reset() noexcept {
  std::memcpy(state_, detail::kSha256InitialState, sizeof(state_));
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256::Sha256(const std::uint32_t (&state)[8]) noexcept : total_len_(64) {
  std::memcpy(state_, state, sizeof(state_));
}

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  std::uint32_t t;

// One round with explicit variable roles: unrolling 8 rounds with rotated
// arguments removes the 7 register shuffles per round of the naive loop.
#define DAUTH_SHA256_ROUND(A, B, C, D, E, F, G, H, i)                       \
  t = (H) + (rotr((E), 6) ^ rotr((E), 11) ^ rotr((E), 25)) +                \
      (((E) & (F)) ^ (~(E) & (G))) + kK[(i)] + w[(i)];                      \
  (D) += t;                                                                 \
  (H) = t + (rotr((A), 2) ^ rotr((A), 13) ^ rotr((A), 22)) +                \
        (((C) & ((A) ^ (B))) ^ ((A) & (B)))

  for (int i = 0; i < 64; i += 8) {
    DAUTH_SHA256_ROUND(a, b, c, d, e, f, g, h, i + 0);
    DAUTH_SHA256_ROUND(h, a, b, c, d, e, f, g, i + 1);
    DAUTH_SHA256_ROUND(g, h, a, b, c, d, e, f, i + 2);
    DAUTH_SHA256_ROUND(f, g, h, a, b, c, d, e, i + 3);
    DAUTH_SHA256_ROUND(e, f, g, h, a, b, c, d, i + 4);
    DAUTH_SHA256_ROUND(d, e, f, g, h, a, b, c, i + 5);
    DAUTH_SHA256_ROUND(c, d, e, f, g, h, a, b, i + 6);
    DAUTH_SHA256_ROUND(b, c, d, e, f, g, h, a, i + 7);
  }
#undef DAUTH_SHA256_ROUND

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
// SHA Extensions compression after Intel's reference (Gulley et al., "Intel
// SHA Extensions", 2013). SHA256RNDS2 runs two rounds on the state held as
// ABEF/CDGH halves; SHA256MSG1/MSG2 extend the schedule four words at a time.
// Compiled for this function only: the dispatch below calls it only on CPUs
// that report SHA-NI, so the build needs no -march flag.
__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(
    std::uint32_t state[8], const std::uint8_t* block) noexcept {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // {A,B,C,D},{E,F,G,H} -> {A,B,E,F},{C,D,G,H} in the lane order RNDS2 wants.
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // msg[g % 4] holds schedule words W[4g..4g+3] while group g runs.
  __m128i msg[4];
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    if (g < 4) {
      msg[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)), byte_swap);
    }
    __m128i wk = _mm_add_epi32(msg[g % 4],
                               _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    if (g >= 3 && g < 15) {
      // The next group's words W[t], t = 4g+4..4g+7: MSG1 added sigma0(W[t-15])
      // to W[t-16] two groups ago; add W[t-7], and MSG2 adds sigma1(W[t-2]).
      const __m128i w_minus_7 = _mm_alignr_epi8(msg[g % 4], msg[(g + 3) % 4], 4);
      msg[(g + 1) % 4] =
          _mm_sha256msg2_epu32(_mm_add_epi32(msg[(g + 1) % 4], w_minus_7), msg[g % 4]);
    }
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    if (g >= 1 && g < 13) msg[(g + 3) % 4] = _mm_sha256msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  // Back to {A,B,C,D},{E,F,G,H}.
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(cdgh, tmp, 8));
}
#endif

bool sha256_shani_available() noexcept {
#if defined(__x86_64__)
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return available;
#else
  return false;
#endif
}

void sha256_compress(std::uint32_t state[8], const std::uint8_t* block) noexcept {
#if defined(__x86_64__)
  if (sha256_shani_available()) {
    sha256_compress_shani(state, block);
    return;
  }
#endif
  sha256_compress_portable(state, block);
}

}  // namespace detail

void Sha256::update_blocks(ByteView data) noexcept {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take_n = data.size() < need ? data.size() : need;
    std::memcpy(buffer_ + buffer_len_, data.data(), take_n);
    buffer_len_ += take_n;
    offset += take_n;
    if (buffer_len_ == 64) {
      detail::sha256_compress(state_, buffer_);
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    detail::sha256_compress(state_, data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_, data.data() + offset, buffer_len_);
  }
}

namespace detail {

void sha256_final_block(std::uint32_t state[8], std::uint8_t block[64], std::size_t tail,
                        std::uint64_t message_bytes, std::uint8_t digest[32]) noexcept {
  // Zero loops, not memset: lint rule L5 reserves memset-shaped calls for
  // secure_wipe.
  block[tail] = 0x80;
  for (std::size_t i = tail + 1; i < 56; ++i) block[i] = 0;
  store_be(block + 56, message_bytes * 8);
  sha256_compress(state, block);
  store_digest(state, digest);
}

}  // namespace detail

Sha256Digest Sha256::finish() noexcept {
  Sha256Digest digest;
  if (buffer_len_ < 56) {
    detail::sha256_final_block(state_, buffer_, buffer_len_, total_len_, digest.data());
    return digest;
  }
  // No room for the length: the 0x80 byte and zeros end this block, and the
  // length fills the last one.
  buffer_[buffer_len_] = 0x80;
  for (std::size_t i = buffer_len_ + 1; i < 64; ++i) buffer_[i] = 0;
  detail::sha256_compress(state_, buffer_);
  for (std::size_t i = 0; i < 56; ++i) buffer_[i] = 0;
  store_be(buffer_ + 56, total_len_ * 8);
  detail::sha256_compress(state_, buffer_);
  store_digest(state_, digest.data());
  return digest;
}

Sha256Digest sha256(ByteView data) noexcept {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace dauth::crypto
