#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/secret.h"

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

// Pads the last `tail` (< 64) bytes of a `message_bytes`-byte message, which
// open `blocks`, to its last one or two blocks (two when tail >= 56);
// returns how many.
std::size_t pad_tail(std::uint8_t* blocks, std::size_t tail,
                     std::uint64_t message_bytes) noexcept {
  const std::size_t count = tail < 56 ? 1 : 2;
  // A zero loop, not memset: lint rule L5 reserves memset-shaped calls for
  // secure_wipe.
  blocks[tail] = 0x80;
  for (std::size_t i = tail + 1; i < 64 * count - 8; ++i) blocks[i] = 0;
  store_be(blocks + 64 * count - 8, message_bytes * 8);
  return count;
}

#if defined(__x86_64__)
// The AVX-512 lanes (docs/PERFORMANCE.md §27): sixteen independent messages
// at once, one 512-bit vector per state or schedule word, lane i holding
// message i's. Multi-buffer hashing after Gueron and Krasnov, "Simultaneous
// hashing of multiple messages" (J. Inf. Sec. 2012). Every intrinsic is the
// masked form under an all-lanes mask, or one with no pass-through operand:
// the unmasked rotate, shift and gather pass GCC 12 an uninitialized
// vector, which -Wuninitialized reports.
constexpr std::size_t kLanes = 16;
constexpr __mmask16 kAllLanes = 0xffff;
// Gather offsets are 32-bit: lane 15's message starts below 2^31.
constexpr std::size_t kMaxLaneLength = std::size_t{1} << 26;

#define DAUTH_SHA256_LANES __attribute__((target("avx512f,avx512bw")))

template <int N>
DAUTH_SHA256_LANES inline __m512i rotr_lanes(__m512i x) noexcept {
  return _mm512_maskz_ror_epi32(kAllLanes, x, N);
}

template <int N>
DAUTH_SHA256_LANES inline __m512i shr_lanes(__m512i x) noexcept {
  return _mm512_maskz_srli_epi32(kAllLanes, x, N);
}

DAUTH_SHA256_LANES inline __m512i xor3(__m512i x, __m512i y, __m512i z) noexcept {
  return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}

// Swaps the bytes of each 32-bit word: a gathered little-endian load to the
// big-endian word SHA-256 reads, and back for the digest.
DAUTH_SHA256_LANES inline __m512i byte_swap(__m512i x) noexcept {
  const __m512i order = _mm512_set_epi32(
      0x0c0d0e0f, 0x08090a0b, 0x04050607, 0x00010203, 0x0c0d0e0f, 0x08090a0b, 0x04050607,
      0x00010203, 0x0c0d0e0f, 0x08090a0b, 0x04050607, 0x00010203, 0x0c0d0e0f, 0x08090a0b,
      0x04050607, 0x00010203);
  return _mm512_shuffle_epi8(x, order);
}

// Folds one block of each lane into `state`: lane i's block is the 64 bytes
// at `blocks` + offsets[i].
DAUTH_SHA256_LANES void compress_lanes(__m512i state[8], const std::uint8_t* blocks,
                                       __m512i offsets) noexcept {
  __m512i w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = byte_swap(_mm512_mask_i32gather_epi32(_mm512_setzero_si512(), kAllLanes, offsets,
                                                 blocks + 4 * t, 1));
  }
  __m512i a = state[0], b = state[1], c = state[2], d = state[3];
  __m512i e = state[4], f = state[5], g = state[6], h = state[7];
#pragma GCC unroll 64
  for (int t = 0; t < 64; ++t) {
    if (t >= 16) {
      const __m512i w15 = w[(t - 15) % 16];
      const __m512i w2 = w[(t - 2) % 16];
      const __m512i s0 = xor3(rotr_lanes<7>(w15), rotr_lanes<18>(w15), shr_lanes<3>(w15));
      const __m512i s1 = xor3(rotr_lanes<17>(w2), rotr_lanes<19>(w2), shr_lanes<10>(w2));
      w[t % 16] = _mm512_add_epi32(_mm512_add_epi32(w[t % 16], s0),
                                   _mm512_add_epi32(w[(t - 7) % 16], s1));
    }
    const __m512i big_s1 = xor3(rotr_lanes<6>(e), rotr_lanes<11>(e), rotr_lanes<25>(e));
    const __m512i choose = _mm512_ternarylogic_epi32(e, f, g, 0xca);  // e ? f : g
    const __m512i t1 = _mm512_add_epi32(
        _mm512_add_epi32(_mm512_add_epi32(h, big_s1), _mm512_add_epi32(choose, w[t % 16])),
        _mm512_set1_epi32(static_cast<int>(kK[t])));
    const __m512i big_s0 = xor3(rotr_lanes<2>(a), rotr_lanes<13>(a), rotr_lanes<22>(a));
    const __m512i majority = _mm512_ternarylogic_epi32(a, b, c, 0xe8);
    h = g;
    g = f;
    f = e;
    e = _mm512_add_epi32(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm512_add_epi32(t1, _mm512_add_epi32(big_s0, majority));
  }
  const __m512i out[8] = {a, b, c, d, e, f, g, h};
  for (int i = 0; i < 8; ++i) state[i] = _mm512_add_epi32(state[i], out[i]);
}

// Hashes `groups` runs of sixteen `length`-byte messages from `messages`
// into `out`.
DAUTH_SHA256_LANES void hash_groups(const std::uint8_t* messages, std::size_t length,
                                    std::size_t groups, Sha256Digest* out) noexcept {
  static_assert(sizeof(Sha256Digest) == 32);
  const std::size_t full = length / 64;
  const std::size_t tail = length % 64;
  // Each lane's last one or two blocks, block by block: every lane's padding
  // is the same and is set once, and a group's last bytes go before it.
  alignas(64) std::uint8_t tails[2][kLanes][64];
  std::uint8_t padding[128] = {};
  const std::size_t tail_blocks = pad_tail(padding, tail, length);
  for (std::size_t block = 0; block < tail_blocks; ++block) {
    const __m512i padded = _mm512_loadu_si512(padding + 64 * block);
    for (std::size_t i = 0; i < kLanes; ++i) _mm512_store_si512(tails[block][i], padded);
  }
  const __mmask64 tail_bytes = (std::uint64_t{1} << tail) - 1;
  const __m512i lane = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i offsets = _mm512_mullo_epi32(lane, _mm512_set1_epi32(static_cast<int>(length)));
  const __m512i tail_offsets = _mm512_mullo_epi32(lane, _mm512_set1_epi32(64));
  const __m512i digest_offsets = _mm512_mullo_epi32(lane, _mm512_set1_epi32(32));
  for (std::size_t group = 0; group < groups; ++group, messages += kLanes * length) {
    __m512i state[8];
    for (int i = 0; i < 8; ++i) {
      state[i] = _mm512_set1_epi32(static_cast<int>(detail::kSha256InitialState[i]));
    }
    for (std::size_t block = 0; block < full; ++block) {
      compress_lanes(state, messages + 64 * block, offsets);
    }
    // A masked load and store move the last bytes alone.
    for (std::size_t i = 0; i < kLanes; ++i) {
      _mm512_mask_storeu_epi8(
          tails[0][i], tail_bytes,
          _mm512_maskz_loadu_epi8(tail_bytes, messages + i * length + 64 * full));
    }
    for (std::size_t block = 0; block < tail_blocks; ++block) {
      compress_lanes(state, tails[block][0], tail_offsets);
    }
    for (int i = 0; i < 8; ++i) {
      _mm512_i32scatter_epi32(out->data() + 4 * i, digest_offsets, byte_swap(state[i]), 1);
    }
    out += kLanes;
  }
  secure_wipe(tails[0], sizeof(tails[0]));  // the last group's last bytes
}

#undef DAUTH_SHA256_LANES
#endif

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

void sha256_each_serial(Sha256Compress compress, ByteView messages, std::size_t length,
                        std::span<Sha256Digest> out) noexcept {
  const std::size_t full = length / 64;
  const std::size_t tail = length % 64;
  std::uint8_t blocks[128];  // a message's padded last blocks
  for (std::size_t m = 0; m < out.size(); ++m) {
    const std::uint8_t* message = messages.data() + m * length;
    std::uint32_t state[8];
    std::memcpy(state, kSha256InitialState, sizeof(state));
    for (std::size_t block = 0; block < full; ++block) compress(state, message + 64 * block);
    std::copy_n(message + 64 * full, tail, blocks);
    const std::size_t count = pad_tail(blocks, tail, length);
    for (std::size_t block = 0; block < count; ++block) compress(state, blocks + 64 * block);
    store_digest(state, out[m].data());
  }
  secure_wipe(blocks, tail);  // the last message's last bytes, a share ordinate's among them
}

#if defined(__x86_64__)
void sha256_each_lanes(ByteView messages, std::size_t length,
                       std::span<Sha256Digest> out) noexcept {
  const std::size_t groups = length <= kMaxLaneLength ? out.size() / kLanes : 0;
  if (groups > 0) hash_groups(messages.data(), length, groups, out.data());
  const std::size_t done = groups * kLanes;
  sha256_each_serial(sha256_compress, messages.subspan(done * length), length,
                     out.subspan(done));
}
#endif

bool sha256_lanes_available() noexcept {
#if defined(__x86_64__)
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  }();
  return available;
#else
  return false;
#endif
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
  pad_tail(block, tail, message_bytes);
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

void sha256_each(ByteView messages, std::size_t length, std::span<Sha256Digest> out) noexcept {
#if defined(__x86_64__)
  if (detail::sha256_lanes_available()) {
    detail::sha256_each_lanes(messages, length, out);
    return;
  }
#endif
  detail::sha256_each_serial(detail::sha256_compress, messages, length, out);
}

}  // namespace dauth::crypto
