#include "crypto/aes128.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dauth::crypto {
namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint32_t sub_word(std::uint32_t w) noexcept {
  return (std::uint32_t{kSbox[(w >> 24) & 0xff]} << 24) |
         (std::uint32_t{kSbox[(w >> 16) & 0xff]} << 16) |
         (std::uint32_t{kSbox[(w >> 8) & 0xff]} << 8) |
         std::uint32_t{kSbox[w & 0xff]};
}

inline std::uint32_t rot_word(std::uint32_t w) noexcept { return (w << 8) | (w >> 24); }

inline std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

#if defined(__x86_64__)
// One AES-128 key-expansion step: `assist` is AESKEYGENASSIST of the
// previous round key, whose top word is SubWord(RotWord(w3)) ^ rcon.
__attribute__((target("aes"))) inline __m128i expand_step(__m128i key, __m128i assist) noexcept {
  assist = _mm_shuffle_epi32(assist, 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}
#endif

void expand_key(const std::uint8_t* key, std::uint8_t* schedule) noexcept {
#if defined(__x86_64__)
  if (detail::aes128_ni_available()) {
    detail::aes128_expand_ni(key, schedule);
    return;
  }
#endif
  detail::aes128_expand_portable(key, schedule);
}

}  // namespace

namespace detail {

void aes128_expand_portable(const std::uint8_t key[16], std::uint8_t schedule[176]) noexcept {
  std::uint32_t words[44];
  for (int i = 0; i < 4; ++i) {
    words[i] = (std::uint32_t{key[4 * i]} << 24) | (std::uint32_t{key[4 * i + 1]} << 16) |
               (std::uint32_t{key[4 * i + 2]} << 8) | std::uint32_t{key[4 * i + 3]};
  }
  for (int i = 4; i < 44; ++i) {
    std::uint32_t temp = words[i - 1];
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp)) ^ (std::uint32_t{kRcon[i / 4 - 1]} << 24);
    }
    words[i] = words[i - 4] ^ temp;
  }
  for (int i = 0; i < 44; ++i) {
    schedule[4 * i] = static_cast<std::uint8_t>(words[i] >> 24);
    schedule[4 * i + 1] = static_cast<std::uint8_t>(words[i] >> 16);
    schedule[4 * i + 2] = static_cast<std::uint8_t>(words[i] >> 8);
    schedule[4 * i + 3] = static_cast<std::uint8_t>(words[i]);
  }
  secure_wipe(words, sizeof(words));
}

void aes128_encrypt_portable(const std::uint8_t schedule[176], const std::uint8_t in[16],
                             std::uint8_t out[16]) noexcept {
  // The state is column-major (s[4c + r]), as are the input and each round key.
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  const auto add_round_key = [&](int round) noexcept {
    for (int i = 0; i < 16; ++i) s[i] ^= schedule[16 * round + i];
  };

  add_round_key(0);
  for (int round = 1; round <= 10; ++round) {
    // SubBytes
    for (auto& byte : s) byte = kSbox[byte];
    // ShiftRows
    std::uint8_t t;
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
    // MixColumns (skipped in the final round)
    if (round != 10) {
      for (int c = 0; c < 4; ++c) {
        std::uint8_t* col = s + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        const std::uint8_t all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
        col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
        col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
        col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
        col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
      }
    }
    add_round_key(round);
  }

  std::memcpy(out, s, 16);
  secure_wipe(s, sizeof(s));
}

#if defined(__x86_64__)
// AES-NI: AESKEYGENASSIST drives the key expansion and AESENC/AESENCLAST
// run whole rounds, with no table lookup. Compiled for these functions
// only: the dispatch calls them only on CPUs that report AES-NI, so the
// build needs no -march flag.
__attribute__((target("aes"))) void aes128_expand_ni(const std::uint8_t key[16],
                                                     std::uint8_t schedule[176]) noexcept {
  auto* round_key = reinterpret_cast<__m128i*>(schedule);
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  _mm_storeu_si128(round_key, k);
// The round constant is an instruction immediate, so each step is spelled out.
#define DAUTH_AES_EXPAND(i, rcon)                              \
  k = expand_step(k, _mm_aeskeygenassist_si128(k, (rcon)));    \
  _mm_storeu_si128(round_key + (i), k)
  DAUTH_AES_EXPAND(1, 0x01);
  DAUTH_AES_EXPAND(2, 0x02);
  DAUTH_AES_EXPAND(3, 0x04);
  DAUTH_AES_EXPAND(4, 0x08);
  DAUTH_AES_EXPAND(5, 0x10);
  DAUTH_AES_EXPAND(6, 0x20);
  DAUTH_AES_EXPAND(7, 0x40);
  DAUTH_AES_EXPAND(8, 0x80);
  DAUTH_AES_EXPAND(9, 0x1b);
  DAUTH_AES_EXPAND(10, 0x36);
#undef DAUTH_AES_EXPAND
}

__attribute__((target("aes"))) void aes128_encrypt_ni(const std::uint8_t schedule[176],
                                                      const std::uint8_t in[16],
                                                      std::uint8_t out[16]) noexcept {
  const auto* round_key = reinterpret_cast<const __m128i*>(schedule);
  __m128i m = _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
                            _mm_loadu_si128(round_key));
  for (int round = 1; round < 10; ++round) {
    m = _mm_aesenc_si128(m, _mm_loadu_si128(round_key + round));
  }
  m = _mm_aesenclast_si128(m, _mm_loadu_si128(round_key + 10));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), m);
}
#endif

bool aes128_ni_available() noexcept {
#if defined(__x86_64__)
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") != 0;
  }();
  return available;
#else
  return false;
#endif
}

}  // namespace detail

Aes128::Aes128(const AesKey& key) noexcept { expand_key(key.data(), round_keys_); }

Aes128::Aes128(ByteView key) noexcept {
  // A wrong-size key is a programming error; fail closed with a zero key
  // rather than reading out of bounds (callers pass Secret<16> views).
  if (key.size() != 16) {
    static constexpr AesKey kZeroKey{};
    expand_key(kZeroKey.data(), round_keys_);
    return;
  }
  expand_key(key.data(), round_keys_);
}

AesBlock Aes128::encrypt_block(const AesBlock& plaintext) const noexcept {
  AesBlock out;
#if defined(__x86_64__)
  if (detail::aes128_ni_available()) {
    detail::aes128_encrypt_ni(round_keys_, plaintext.data(), out.data());
    return out;
  }
#endif
  detail::aes128_encrypt_portable(round_keys_, plaintext.data(), out.data());
  return out;
}

void aes128_ctr_xor(const Aes128& cipher, const AesBlock& initial_counter,
                    MutableByteView data) noexcept {
  AesBlock counter = initial_counter;
  AesBlock keystream{};
  std::size_t offset = 0;
  while (offset < data.size()) {
    keystream = cipher.encrypt_block(counter);
    const std::size_t n = data.size() - offset < 16 ? data.size() - offset : 16;
    for (std::size_t i = 0; i < n; ++i) data[offset + i] ^= keystream[i];
    offset += n;
    // Increment the low 32 bits, big-endian.
    for (int i = 15; i >= 12; --i) {
      if (++counter[i] != 0) break;
    }
  }
  secure_wipe(MutableByteView(keystream));
}

}  // namespace dauth::crypto
