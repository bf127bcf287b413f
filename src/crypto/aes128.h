// AES-128 block cipher (FIPS 197), encryption direction only.
//
// Milenage (TS 35.206) uses the AES-128 *encryption* primitive exclusively,
// as does AES-CTR keystream generation for SUCI concealment, so the
// decryption schedule is intentionally not implemented.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/secret.h"

namespace dauth::crypto {

using AesKey = ByteArray<16>;
using AesBlock = ByteArray<16>;

/// Key-expanded AES-128 context. The expanded schedule is key-equivalent
/// material, so the destructor zeroizes it.
///
/// The schedule is built once, in the constructor, and every block runs on
/// the x86-64 AES-NI instructions when the CPU has them (picked once per
/// process, see detail::aes128_ni_available), else on the portable code.
/// Both paths build the same schedule bytes and compute the same blocks.
class Aes128 {
 public:
  explicit Aes128(const AesKey& key) noexcept;
  /// Keys held in a Secret<16> convert implicitly to ByteView; the size is
  /// asserted at runtime. Behaviour is identical to the AesKey overload.
  explicit Aes128(ByteView key) noexcept;
  ~Aes128() { secure_wipe(round_keys_, sizeof(round_keys_)); }

  Aes128(const Aes128&) = default;
  Aes128& operator=(const Aes128&) = default;

  /// Encrypts a single 16-byte block (ECB primitive).
  AesBlock encrypt_block(const AesBlock& plaintext) const noexcept;

 private:
  /// The 11 round keys, 16 bytes each, in FIPS 197 byte order.
  alignas(16) std::uint8_t round_keys_[176];
};

/// The key expansion and block function of each implementation, exposed so
/// the differential test can pin the hardware path to the portable one.
/// `schedule` is 176 bytes: 11 round keys in FIPS 197 byte order.
namespace detail {

void aes128_expand_portable(const std::uint8_t key[16], std::uint8_t schedule[176]) noexcept;
void aes128_encrypt_portable(const std::uint8_t schedule[176], const std::uint8_t in[16],
                             std::uint8_t out[16]) noexcept;

#if defined(__x86_64__)
/// x86-64 AES-NI. Only call them when aes128_ni_available() is true.
void aes128_expand_ni(const std::uint8_t key[16], std::uint8_t schedule[176]) noexcept;
void aes128_encrypt_ni(const std::uint8_t schedule[176], const std::uint8_t in[16],
                       std::uint8_t out[16]) noexcept;
#endif

/// Whether this CPU runs the AES-NI path (decided once per process).
bool aes128_ni_available() noexcept;

}  // namespace detail

/// CTR-mode keystream XOR: encrypts/decrypts `data` in place using a 16-byte
/// initial counter block (big-endian increment of the low 32 bits).
void aes128_ctr_xor(const Aes128& cipher, const AesBlock& initial_counter,
                    MutableByteView data) noexcept;

}  // namespace dauth::crypto
