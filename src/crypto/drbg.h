// Deterministic random bit generator (HMAC_DRBG, NIST SP 800-90A style).
//
// All key material in tests, benches and simulations is drawn from a DRBG
// seeded explicitly, which makes every run byte-for-byte reproducible. The
// construction is the standard HMAC-SHA-256 DRBG update/generate loop.
#pragma once

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/hmac.h"
#include "crypto/shamir.h"  // RandomSource
#include "crypto/sha256.h"

namespace dauth::crypto {

class DeterministicDrbg final : public RandomSource {
 public:
  /// Seeds from arbitrary entropy input (e.g. a label + numeric seed).
  explicit DeterministicDrbg(ByteView seed_material);

  /// Convenience: seed from a label and 64-bit seed.
  DeterministicDrbg(std::string_view label, std::uint64_t seed);

  /// SP 800-90A's cap on one generate request: 2^19 bits.
  static constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 16;

  /// One generate request, closed by its update; a fill longer than
  /// kMaxRequestBytes is served as consecutive requests of at most that.
  void fill(MutableByteView out) override;

  Bytes bytes(std::size_t n);

  template <std::size_t N>
  ByteArray<N> array() {
    ByteArray<N> out;
    fill(out);
    return out;
  }

  std::uint64_t next_u64();

  /// Mixes additional input into the state (domain separation / reseeding).
  void reseed(ByteView additional);

 private:
  /// HMAC_DRBG_Update (SP 800-90A §10.1.2.2).
  void update(ByteView provided);
  /// K = HMAC(K, V || separator || provided), held keyed.
  void rekey(std::uint8_t separator, ByteView provided);

  // DRBG internal state is key material: anyone holding (K, V) can predict
  // every future output, so both wipe on destruction. K is held keyed, as
  // its HMAC midstates, which is all the DRBG uses it for: each output
  // block and each update costs its own compressions only.
  HmacSha256 key_;
  Secret<32> value_;
};

}  // namespace dauth::crypto
