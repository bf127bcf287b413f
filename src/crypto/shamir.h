// Shamir secret sharing over GF(2^8) (Shamir, CACM 1979).
//
// dAuth splits the session key K_seaf/asme into N shares with threshold M:
// any M shares reconstruct the key, while M-1 shares reveal *nothing*
// (information-theoretic security). Each byte of the secret is shared with
// its own degree-(M-1) polynomial; a share is the evaluation of all of those
// polynomials at the share's non-zero x-coordinate.
//
// Plain Shamir shares cannot be individually validated; dAuth compensates by
// signing the bundles that carry them (paper §3.5.2): the home's round
// signature covers every share, so a backup that alters one is refused at
// store time and again at the serving network (docs/SECURITY.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/secret.h"

namespace dauth::crypto {

/// One Shamir share: the x-coordinate (1..255) and per-byte y values.
///
/// The y values are key material (threshold many of them reconstruct the
/// session key), so they live in a SecretBytes that wipes on destruction.
/// There is deliberately no operator==: comparing shares byte-wise is a
/// timing side channel, and no protocol step needs share equality.
struct ShamirShare {
  std::uint8_t x = 0;
  SecretBytes y;
};

/// A source of random bytes for polynomial coefficients.
/// Implemented by DeterministicDrbg; kept abstract so callers control
/// reproducibility.
class RandomSource {
 public:
  virtual ~RandomSource() = default;
  virtual void fill(MutableByteView out) = 0;
};

/// Splits `secret` into `share_count` shares with reconstruction threshold
/// `threshold` (1 <= threshold <= share_count <= 255). Shares receive
/// x-coordinates 1..share_count. Draws every coefficient row in one request.
std::vector<ShamirShare> shamir_split(ByteView secret, std::size_t threshold,
                                      std::size_t share_count, RandomSource& random);

/// The split with the caller's coefficients, which the form above and the
/// home's rounds evaluate through: `coefficients` is threshold - 1 rows of
/// secret.size() bytes, row d the degree-(d+1) coefficient of every secret
/// byte, and the ordinate of the share at x = s + 1 goes into
/// `ordinates[s]`. The rows are as sensitive as the secret (threshold - 1
/// of them and one share leak it): the caller draws them and wipes them.
void shamir_split(ByteView secret, std::size_t threshold, ByteView coefficients,
                  std::span<const MutableByteView> ordinates);

/// Reconstructs the secret from >= threshold distinct shares by Lagrange
/// interpolation at x = 0. The caller passes exactly the shares to use; with
/// fewer than threshold shares the result is garbage (by design,
/// indistinguishable from random), and with inconsistent share lengths or
/// duplicate x-coordinates an exception is thrown.
SecretBytes shamir_combine(const std::vector<ShamirShare>& shares);

}  // namespace dauth::crypto
