#include "crypto/shamir.h"

#include <cstring>
#include <stdexcept>

#include "crypto/gf256.h"

namespace dauth::crypto {
namespace {

// Word-parallel GF(2^8) arithmetic: one std::uint64_t carries 8 independent
// byte lanes (SIMD within a register). Secret lanes only ever pass through
// shifts, masks, XORs and a multiply by the constant 0x1b, so no secret byte
// drives a branch or a table index; the loops branch on the public
// multiplier alone (a share's x in split, a Lagrange basis value in combine).
constexpr std::uint64_t kLaneLow7 = 0x7f7f7f7f7f7f7f7fULL;
constexpr std::uint64_t kLaneBit0 = 0x0101010101010101ULL;

/// Every lane times x, reduced mod 0x11b.
constexpr std::uint64_t xtime8(std::uint64_t lanes) noexcept {
  return ((lanes & kLaneLow7) << 1) ^ (((lanes >> 7) & kLaneBit0) * 0x1b);
}

/// Every lane times the public constant `m`.
constexpr std::uint64_t mul8(std::uint64_t lanes, std::uint8_t m) noexcept {
  std::uint64_t product = 0;
  for (; m != 0; m >>= 1) {
    if (m & 1) product ^= lanes;
    lanes = xtime8(lanes);
  }
  return product;
}

/// Loads up to 8 bytes at `offset` as lanes; missing tail lanes read as 0.
/// A whole word is one fixed-size copy, i.e. one load.
std::uint64_t load8(ByteView bytes, std::size_t offset) noexcept {
  std::uint64_t lanes = 0;
  if (bytes.size() - offset >= 8) {
    std::memcpy(&lanes, bytes.data() + offset, 8);
  } else {
    std::memcpy(&lanes, bytes.data() + offset, bytes.size() - offset);
  }
  return lanes;
}

void store8(MutableByteView bytes, std::size_t offset, std::uint64_t lanes) noexcept {
  if (bytes.size() - offset >= 8) {
    std::memcpy(bytes.data() + offset, &lanes, 8);
  } else {
    std::memcpy(bytes.data() + offset, &lanes, bytes.size() - offset);
  }
}

void check_split(ByteView secret, std::size_t threshold,
                 std::span<const MutableByteView> ordinates) {
  if (threshold == 0) throw std::invalid_argument("shamir_split: threshold must be >= 1");
  if (threshold > ordinates.size())
    throw std::invalid_argument("shamir_split: threshold exceeds share count");
  if (ordinates.size() > 255) throw std::invalid_argument("shamir_split: at most 255 shares");
  for (const MutableByteView& y : ordinates) {
    if (y.size() != secret.size()) throw std::invalid_argument("shamir_split: ordinate size");
  }
}

/// Horner evaluation of every share's polynomial, eight byte lanes a word.
void evaluate(ByteView secret, ByteView coefficients,
              std::span<const MutableByteView> ordinates) noexcept {
  if (secret.empty()) return;
  const std::size_t degree = coefficients.size() / secret.size();
  const auto row = [&](std::size_t d) {
    return coefficients.subspan(d * secret.size(), secret.size());
  };
  for (std::size_t s = 0; s < ordinates.size(); ++s) {
    const auto x = static_cast<std::uint8_t>(s + 1);
    for (std::size_t i = 0; i < secret.size(); i += 8) {
      // Horner evaluation: ((c_{k-1} x + c_{k-2}) x + ...) x + secret.
      std::uint64_t acc = 0;
      for (std::size_t d = degree; d-- > 0;) acc = mul8(acc, x) ^ load8(row(d), i);
      store8(ordinates[s], i, mul8(acc, x) ^ load8(secret, i));
    }
  }
}

}  // namespace

std::vector<ShamirShare> shamir_split(ByteView secret, std::size_t threshold,
                                      std::size_t share_count, RandomSource& random) {
  if (share_count > 255) throw std::invalid_argument("shamir_split: at most 255 shares");
  std::vector<ShamirShare> shares(share_count);
  std::vector<MutableByteView> ordinates;
  ordinates.reserve(share_count);
  for (std::size_t s = 0; s < share_count; ++s) {
    shares[s].x = static_cast<std::uint8_t>(s + 1);
    shares[s].y.resize(secret.size());
    ordinates.push_back(shares[s].y.mutable_view());
  }
  check_split(secret, threshold, ordinates);
  // Every row in one request, in one self-wiping buffer.
  SecretBytes coefficients((threshold - 1) * secret.size());
  random.fill(coefficients.mutable_view());
  shamir_split(secret, threshold, coefficients, ordinates);
  return shares;
}

void shamir_split(ByteView secret, std::size_t threshold, ByteView coefficients,
                  std::span<const MutableByteView> ordinates) {
  check_split(secret, threshold, ordinates);
  if (coefficients.size() != (threshold - 1) * secret.size())
    throw std::invalid_argument("shamir_split: coefficient rows");
  evaluate(secret, coefficients, ordinates);
}

SecretBytes shamir_combine(const std::vector<ShamirShare>& shares) {
  if (shares.empty()) throw std::invalid_argument("shamir_combine: no shares");
  const std::size_t length = shares.front().y.size();
  for (const auto& share : shares) {
    if (share.x == 0) throw std::invalid_argument("shamir_combine: x must be non-zero");
    if (share.y.size() != length)
      throw std::invalid_argument("shamir_combine: inconsistent share lengths");
  }
  for (std::size_t i = 0; i < shares.size(); ++i)
    for (std::size_t j = i + 1; j < shares.size(); ++j)
      if (shares[i].x == shares[j].x)
        throw std::invalid_argument("shamir_combine: duplicate x-coordinate");

  // Lagrange basis at x = 0: L_i(0) = prod_{j != i} x_j / (x_j - x_i).
  // In GF(2^8) subtraction is XOR.
  std::vector<std::uint8_t> basis(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    std::uint8_t numerator = 1;
    std::uint8_t denominator = 1;
    for (std::size_t j = 0; j < shares.size(); ++j) {
      if (j == i) continue;
      numerator = gf256::mul(numerator, shares[j].x);
      denominator = gf256::mul(denominator,
                               gf256::add(shares[j].x, shares[i].x));
    }
    basis[i] = gf256::div(numerator, denominator);
  }

  SecretBytes secret(length);
  for (std::size_t b = 0; b < length; b += 8) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < shares.size(); ++i) acc ^= mul8(load8(shares[i].y, b), basis[i]);
    store8(secret.mutable_view(), b, acc);
  }
  return secret;
}

}  // namespace dauth::crypto
