#include "crypto/shamir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/drbg.h"
#include "crypto/gf256.h"

namespace dauth::crypto {
namespace {

Bytes test_secret(std::size_t len) {
  Bytes s(len);
  for (std::size_t i = 0; i < len; ++i) s[i] = static_cast<std::uint8_t>(i * 37 + 5);
  return s;
}

TEST(Shamir, RoundTripBasic) {
  DeterministicDrbg rng("shamir", 1);
  const Bytes secret = test_secret(32);
  const auto shares = shamir_split(secret, 3, 5, rng);
  ASSERT_EQ(shares.size(), 5u);

  const std::vector<ShamirShare> subset(shares.begin(), shares.begin() + 3);
  EXPECT_TRUE(ct_equal(shamir_combine(subset), secret));
}

TEST(Shamir, AnySubsetOfThresholdSizeWorks) {
  DeterministicDrbg rng("shamir", 2);
  const Bytes secret = test_secret(16);
  const auto shares = shamir_split(secret, 3, 6, rng);

  // All C(6,3) = 20 subsets.
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = i + 1; j < 6; ++j)
      for (std::size_t k = j + 1; k < 6; ++k) {
        const std::vector<ShamirShare> subset = {shares[i], shares[j], shares[k]};
        EXPECT_TRUE(ct_equal(shamir_combine(subset), secret)) << i << "," << j << "," << k;
      }
}

TEST(Shamir, MoreThanThresholdAlsoWorks) {
  DeterministicDrbg rng("shamir", 3);
  const Bytes secret = test_secret(32);
  const auto shares = shamir_split(secret, 2, 5, rng);
  EXPECT_TRUE(ct_equal(shamir_combine(shares), secret));  // all 5
}

TEST(Shamir, BelowThresholdRevealsNothing) {
  DeterministicDrbg rng("shamir", 4);
  const Bytes secret = test_secret(32);
  const auto shares = shamir_split(secret, 3, 5, rng);

  const std::vector<ShamirShare> too_few(shares.begin(), shares.begin() + 2);
  // Interpolating 2 points of a degree-2 polynomial gives a wrong result —
  // with overwhelming probability not the secret.
  EXPECT_FALSE(ct_equal(shamir_combine(too_few), secret));
}

TEST(Shamir, ThresholdOneIsReplication) {
  DeterministicDrbg rng("shamir", 5);
  const Bytes secret = test_secret(8);
  const auto shares = shamir_split(secret, 1, 4, rng);
  for (const auto& share : shares) {
    EXPECT_TRUE(ct_equal(shamir_combine({share}), secret));
    EXPECT_TRUE(ct_equal(share.y, secret));  // degree-0 polynomial: y == secret everywhere
  }
}

TEST(Shamir, FullThreshold) {
  DeterministicDrbg rng("shamir", 6);
  const Bytes secret = test_secret(32);
  const auto shares = shamir_split(secret, 8, 8, rng);
  EXPECT_TRUE(ct_equal(shamir_combine(shares), secret));
  std::vector<ShamirShare> missing_one(shares.begin(), shares.end() - 1);
  EXPECT_FALSE(ct_equal(shamir_combine(missing_one), secret));
}

TEST(Shamir, EmptySecret) {
  DeterministicDrbg rng("shamir", 7);
  const auto shares = shamir_split({}, 2, 3, rng);
  EXPECT_TRUE(shamir_combine({shares[0], shares[2]}).empty());
}

TEST(Shamir, TamperedShareCorruptsSecret) {
  DeterministicDrbg rng("shamir", 8);
  const Bytes secret = test_secret(32);
  auto shares = shamir_split(secret, 2, 3, rng);
  shares[0].y[0] ^= 0x01;
  EXPECT_FALSE(ct_equal(shamir_combine({shares[0], shares[1]}), secret));
}

TEST(Shamir, InvalidParametersThrow) {
  DeterministicDrbg rng("shamir", 9);
  const Bytes secret = test_secret(8);
  EXPECT_THROW(shamir_split(secret, 0, 3, rng), std::invalid_argument);
  EXPECT_THROW(shamir_split(secret, 4, 3, rng), std::invalid_argument);
  EXPECT_THROW(shamir_split(secret, 2, 256, rng), std::invalid_argument);
}

TEST(Shamir, CallersCoefficientsAreTheDrawnSplit) {
  // The core split takes the caller's rows: given the bytes the
  // RandomSource form draws, in its one request, it writes the same shares,
  // and it refuses rows that are not threshold - 1 of secret.size() bytes.
  DeterministicDrbg rng("shamir", 13);
  DeterministicDrbg twin("shamir", 13);
  const Bytes secret = test_secret(32);
  const auto drawn = shamir_split(secret, 3, 5, rng);
  const SecretBytes coefficients(twin.bytes(2 * 32));
  std::vector<Bytes> ys(5, Bytes(32, 0));
  std::vector<MutableByteView> ordinates(ys.begin(), ys.end());
  shamir_split(secret, 3, coefficients, ordinates);
  for (std::size_t s = 0; s < 5; ++s) EXPECT_TRUE(ct_equal(drawn[s].y, ys[s])) << "share " << s;
  EXPECT_THROW(shamir_split(secret, 3, ByteView(coefficients).first(63), ordinates),
               std::invalid_argument);
  EXPECT_THROW(shamir_split(secret, 4, coefficients, ordinates), std::invalid_argument);
}

TEST(Shamir, CombineValidation) {
  DeterministicDrbg rng("shamir", 10);
  const Bytes secret = test_secret(8);
  auto shares = shamir_split(secret, 2, 3, rng);

  EXPECT_THROW(shamir_combine({}), std::invalid_argument);

  auto duplicate = shares;
  duplicate[1].x = duplicate[0].x;
  EXPECT_THROW(shamir_combine(duplicate), std::invalid_argument);

  auto zero_x = shares;
  zero_x[0].x = 0;
  EXPECT_THROW(shamir_combine(zero_x), std::invalid_argument);

  auto mismatched = shares;
  mismatched[0].y.resize(mismatched[0].y.size() - 1);
  EXPECT_THROW(shamir_combine(mismatched), std::invalid_argument);
}

TEST(Shamir, SharesDifferAcrossRandomness) {
  DeterministicDrbg rng1("shamir", 11);
  DeterministicDrbg rng2("shamir", 12);
  const Bytes secret = test_secret(16);
  const auto a = shamir_split(secret, 2, 3, rng1);
  const auto b = shamir_split(secret, 2, 3, rng2);
  EXPECT_FALSE(ct_equal(a[0].y, b[0].y));  // fresh polynomial each time
}

// ---- Differential tests: word-parallel kernels vs a byte-wise reference ----
//
// The reference is the textbook byte-serial evaluation with gf256::mul. It
// draws the coefficient rows from the RandomSource in the same order and
// sizes as shamir_split, so equal seeds must give byte-identical shares.

std::vector<ShamirShare> reference_split(ByteView secret, std::size_t threshold,
                                         std::size_t share_count, RandomSource& random) {
  // Every coefficient row in one request: row d is the degree-(d+1)
  // coefficient of every secret byte.
  SecretBytes coefficients((threshold - 1) * secret.size());
  random.fill(coefficients.mutable_view());
  std::vector<ShamirShare> shares(share_count);
  for (std::size_t s = 0; s < share_count; ++s) {
    const auto x = static_cast<std::uint8_t>(s + 1);
    shares[s].x = x;
    shares[s].y.resize(secret.size());
    for (std::size_t i = 0; i < secret.size(); ++i) {
      std::uint8_t acc = 0;
      for (std::size_t d = threshold - 1; d-- > 0;)
        acc = gf256::add(gf256::mul(acc, x), coefficients[d * secret.size() + i]);
      shares[s].y[i] = gf256::add(gf256::mul(acc, x), secret[i]);
    }
  }
  return shares;
}

Bytes reference_combine(const std::vector<ShamirShare>& shares) {
  Bytes secret(shares.front().y.size(), 0);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    std::uint8_t numerator = 1;
    std::uint8_t denominator = 1;
    for (std::size_t j = 0; j < shares.size(); ++j) {
      if (j == i) continue;
      numerator = gf256::mul(numerator, shares[j].x);
      denominator = gf256::mul(denominator, gf256::add(shares[j].x, shares[i].x));
    }
    const std::uint8_t basis = gf256::div(numerator, denominator);
    for (std::size_t b = 0; b < secret.size(); ++b)
      secret[b] = gf256::add(secret[b], gf256::mul(basis, shares[i].y[b]));
  }
  return secret;
}

void expect_same_shares(const std::vector<ShamirShare>& got,
                        const std::vector<ShamirShare>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].x, want[s].x) << where << " share " << s;
    EXPECT_TRUE(ct_equal(got[s].y, want[s].y)) << where << " share " << s;
  }
}

TEST(ShamirDiff, SplitMatchesByteReference) {
  // Lengths 1-65 hit every tail-lane count (1-8 bytes in the last word) and
  // up to 9 words; share counts reach 255, so x = 255 is evaluated.
  for (std::size_t len = 1; len <= 65; ++len) {
    DeterministicDrbg secrets("shamir-diff-secret", len);
    const Bytes secret = secrets.bytes(len);
    for (std::size_t threshold = 1; threshold <= 8; ++threshold) {
      for (const std::size_t count : {threshold, threshold + len % 7, std::size_t{255}}) {
        const std::string where = "len " + std::to_string(len) + " threshold " +
                                  std::to_string(threshold) + " count " + std::to_string(count);
        DeterministicDrbg rng_a("shamir-diff", len * 1000 + threshold);
        DeterministicDrbg rng_b("shamir-diff", len * 1000 + threshold);
        const auto shares = shamir_split(secret, threshold, count, rng_a);
        expect_same_shares(shares, reference_split(secret, threshold, count, rng_b), where);
        const std::vector<ShamirShare> last(shares.end() - static_cast<std::ptrdiff_t>(threshold),
                                            shares.end());
        EXPECT_TRUE(ct_equal(shamir_combine(last), secret)) << where;
      }
    }
  }
}

TEST(ShamirDiff, CombineMatchesByteReference) {
  // Arbitrary share sets (not only consistent ones): combine is a fixed
  // linear map of the y values for given x's, so it must agree on any input.
  DeterministicDrbg rng("shamir-diff-combine", 1);
  for (std::size_t len = 1; len <= 65; ++len) {
    for (std::size_t count = 1; count <= 8; ++count) {
      // Distinct x's drawn from 1..255, always including 255.
      std::vector<std::uint8_t> xs = {255};
      while (xs.size() < count) {
        const auto x = static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
        if (std::find(xs.begin(), xs.end(), x) == xs.end()) xs.push_back(x);
      }
      std::vector<ShamirShare> shares(count);
      for (std::size_t s = 0; s < count; ++s) {
        shares[s].x = xs[s];
        shares[s].y = SecretBytes(rng.bytes(len));
      }
      EXPECT_TRUE(ct_equal(shamir_combine(shares), reference_combine(shares)))
          << "len " << len << " count " << count;
    }
  }
}

// Parameterized sweep over (threshold, share_count) pairs.
class ShamirSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ShamirSweep, RoundTripAndThresholdBoundary) {
  const auto [threshold, count] = GetParam();
  DeterministicDrbg rng("sweep", static_cast<std::uint64_t>(threshold * 1000 + count));
  const Bytes secret = test_secret(32);
  const auto shares = shamir_split(secret, threshold, count, rng);

  // Exactly threshold shares (last `threshold` of them) reconstruct.
  std::vector<ShamirShare> subset(shares.end() - threshold, shares.end());
  EXPECT_TRUE(ct_equal(shamir_combine(subset), secret));

  // threshold-1 shares do not (when threshold > 1).
  if (threshold > 1) {
    subset.pop_back();
    EXPECT_FALSE(ct_equal(shamir_combine(subset), secret));
  }
}

INSTANTIATE_TEST_SUITE_P(
    MNCombinations, ShamirSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 8}, std::pair{2, 2},
                      std::pair{2, 8}, std::pair{3, 6}, std::pair{4, 8},
                      std::pair{6, 6}, std::pair{8, 31}, std::pair{16, 31},
                      std::pair{31, 31}, std::pair{2, 255}, std::pair{128, 255}));

}  // namespace
}  // namespace dauth::crypto
