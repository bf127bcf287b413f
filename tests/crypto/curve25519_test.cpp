// Direct tests of the Curve25519 field/group layer (the donna-style 51-bit
// implementation underlying Ed25519 and X25519).
#include "crypto/curve25519.h"

#include <gtest/gtest.h>

#include "crypto/drbg.h"

namespace dauth::crypto::curve25519 {
namespace {

Fe random_fe(DeterministicDrbg& rng) {
  ByteArray<32> bytes;
  rng.fill(bytes);
  bytes[31] &= 0x7f;
  Fe out;
  fe_unpack(out, bytes);
  return out;
}

ByteArray<32> packed(const Fe& a) {
  ByteArray<32> out;
  fe_pack(out, a);
  return out;
}

TEST(Fe, PackUnpackRoundTrip) {
  DeterministicDrbg rng("fe", 1);
  for (int i = 0; i < 200; ++i) {
    const Fe a = random_fe(rng);
    Fe b;
    fe_unpack(b, packed(a));
    EXPECT_TRUE(fe_equal(a, b)) << "iteration " << i;
  }
}

TEST(Fe, PackIsCanonicalForPPlusK) {
  // p = 2^255-19; encoding p+k must equal encoding of k.
  // p+1 (little-endian): p is ...ffed with top 0x7f; p+1 ends in ee.
  ByteArray<32> p_plus_1 = {0xee, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
  Fe a;
  fe_unpack(a, p_plus_1);
  const auto canonical = packed(a);
  EXPECT_EQ(canonical[0], 0x01);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(canonical[i], 0x00) << i;
}

TEST(Fe, AdditionCommutesAndAssociates) {
  DeterministicDrbg rng("fe", 2);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    Fe ab, ba;
    fe_add(ab, a, b);
    fe_add(ba, b, a);
    EXPECT_TRUE(fe_equal(ab, ba));

    Fe ab_c, bc, a_bc;
    fe_add(ab_c, ab, c);
    fe_add(bc, b, c);
    fe_add(a_bc, a, bc);
    EXPECT_TRUE(fe_equal(ab_c, a_bc));
  }
}

TEST(Fe, MultiplicationDistributesOverAddition) {
  DeterministicDrbg rng("fe", 3);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    Fe b_plus_c, lhs, ab, ac, rhs;
    fe_add(b_plus_c, b, c);
    fe_mul(lhs, a, b_plus_c);
    fe_mul(ab, a, b);
    fe_mul(ac, a, c);
    fe_add(rhs, ab, ac);
    EXPECT_TRUE(fe_equal(lhs, rhs));
  }
}

TEST(Fe, SubThenAddRoundTrips) {
  DeterministicDrbg rng("fe", 4);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng), b = random_fe(rng);
    Fe diff, back;
    fe_sub(diff, a, b);
    fe_add(back, diff, b);
    EXPECT_TRUE(fe_equal(back, a));
  }
}

TEST(Fe, InverseIsExact) {
  DeterministicDrbg rng("fe", 5);
  for (int i = 0; i < 20; ++i) {
    const Fe a = random_fe(rng);
    if (fe_equal(a, kZero)) continue;
    Fe inv, product;
    fe_inv(inv, a);
    fe_mul(product, a, inv);
    EXPECT_TRUE(fe_equal(product, kOne));
  }
}

TEST(Fe, SquareMatchesMul) {
  DeterministicDrbg rng("fe", 6);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng);
    Fe sq, mul;
    fe_sq(sq, a);
    fe_mul(mul, a, a);
    EXPECT_TRUE(fe_equal(sq, mul));
  }
}

TEST(Fe, SqrtM1SquaresToMinusOne) {
  Fe sq, minus_one;
  fe_sq(sq, kSqrtM1);
  fe_sub(minus_one, kZero, kOne);
  EXPECT_TRUE(fe_equal(sq, minus_one));
}

TEST(Ge, BasePointOnCurve) {
  // -x^2 + y^2 = 1 + d x^2 y^2 for the base point.
  Fe x2, y2, lhs, x2y2, rhs, t;
  fe_sq(x2, kBaseX);
  fe_sq(y2, kBaseY);
  fe_sub(lhs, y2, x2);
  fe_mul(x2y2, x2, y2);
  fe_mul(t, kD, x2y2);
  fe_add(rhs, kOne, t);
  EXPECT_TRUE(fe_equal(lhs, rhs));
}

TEST(Ge, IdentityIsNeutral) {
  GroupElement base = ge_base();
  GroupElement sum = ge_identity();
  ge_add(sum, base);
  EXPECT_TRUE(ge_equal(sum, base));
}

TEST(Ge, AdditionCommutes) {
  DeterministicDrbg rng("ge", 1);
  GroupElement p, q;
  ge_scalarmult_base(p, rng.array<32>());
  ge_scalarmult_base(q, rng.array<32>());

  GroupElement pq = p, qp = q;
  ge_add(pq, q);
  ge_add(qp, p);
  EXPECT_TRUE(ge_equal(pq, qp));
}

TEST(Ge, ScalarMultDistributes) {
  // (a+b)*B == a*B + b*B using scalar arithmetic mod L.
  const Scalar a = scalar_from_u64(123456789);
  const Scalar b = scalar_from_u64(987654321);
  const Scalar sum = scalar_add(a, b);

  GroupElement ga, gb, gsum;
  ge_scalarmult_base(ga, a);
  ge_scalarmult_base(gb, b);
  ge_scalarmult_base(gsum, sum);

  ge_add(ga, gb);
  EXPECT_TRUE(ge_equal(ga, gsum));
}

TEST(Ge, ScalarMultMatchesRepeatedAddition) {
  GroupElement expected = ge_base();
  const GroupElement base = ge_base();
  for (std::uint64_t k = 2; k <= 16; ++k) {
    ge_add(expected, base);  // expected = k * B
    GroupElement via_mult;
    ge_scalarmult_base(via_mult, scalar_from_u64(k));
    EXPECT_TRUE(ge_equal(via_mult, expected)) << "k=" << k;
  }
}

TEST(Ge, GeneralScalarMultMatchesBaseMult) {
  DeterministicDrbg rng("ge", 2);
  const GroupElement base = ge_base();
  for (int i = 0; i < 10; ++i) {
    ByteArray<64> wide;
    rng.fill(wide);
    const Scalar s = scalar_reduce64(wide);
    GroupElement via_base, via_general;
    ge_scalarmult_base(via_base, s);
    ge_scalarmult(via_general, base, s);
    EXPECT_TRUE(ge_equal(via_base, via_general)) << i;
  }
}

TEST(Ge, PackUnpackRoundTrip) {
  DeterministicDrbg rng("ge", 3);
  for (int i = 0; i < 20; ++i) {
    GroupElement p;
    ge_scalarmult_base(p, rng.array<32>());
    const auto encoded = ge_pack(p);
    GroupElement q;
    ASSERT_TRUE(ge_unpack(q, encoded, /*negate=*/false));
    EXPECT_TRUE(ge_equal(p, q));
    EXPECT_EQ(ge_pack(q), encoded);
  }
}

TEST(Ge, UnpackNegateGivesInverse) {
  DeterministicDrbg rng("ge", 4);
  GroupElement p;
  ge_scalarmult_base(p, rng.array<32>());
  GroupElement neg;
  ASSERT_TRUE(ge_unpack(neg, ge_pack(p), /*negate=*/true));
  // p + (-p) == identity
  ge_add(p, neg);
  EXPECT_TRUE(ge_equal(p, ge_identity()));
}

TEST(Ge, UnpackRejectsNonCurvePoints) {
  // y = 2 gives x^2 = (y^2-1)/(dy^2+1); check a handful of invalid ys.
  int rejected = 0;
  for (std::uint8_t y = 2; y < 32; ++y) {
    ByteArray<32> encoded{};
    encoded[0] = y;
    GroupElement p;
    if (!ge_unpack(p, encoded, false)) ++rejected;
  }
  EXPECT_GT(rejected, 0);  // roughly half of field elements are non-squares
}

TEST(Scalar, Reduce64MatchesKnownSmallValues) {
  ByteArray<64> wide{};
  wide[0] = 42;
  EXPECT_EQ(scalar_reduce64(wide), scalar_from_u64(42));
}

TEST(Scalar, MulAddConsistency) {
  DeterministicDrbg rng("sc", 1);
  for (int i = 0; i < 50; ++i) {
    ByteArray<64> wide;
    rng.fill(wide);
    const Scalar a = scalar_reduce64(wide);
    rng.fill(wide);
    const Scalar b = scalar_reduce64(wide);
    rng.fill(wide);
    const Scalar c = scalar_reduce64(wide);
    EXPECT_EQ(scalar_muladd(a, b, c), scalar_add(scalar_mul(a, b), c));
  }
}

TEST(Scalar, GroupOrderAnnihilatesBase) {
  // L * B == identity. L encoded little-endian.
  Scalar l{};
  const std::uint8_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                               0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                               0,    0,    0,    0,    0,    0,    0,    0,
                               0,    0,    0,    0,    0,    0,    0,    0x10};
  std::copy(std::begin(kL), std::end(kL), l.begin());
  GroupElement p;
  ge_scalarmult_base(p, l);
  EXPECT_TRUE(ge_equal(p, ge_identity()));
}

}  // namespace
}  // namespace dauth::crypto::curve25519
