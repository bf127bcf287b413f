// Differential tests for the variable-time scalar-multiplication kernels
// (docs/PERFORMANCE.md): the constant-time Montgomery-style ladder
// ge_scalarmult is the reference implementation, and every optimized path —
// the signed windowed-comb fixed-base multiply and the Strauss/Shamir joint
// double-scalar multiply (with and without a precomputed A-side window
// table) — must agree with it bit-for-bit on random and adversarial inputs.
#include "crypto/curve25519.h"

#include <gtest/gtest.h>

#include "crypto/drbg.h"

namespace dauth::crypto::curve25519 {
namespace {

Scalar random_scalar(DeterministicDrbg& rng) {
  return scalar_reduce64(rng.array<64>());
}

/// Reference a*P + b*B: two constant-time ladders plus one unified add.
GroupElement reference_double_mult(const Scalar& a, const GroupElement& p,
                                   const Scalar& b) {
  GroupElement ap;
  ge_scalarmult(ap, p, a);
  GroupElement bb;
  ge_scalarmult(bb, ge_base(), b);
  ge_add(ap, bb);
  return ap;
}

TEST(ScalarMultDiff, CombBaseMultMatchesLadder) {
  DeterministicDrbg rng("diff-comb", 1);
  for (int i = 0; i < 64; ++i) {
    const Scalar s = random_scalar(rng);
    GroupElement comb, ladder;
    ge_scalarmult_base(comb, s);
    ge_scalarmult(ladder, ge_base(), s);
    EXPECT_EQ(ge_pack(comb), ge_pack(ladder)) << "iteration " << i;
  }
}

TEST(ScalarMultDiff, StraussMatchesLadderPair) {
  DeterministicDrbg rng("diff-strauss", 3);
  for (int i = 0; i < 48; ++i) {
    GroupElement p;
    ge_scalarmult_base(p, random_scalar(rng));
    const Scalar a = random_scalar(rng);
    const Scalar b = random_scalar(rng);

    GroupElement joint;
    ge_double_scalarmult_vartime(joint, a, p, b);
    const GroupElement expected = reference_double_mult(a, p, b);
    EXPECT_EQ(ge_pack_vartime(joint), ge_pack(expected)) << "iteration " << i;
  }
}

TEST(ScalarMultDiff, PrecomputedStraussMatchesOneShot) {
  DeterministicDrbg rng("diff-pre", 4);
  for (int i = 0; i < 16; ++i) {
    GroupElement p;
    ge_scalarmult_base(p, random_scalar(rng));
    DblScalarPrecomp pre;
    ge_dblscal_precompute(pre, p);

    // Several scalar pairs against the same table: the per-key amortized
    // path the verifier's memo uses.
    for (int j = 0; j < 4; ++j) {
      const Scalar a = random_scalar(rng);
      const Scalar b = random_scalar(rng);
      GroupElement one_shot, amortized;
      ge_double_scalarmult_vartime(one_shot, a, p, b);
      ge_double_scalarmult_vartime_pre(amortized, a, pre, b);
      EXPECT_EQ(ge_pack_vartime(amortized), ge_pack_vartime(one_shot))
          << "point " << i << " pair " << j;
      EXPECT_EQ(ge_pack_vartime(amortized),
                ge_pack(reference_double_mult(a, p, b)));
    }
  }
}

TEST(ScalarMultDiff, EdgeScalars) {
  DeterministicDrbg rng("diff-edge", 5);
  GroupElement p;
  ge_scalarmult_base(p, random_scalar(rng));

  // 0, 1, 2, and the largest canonical scalar L-1 exercise the top-digit
  // search, the skipped first doubling, and full-length w-NAF expansions.
  std::vector<Scalar> edges = {scalar_from_u64(0), scalar_from_u64(1),
                               scalar_from_u64(2)};
  Scalar l_minus_1{};
  {
    const std::uint8_t kLm1[32] = {0xec, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                   0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                   0,    0,    0,    0,    0,    0,    0,    0,
                                   0,    0,    0,    0,    0,    0,    0,    0x10};
    for (int i = 0; i < 32; ++i) l_minus_1[i] = kLm1[i];
  }
  edges.push_back(l_minus_1);

  for (const Scalar& a : edges) {
    for (const Scalar& b : edges) {
      GroupElement joint;
      ge_double_scalarmult_vartime(joint, a, p, b);
      EXPECT_EQ(ge_pack_vartime(joint), ge_pack(reference_double_mult(a, p, b)));

      GroupElement comb, ladder;
      ge_scalarmult_base(comb, a);
      ge_scalarmult(ladder, ge_base(), a);
      EXPECT_EQ(ge_pack(comb), ge_pack(ladder));
    }
  }
}

TEST(ScalarMultDiff, VartimeInverseMatchesConstantTime) {
  DeterministicDrbg rng("diff-inv", 6);
  for (int i = 0; i < 64; ++i) {
    Fe a;
    fe_unpack(a, rng.array<32>());
    Fe ct, vt;
    fe_inv(ct, a);
    fe_inv_vartime(vt, a);
    ByteArray<32> ct_enc, vt_enc;
    fe_pack(ct_enc, ct);
    fe_pack(vt_enc, vt);
    EXPECT_EQ(vt_enc, ct_enc) << "iteration " << i;
  }
}

TEST(ScalarMultDiff, BarrettScalarOpsSelfConsistent) {
  DeterministicDrbg rng("diff-scalar", 7);
  for (int i = 0; i < 128; ++i) {
    const Scalar a = random_scalar(rng);
    const Scalar b = random_scalar(rng);
    const Scalar c = random_scalar(rng);
    // muladd must equal mul-then-add, and reduce64 must be the identity on
    // canonical scalars padded with zeros.
    EXPECT_EQ(scalar_muladd(a, b, c), scalar_add(scalar_mul(a, b), c));
    ByteArray<64> wide{};
    for (int j = 0; j < 32; ++j) wide[j] = a[j];
    EXPECT_EQ(scalar_reduce64(wide), a);
  }
}

}  // namespace
}  // namespace dauth::crypto::curve25519
