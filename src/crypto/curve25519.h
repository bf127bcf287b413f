// Curve25519 field/group arithmetic shared by Ed25519 and X25519.
//
// Field elements mod p = 2^255-19 use the donna-style 5x51-bit limb
// representation with 128-bit intermediate products; Edwards points use
// extended coordinates (X:Y:Z:T). All branches on secret data are avoided
// (constant-time swaps/selects).
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace dauth::crypto::curve25519 {

/// Field element mod 2^255-19: 5 limbs of 51 bits (radix 2^51).
/// Invariant between operations: limbs < 2^52; add/sub outputs may reach
/// 2^54, which fe_mul/fe_sq absorb.
struct Fe {
  std::uint64_t v[5];
};

extern const Fe kZero;
extern const Fe kOne;
extern const Fe kD;        // Edwards curve constant d
extern const Fe kD2;       // 2d
extern const Fe kSqrtM1;   // sqrt(-1)
extern const Fe kBaseX;    // base point x
extern const Fe kBaseY;    // base point y

void fe_add(Fe& o, const Fe& a, const Fe& b) noexcept;
void fe_sub(Fe& o, const Fe& a, const Fe& b) noexcept;
void fe_mul(Fe& o, const Fe& a, const Fe& b) noexcept;
void fe_sq(Fe& o, const Fe& a) noexcept;
void fe_inv(Fe& o, const Fe& a) noexcept;       // a^(p-2), constant-time
void fe_pow2523(Fe& o, const Fe& a) noexcept;   // a^((p-5)/8)

/// Modular inverse via batched-divstep extended GCD (Bernstein-Yang).
/// VARIABLE TIME -- public inputs only. ~3.5x faster than fe_inv; never use
/// on the sign path, where even projective Z coordinates are secret-derived.
void fe_inv_vartime(Fe& o, const Fe& a) noexcept;
void fe_carry(Fe& o) noexcept;

/// Constant-time conditional swap of a and b when bit == 1.
void fe_cswap(Fe& a, Fe& b, int bit) noexcept;

/// Canonical 32-byte little-endian encoding (fully reduced).
void fe_pack(ByteArray<32>& out, const Fe& a) noexcept;
void fe_unpack(Fe& out, const ByteArray<32>& in) noexcept;  // ignores top bit

bool fe_equal(const Fe& a, const Fe& b) noexcept;
int fe_parity(const Fe& a) noexcept;  // low bit of canonical encoding

/// Edwards point in extended coordinates (X:Y:Z:T) with T = XY/Z.
struct GroupElement {
  Fe x, y, z, t;
};

/// Neutral element (0 : 1 : 1 : 0).
GroupElement ge_identity() noexcept;
/// The standard base point B.
GroupElement ge_base() noexcept;

/// p += q (unified Edwards addition; works for doubling too).
void ge_add(GroupElement& p, const GroupElement& q) noexcept;

/// r = scalar * q; scalar is a 32-byte little-endian integer.
void ge_scalarmult(GroupElement& r, const GroupElement& q, const ByteArray<32>& scalar) noexcept;

/// r = scalar * B. Constant-time: signed windowed-comb over a precomputed
/// table with cmov row scans (the scalar is a signing/commitment secret).
void ge_scalarmult_base(GroupElement& r, const ByteArray<32>& scalar) noexcept;

/// r = a * p + b * B via Strauss/Shamir joint w-NAF. VARIABLE TIME — use
/// only with public inputs (signature verification; RFC 8032 verify inputs
/// are all public).
void ge_double_scalarmult_vartime(GroupElement& r, const ByteArray<32>& a, const GroupElement& p,
                                  const ByteArray<32>& b) noexcept;

/// Affine precomputed point (y+x, y-x, 2dxy) for 3-fe_mul mixed additions.
struct GeNiels {
  Fe yplusx, yminusx, xy2d;
};

/// Per-point window table for the Strauss A-side: odd multiples P, 3P, ...,
/// 15P in affine Niels form. Building one costs the doubling chain plus a
/// single batched vartime inversion, so it only pays off across repeated
/// verifications under the same public key (the common federation pattern:
/// thousands of bundle signatures from a handful of network signing keys).
/// Public data only.
struct DblScalarPrecomp {
  GeNiels multiples[8];
};

/// Builds the A-side window table for p (public inputs only).
void ge_dblscal_precompute(DblScalarPrecomp& pre, const GroupElement& p) noexcept;

/// r = a * P + b * B where `pre` was built from P by ge_dblscal_precompute.
/// VARIABLE TIME — public inputs only.
void ge_double_scalarmult_vartime_pre(GroupElement& r, const ByteArray<32>& a,
                                      const DblScalarPrecomp& pre,
                                      const ByteArray<32>& b) noexcept;

/// True iff the encoding's y coordinate is canonical (< 2^255 - 19).
/// Variable time (encodings are public).
bool ge_is_canonical(const ByteArray<32>& encoded) noexcept;

/// Compressed 32-byte encoding (y with sign-of-x in the top bit).
ByteArray<32> ge_pack(const GroupElement& p) noexcept;

/// Same encoding via fe_inv_vartime. VARIABLE TIME -- public points only
/// (signature verification's recomputed R).
ByteArray<32> ge_pack_vartime(const GroupElement& p) noexcept;

/// Decompresses an encoded point. Returns false for invalid encodings.
/// If `negate` is true the x-coordinate is negated (as used by Ed25519
/// signature verification).
bool ge_unpack(GroupElement& out, const ByteArray<32>& encoded, bool negate) noexcept;

bool ge_equal(const GroupElement& a, const GroupElement& b) noexcept;

// ---- Scalar arithmetic mod the group order L = 2^252 + δ -------------------

using Scalar = ByteArray<32>;  // little-endian, canonical (< L)

/// Reduces a 64-byte little-endian integer mod L.
Scalar scalar_reduce64(const ByteArray<64>& wide) noexcept;

/// (a + b) mod L.
Scalar scalar_add(const Scalar& a, const Scalar& b) noexcept;

/// (a * b) mod L.
Scalar scalar_mul(const Scalar& a, const Scalar& b) noexcept;

/// (a * b + c) mod L.
Scalar scalar_muladd(const Scalar& a, const Scalar& b, const Scalar& c) noexcept;

/// Canonical scalar from a small integer.
Scalar scalar_from_u64(std::uint64_t v) noexcept;

}  // namespace dauth::crypto::curve25519
