#include "crypto/curve25519.h"

#include <bit>
#include <cstring>

#include "common/secret.h"

namespace dauth::crypto::curve25519 {
namespace {

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

using u128 = unsigned __int128;

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);  // little-endian targets only (see static_assert below)
  return v;
}
static_assert(std::endian::native == std::endian::little,
              "curve25519 packing assumes a little-endian target");

Fe fe_from_bytes(const std::uint8_t (&b)[32]) noexcept {
  Fe r;
  r.v[0] = load_le64(b + 0) & kMask51;
  r.v[1] = (load_le64(b + 6) >> 3) & kMask51;
  r.v[2] = (load_le64(b + 12) >> 6) & kMask51;
  r.v[3] = (load_le64(b + 19) >> 1) & kMask51;
  r.v[4] = (load_le64(b + 24) >> 12) & kMask51;
  return r;
}

}  // namespace

const Fe kZero = {{0, 0, 0, 0, 0}};
const Fe kOne = {{1, 0, 0, 0, 0}};

// Constants from RFC 7748/8032, little-endian byte encodings.
const Fe kD = [] {
  const std::uint8_t b[32] = {0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75,
                              0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
                              0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c,
                              0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52};
  return fe_from_bytes(b);
}();

const Fe kD2 = [] {
  const std::uint8_t b[32] = {0x59, 0xf1, 0xb2, 0x26, 0x94, 0x9b, 0xd6, 0xeb,
                              0x56, 0xb1, 0x83, 0x82, 0x9a, 0x14, 0xe0, 0x00,
                              0x30, 0xd1, 0xf3, 0xee, 0xf2, 0x80, 0x8e, 0x19,
                              0xe7, 0xfc, 0xdf, 0x56, 0xdc, 0xd9, 0x06, 0x24};
  return fe_from_bytes(b);
}();

const Fe kSqrtM1 = [] {
  const std::uint8_t b[32] = {0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4,
                              0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43, 0x2f,
                              0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b,
                              0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b};
  return fe_from_bytes(b);
}();

const Fe kBaseX = [] {
  const std::uint8_t b[32] = {0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9,
                              0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7, 0x2c, 0x69,
                              0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0,
                              0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21};
  return fe_from_bytes(b);
}();

const Fe kBaseY = [] {
  const std::uint8_t b[32] = {0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
                              0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
                              0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
                              0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66};
  return fe_from_bytes(b);
}();

namespace {

inline void fe_sel(Fe& p, Fe& q, int b) noexcept {
  const std::uint64_t mask = ~(static_cast<std::uint64_t>(b) - 1);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t = mask & (p.v[i] ^ q.v[i]);
    p.v[i] ^= t;
    q.v[i] ^= t;
  }
}

}  // namespace

void fe_carry(Fe& o) noexcept {
  std::uint64_t c;
  c = o.v[0] >> 51; o.v[0] &= kMask51; o.v[1] += c;
  c = o.v[1] >> 51; o.v[1] &= kMask51; o.v[2] += c;
  c = o.v[2] >> 51; o.v[2] &= kMask51; o.v[3] += c;
  c = o.v[3] >> 51; o.v[3] &= kMask51; o.v[4] += c;
  c = o.v[4] >> 51; o.v[4] &= kMask51; o.v[0] += 19 * c;
  c = o.v[0] >> 51; o.v[0] &= kMask51; o.v[1] += c;
}

void fe_cswap(Fe& a, Fe& b, int bit) noexcept { fe_sel(a, b, bit); }

void fe_add(Fe& o, const Fe& a, const Fe& b) noexcept {
  for (int i = 0; i < 5; ++i) o.v[i] = a.v[i] + b.v[i];
}

void fe_sub(Fe& o, const Fe& a, const Fe& b) noexcept {
  // a + 2p - b keeps limbs non-negative (inputs < 2^52 after carry).
  o.v[0] = a.v[0] + 0xfffffffffffdaULL - b.v[0];
  o.v[1] = a.v[1] + 0xffffffffffffeULL - b.v[1];
  o.v[2] = a.v[2] + 0xffffffffffffeULL - b.v[2];
  o.v[3] = a.v[3] + 0xffffffffffffeULL - b.v[3];
  o.v[4] = a.v[4] + 0xffffffffffffeULL - b.v[4];
}

namespace {

/// Reduces the 5 wide column sums of a product into 51-bit limbs (shared
/// carry tail of fe_mul and fe_sq). Bounds: mul inputs have limbs < 2^53.4
/// (worst case: fe_sub minuend built on an fe_add result), so each column
/// t_i < 5 * 2^53.4 * 2^57.6 < 2^113.3, every inter-limb carry fits in a
/// u64, and only the final *19 wraparound needs a 128-bit intermediate.
inline void fe_reduce_wide(Fe& o, u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) noexcept {
  std::uint64_t r0, r1, r2, r3, r4, carry;
  r0 = (std::uint64_t)t0 & kMask51; carry = (std::uint64_t)(t0 >> 51);
  t1 += carry;
  r1 = (std::uint64_t)t1 & kMask51; carry = (std::uint64_t)(t1 >> 51);
  t2 += carry;
  r2 = (std::uint64_t)t2 & kMask51; carry = (std::uint64_t)(t2 >> 51);
  t3 += carry;
  r3 = (std::uint64_t)t3 & kMask51; carry = (std::uint64_t)(t3 >> 51);
  t4 += carry;
  r4 = (std::uint64_t)t4 & kMask51;
  // The carry out of t4 can reach ~2^62 at the worst-case input bound, so
  // the *19 wraparound must be computed in 128 bits before the final mask.
  const u128 w0 = (u128)r0 + (u128)(std::uint64_t)(t4 >> 51) * 19;
  r0 = (std::uint64_t)w0 & kMask51;
  r1 += (std::uint64_t)(w0 >> 51);

  o.v[0] = r0;
  o.v[1] = r1;
  o.v[2] = r2;
  o.v[3] = r3;
  o.v[4] = r4;
}

}  // namespace

void fe_mul(Fe& o, const Fe& a, const Fe& b) noexcept {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 + (u128)a4 * b1_19;
  u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 + (u128)a4 * b2_19;
  u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 + (u128)a4 * b3_19;
  u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 + (u128)a4 * b4_19;
  u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 + (u128)a4 * b0;

  fe_reduce_wide(o, t0, t1, t2, t3, t4);
}

void fe_sq(Fe& o, const Fe& a) noexcept {
  // Dedicated squaring: 15 64x64 multiplies instead of fe_mul's 25, by
  // folding the symmetric cross terms (2*a_i*a_j) and the *19 wraps.
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t d0 = a0 * 2, d1 = a1 * 2, d2 = a2 * 2, d3 = a3 * 2;
  const std::uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;

  u128 t0 = (u128)a0 * a0 + (u128)d1 * a4_19 + (u128)d2 * a3_19;
  u128 t1 = (u128)d0 * a1 + (u128)d2 * a4_19 + (u128)a3 * a3_19;
  u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)d3 * a4_19;
  u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
  u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;

  fe_reduce_wide(o, t0, t1, t2, t3, t4);
}

namespace {

/// o = a^(2^n) via n successive squarings (n >= 1).
inline void fe_sqn(Fe& o, const Fe& a, int n) noexcept {
  fe_sq(o, a);
  for (int i = 1; i < n; ++i) fe_sq(o, o);
}

}  // namespace

void fe_inv(Fe& o, const Fe& a) noexcept {
  // a^(p-2) with the standard curve25519 addition chain: 254 squarings and
  // 11 multiplies (the naive square-and-multiply schedule costs ~252 extra
  // multiplies, which dominated ge_pack).
  Fe t0, t1, t2, t3;
  fe_sq(t0, a);         // a^2
  fe_sqn(t1, t0, 2);    // a^8
  fe_mul(t1, t1, a);    // a^9
  fe_mul(t0, t0, t1);   // a^11
  fe_sq(t2, t0);        // a^22
  fe_mul(t1, t1, t2);   // a^31           = a^(2^5 - 1)
  fe_sqn(t2, t1, 5);
  fe_mul(t1, t2, t1);   // a^(2^10 - 1)
  fe_sqn(t2, t1, 10);
  fe_mul(t2, t2, t1);   // a^(2^20 - 1)
  fe_sqn(t3, t2, 20);
  fe_mul(t2, t3, t2);   // a^(2^40 - 1)
  fe_sqn(t2, t2, 10);
  fe_mul(t1, t2, t1);   // a^(2^50 - 1)
  fe_sqn(t2, t1, 50);
  fe_mul(t2, t2, t1);   // a^(2^100 - 1)
  fe_sqn(t3, t2, 100);
  fe_mul(t2, t3, t2);   // a^(2^200 - 1)
  fe_sqn(t2, t2, 50);
  fe_mul(t1, t2, t1);   // a^(2^250 - 1)
  fe_sqn(t1, t1, 5);
  fe_mul(o, t1, t0);    // a^(2^255 - 21) = a^(p - 2)
}

void fe_pow2523(Fe& o, const Fe& a) noexcept {
  // a^((p-5)/8) = a^(2^252 - 3), same chain shape as fe_inv.
  Fe t0, t1, t2;
  fe_sq(t0, a);         // a^2
  fe_sqn(t1, t0, 2);    // a^8
  fe_mul(t1, t1, a);    // a^9
  fe_mul(t0, t0, t1);   // a^11
  fe_sq(t0, t0);        // a^22
  fe_mul(t0, t1, t0);   // a^31           = a^(2^5 - 1)
  fe_sqn(t1, t0, 5);
  fe_mul(t0, t1, t0);   // a^(2^10 - 1)
  fe_sqn(t1, t0, 10);
  fe_mul(t1, t1, t0);   // a^(2^20 - 1)
  fe_sqn(t2, t1, 20);
  fe_mul(t1, t2, t1);   // a^(2^40 - 1)
  fe_sqn(t1, t1, 10);
  fe_mul(t0, t1, t0);   // a^(2^50 - 1)
  fe_sqn(t1, t0, 50);
  fe_mul(t1, t1, t0);   // a^(2^100 - 1)
  fe_sqn(t2, t1, 100);
  fe_mul(t1, t2, t1);   // a^(2^200 - 1)
  fe_sqn(t1, t1, 50);
  fe_mul(t0, t1, t0);   // a^(2^250 - 1)
  fe_sqn(t0, t0, 2);    // a^(2^252 - 4)
  fe_mul(o, t0, a);     // a^(2^252 - 3)
}

namespace {

// ---- Variable-time modular inversion (Bernstein-Yang divsteps) -------------
//
// fe_inv's Fermat chain is 254 *serial* squarings: ~4.3us of pure latency on
// the signature-verify hot path (ge_pack of the recomputed R). For public
// inputs a batched-divstep extended GCD is ~3.5x faster. It is variable time,
// so it must never touch the sign path, where the Z coordinate of r*B is
// correlated with the secret nonce digits (projective-coordinate leaks are a
// known signing attack); constant-time fe_inv remains the default.
//
// Values are signed integers in radix 2^62 (low limbs masked non-negative,
// the top limb carries the sign). Each batch runs 62 divstep iterations on
// the low 62 bits of (f, g) and accumulates them into a 2x2 transition
// matrix, which is then applied once to the full-width state: (f, g) shrink
// toward (+-1, 0) while (d, e) track the Bezout coefficients mod p.

struct Limb62 {
  std::int64_t v[5];
};

struct InvTrans {
  std::int64_t u, v, q, r;
};

constexpr std::int64_t kM62 = static_cast<std::int64_t>(~std::uint64_t{0} >> 2);
constexpr std::int64_t kPrime62[5] = {0x3fffffffffffffedLL, 0x3fffffffffffffffLL,
                                      0x3fffffffffffffffLL, 0x3fffffffffffffffLL,
                                      0x7fLL};
constexpr std::uint64_t kPrimeInv62 = 0x39435e50d79435e5ULL;  // p^-1 mod 2^62

/// Runs 62 divsteps on the low 62 bits of (f, g), recording them in t.
/// Variable time: loop trip counts depend on the bit pattern of g.
std::int64_t inv_divsteps62(std::int64_t eta, std::uint64_t f0, std::uint64_t g0,
                            InvTrans& t) noexcept {
  std::uint64_t u = 1, v = 0, q = 0, r = 1;
  std::uint64_t f = f0, g = g0;
  int i = 62;
  for (;;) {
    // A run of zero bits in g is that many single halving divsteps. The
    // sentinel caps the count at i; only the low i bits of f and g are
    // meaningful from here on (higher bits may wrap harmlessly).
    const int zeros = std::countr_zero(g | (~std::uint64_t{0} << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // g is odd. eta < 0 corresponds to delta > 0 in the divstep definition:
    // swap the roles of f and g (negating the one moved into g).
    if (eta < 0) {
      std::uint64_t tmp;
      eta = -eta;
      tmp = f; f = g; g = 0 - tmp;
      tmp = u; u = q; q = 0 - tmp;
      tmp = v; v = r; r = 0 - tmp;
    }
    // Cancel up to min(eta + 1, i, 6) low bits of g at once by adding the
    // right small multiple of f (w = -g / f mod 2^limit).
    int limit = eta + 1 > i ? i : static_cast<int>(eta) + 1;
    if (limit > 6) limit = 6;
    const std::uint64_t m = ~std::uint64_t{0} >> (64 - limit);
    // f^-1 mod 2^6: one Newton step from f^-1 == f (mod 8) for odd f.
    const std::uint64_t finv = f * (2 - f * f);
    const std::uint64_t w = ((0 - g) * finv) & m;
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t.u = static_cast<std::int64_t>(u);
  t.v = static_cast<std::int64_t>(v);
  t.q = static_cast<std::int64_t>(q);
  t.r = static_cast<std::int64_t>(r);
  return eta;
}

/// (f, g) <- M * (f, g) / 2^62 (exact; the matrix was built so the low
/// 62 bits of both products vanish).
void inv_update_fg(Limb62& f, Limb62& g, const InvTrans& t) noexcept {
  __int128 cf = (__int128)t.u * f.v[0] + (__int128)t.v * g.v[0];
  __int128 cg = (__int128)t.q * f.v[0] + (__int128)t.r * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < 5; ++i) {
    cf += (__int128)t.u * f.v[i] + (__int128)t.v * g.v[i];
    cg += (__int128)t.q * f.v[i] + (__int128)t.r * g.v[i];
    f.v[i - 1] = static_cast<std::int64_t>(cf) & kM62;
    cf >>= 62;
    g.v[i - 1] = static_cast<std::int64_t>(cg) & kM62;
    cg >>= 62;
  }
  f.v[4] = static_cast<std::int64_t>(cf);
  g.v[4] = static_cast<std::int64_t>(cg);
}

/// (d, e) <- M * (d, e) / 2^62 mod p: multiples of p are added to make each
/// product divisible by 2^62 (md, me chosen via p^-1 mod 2^62), keeping
/// |d|, |e| < 2p throughout.
void inv_update_de(Limb62& d, Limb62& e, const InvTrans& t) noexcept {
  const std::int64_t d_sign = d.v[4] >> 63;
  const std::int64_t e_sign = e.v[4] >> 63;
  std::int64_t md = (t.u & d_sign) + (t.v & e_sign);
  std::int64_t me = (t.q & d_sign) + (t.r & e_sign);
  __int128 cd = (__int128)t.u * d.v[0] + (__int128)t.v * e.v[0];
  __int128 ce = (__int128)t.q * d.v[0] + (__int128)t.r * e.v[0];
  md -= static_cast<std::int64_t>(
      (kPrimeInv62 * static_cast<std::uint64_t>(cd) + static_cast<std::uint64_t>(md)) &
      static_cast<std::uint64_t>(kM62));
  me -= static_cast<std::int64_t>(
      (kPrimeInv62 * static_cast<std::uint64_t>(ce) + static_cast<std::uint64_t>(me)) &
      static_cast<std::uint64_t>(kM62));
  cd += (__int128)kPrime62[0] * md;
  ce += (__int128)kPrime62[0] * me;
  cd >>= 62;
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += (__int128)t.u * d.v[i] + (__int128)t.v * e.v[i] + (__int128)kPrime62[i] * md;
    ce += (__int128)t.q * d.v[i] + (__int128)t.r * e.v[i] + (__int128)kPrime62[i] * me;
    d.v[i - 1] = static_cast<std::int64_t>(cd) & kM62;
    cd >>= 62;
    e.v[i - 1] = static_cast<std::int64_t>(ce) & kM62;
    ce >>= 62;
  }
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

bool limb62_is_zero(const Limb62& a) noexcept {
  return (a.v[0] | a.v[1] | a.v[2] | a.v[3] | a.v[4]) == 0;
}

/// a <- -a (signed radix-2^62).
void limb62_negate(Limb62& a) noexcept {
  std::int64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t v = carry - a.v[i];
    a.v[i] = v & kM62;
    carry = v >> 62;
  }
  a.v[4] = carry - a.v[4];
}

/// a <- a + p.
void limb62_add_prime(Limb62& a) noexcept {
  std::int64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t v = a.v[i] + kPrime62[i] + carry;
    a.v[i] = v & kM62;
    carry = v >> 62;
  }
  a.v[4] = a.v[4] + kPrime62[4] + carry;
}

/// a <- a - p.
void limb62_sub_prime(Limb62& a) noexcept {
  std::int64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t v = a.v[i] - kPrime62[i] + carry;
    a.v[i] = v & kM62;
    carry = v >> 62;
  }
  a.v[4] = a.v[4] - kPrime62[4] + carry;
}

/// True iff a >= p (a must be non-negative).
bool limb62_geq_prime(const Limb62& a) noexcept {
  for (int i = 4; i >= 0; --i) {
    if (a.v[i] > kPrime62[i]) return true;
    if (a.v[i] < kPrime62[i]) return false;
  }
  return true;  // a == p
}

}  // namespace

void fe_inv_vartime(Fe& o, const Fe& a) noexcept {
  ByteArray<32> bytes;
  fe_pack(bytes, a);
  std::uint64_t words[4];
  std::memcpy(words, bytes.data(), 32);  // little-endian host, asserted above

  Limb62 f{{kPrime62[0], kPrime62[1], kPrime62[2], kPrime62[3], kPrime62[4]}};
  Limb62 g{{static_cast<std::int64_t>(words[0] & kM62),
            static_cast<std::int64_t>((words[0] >> 62 | words[1] << 2) & kM62),
            static_cast<std::int64_t>((words[1] >> 60 | words[2] << 4) & kM62),
            static_cast<std::int64_t>((words[2] >> 58 | words[3] << 6) & kM62),
            static_cast<std::int64_t>(words[3] >> 56)}};
  Limb62 d{{0, 0, 0, 0, 0}};
  Limb62 e{{1, 0, 0, 0, 0}};

  // Invariants mod p: a*d == f and a*e == g (up to the shared 2^-62 scale
  // handled inside the updates). 256-bit inputs need at most 12 batches;
  // the cap is an unreachable safety net that falls back to Fermat.
  std::int64_t eta = -1;
  for (int iter = 0; !limb62_is_zero(g); ++iter) {
    if (iter >= 16) {
      fe_inv(o, a);
      return;
    }
    InvTrans t;
    eta = inv_divsteps62(eta, static_cast<std::uint64_t>(f.v[0]),
                         static_cast<std::uint64_t>(g.v[0]), t);
    inv_update_fg(f, g, t);
    inv_update_de(d, e, t);
  }

  // g == 0, so f = +-gcd(a, p): +-1 for a != 0 (and d == 0 when a == 0,
  // matching fe_inv's 0 -> 0 behaviour). a * d == f (mod p), so the answer
  // is d negated when f is negative, normalized into [0, p).
  if (f.v[4] < 0) limb62_negate(d);
  while (d.v[4] < 0) limb62_add_prime(d);
  while (limb62_geq_prime(d)) limb62_sub_prime(d);

  ByteArray<32> out_bytes;
  const std::uint64_t r0 = static_cast<std::uint64_t>(d.v[0]);
  const std::uint64_t r1 = static_cast<std::uint64_t>(d.v[1]);
  const std::uint64_t r2 = static_cast<std::uint64_t>(d.v[2]);
  const std::uint64_t r3 = static_cast<std::uint64_t>(d.v[3]);
  const std::uint64_t r4 = static_cast<std::uint64_t>(d.v[4]);
  const std::uint64_t w0 = r0 | (r1 << 62);
  const std::uint64_t w1 = (r1 >> 2) | (r2 << 60);
  const std::uint64_t w2 = (r2 >> 4) | (r3 << 58);
  const std::uint64_t w3 = (r3 >> 6) | (r4 << 56);
  const std::uint64_t out_words[4] = {w0, w1, w2, w3};
  std::memcpy(out_bytes.data(), out_words, 32);
  fe_unpack(o, out_bytes);
}

void fe_pack(ByteArray<32>& out, const Fe& a) noexcept {
  Fe t = a;
  fe_carry(t);
  fe_carry(t);

  // Canonicalize: conditionally subtract p (twice to be safe).
  for (int pass = 0; pass < 2; ++pass) {
    std::uint64_t m[5];
    std::uint64_t borrow = 0;
    const std::uint64_t p0 = kMask51 - 18;  // 2^51 - 19
    m[0] = t.v[0] - p0;
    borrow = (t.v[0] < p0) ? 1 : 0;
    for (int i = 1; i < 5; ++i) {
      const std::uint64_t sub = kMask51 + borrow;
      m[i] = t.v[i] - sub;
      borrow = (t.v[i] < sub) ? 1 : 0;
    }
    // borrow == 0 means t >= p: take m. Constant-time select.
    const std::uint64_t keep = 0 - borrow;  // all-ones if borrow (keep t)
    for (int i = 0; i < 5; ++i) {
      t.v[i] = (t.v[i] & keep) | ((m[i] & kMask51) & ~keep);
    }
  }

  // Pack 5x51 bits into 32 bytes.
  std::uint64_t w0 = t.v[0] | (t.v[1] << 51);
  std::uint64_t w1 = (t.v[1] >> 13) | (t.v[2] << 38);
  std::uint64_t w2 = (t.v[2] >> 26) | (t.v[3] << 25);
  std::uint64_t w3 = (t.v[3] >> 39) | (t.v[4] << 12);
  const std::uint64_t words[4] = {w0, w1, w2, w3};
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 8; ++i) {
      out[8 * w + i] = static_cast<std::uint8_t>(words[w] >> (8 * i));
    }
  }
}

void fe_unpack(Fe& out, const ByteArray<32>& in) noexcept {
  std::uint8_t b[32];
  std::memcpy(b, in.data(), 32);
  out = fe_from_bytes(b);
}

bool fe_equal(const Fe& a, const Fe& b) noexcept {
  ByteArray<32> pa, pb;
  fe_pack(pa, a);
  fe_pack(pb, b);
  return ct_equal(pa, pb);
}

int fe_parity(const Fe& a) noexcept {
  ByteArray<32> packed;
  fe_pack(packed, a);
  return packed[0] & 1;
}

GroupElement ge_identity() noexcept {
  GroupElement p;
  p.x = kZero;
  p.y = kOne;
  p.z = kOne;
  p.t = kZero;
  return p;
}

GroupElement ge_base() noexcept {
  GroupElement p;
  p.x = kBaseX;
  p.y = kBaseY;
  p.z = kOne;
  fe_mul(p.t, kBaseX, kBaseY);
  return p;
}

void ge_add(GroupElement& p, const GroupElement& q) noexcept {
  Fe a, b, c, d, t, e, f, g, h;
  fe_sub(a, p.y, p.x);
  fe_sub(t, q.y, q.x);
  fe_mul(a, a, t);
  fe_add(b, p.x, p.y);
  fe_add(t, q.x, q.y);
  fe_mul(b, b, t);
  fe_mul(c, p.t, q.t);
  fe_mul(c, c, kD2);
  fe_mul(d, p.z, q.z);
  fe_add(d, d, d);
  fe_sub(e, b, a);
  fe_sub(f, d, c);
  fe_add(g, d, c);
  fe_add(h, b, a);
  fe_mul(p.x, e, f);
  fe_mul(p.y, h, g);
  fe_mul(p.z, g, f);
  fe_mul(p.t, e, h);
}

namespace {

void ge_cswap(GroupElement& p, GroupElement& q, int bit) noexcept {
  fe_sel(p.x, q.x, bit);
  fe_sel(p.y, q.y, bit);
  fe_sel(p.z, q.z, bit);
  fe_sel(p.t, q.t, bit);
}

}  // namespace

void ge_scalarmult(GroupElement& r, const GroupElement& q_in, const ByteArray<32>& scalar) noexcept {
  GroupElement q = q_in;
  r = ge_identity();
  for (int i = 255; i >= 0; --i) {
    const int b = (scalar[i / 8] >> (i & 7)) & 1;
    ge_cswap(r, q, b);
    ge_add(q, r);
    ge_add(r, r);
    ge_cswap(r, q, b);
  }
}

namespace {

// ---- Specialized point representations (ref10-style) -----------------------
//
// The unified extended-coordinate ge_add above is complete but costs 9 fe_mul.
// The hot paths below use the cheaper dedicated forms:
//   GeP1p1  "completed" point (X:Y:Z:T); the actual point is (X/Z, Y/T) and a
//           3-4 fe_mul conversion lands it back in P2/P3.
//   Niels   affine precomputed point (y+x, y-x, 2dxy): mixed addition needs
//           only 3 fe_mul plus the conversion.
//   Cached  projective precomputed point (Y+X, Y-X, Z, 2dT): 4 fe_mul adds.
// All formulas are the complete a=-1 twisted Edwards set, so identity and
// low-order inputs need no special-casing.
//
// fe_sub range discipline: the subtrahend is always a fe_mul/fe_sq output
// (limbs < 2^52), matching the 2p offsets baked into fe_sub.

struct GeP1p1 {
  Fe x, y, z, t;
};

// Affine precomputed form: declared in the header as GeNiels so callers can
// hold precomputed window tables (DblScalarPrecomp).
using Niels = GeNiels;

struct Cached {
  Fe yplusx, yminusx, z, t2d;
};

/// r = 2 * (x : y : z); the extended t coordinate of the input is not needed.
void ge_dbl(GeP1p1& r, const Fe& x, const Fe& y, const Fe& z) noexcept {
  Fe xx, yy, t0;
  fe_sq(xx, x);
  fe_sq(yy, y);
  fe_sq(r.t, z);
  fe_add(r.t, r.t, r.t);  // 2ZZ
  fe_add(t0, x, y);
  fe_sq(t0, t0);          // (X+Y)^2
  fe_sub(t0, t0, xx);
  fe_sub(r.x, t0, yy);    // 2XY
  fe_add(r.y, yy, xx);    // YY+XX
  fe_sub(r.z, yy, xx);    // YY-XX
  fe_sub(r.t, r.t, yy);
  fe_add(r.t, r.t, xx);   // 2ZZ-YY+XX
}

/// r = p + q with q in affine Niels form (3 fe_mul).
void ge_madd(GeP1p1& r, const GroupElement& p, const Niels& q) noexcept {
  Fe t0;
  fe_add(r.x, p.y, p.x);
  fe_sub(r.y, p.y, p.x);
  fe_mul(r.z, r.x, q.yplusx);   // A = (Y1+X1)(y2+x2)
  fe_mul(r.y, r.y, q.yminusx);  // B = (Y1-X1)(y2-x2)
  fe_mul(r.t, q.xy2d, p.t);     // C = 2d*x2*y2*T1
  fe_add(t0, p.z, p.z);         // D = 2Z1
  fe_sub(r.x, r.z, r.y);        // A-B
  fe_add(r.y, r.z, r.y);        // A+B
  fe_add(r.z, t0, r.t);         // D+C
  fe_sub(r.t, t0, r.t);         // D-C
}

/// r = p - q with q in affine Niels form.
void ge_msub(GeP1p1& r, const GroupElement& p, const Niels& q) noexcept {
  Fe t0;
  fe_add(r.x, p.y, p.x);
  fe_sub(r.y, p.y, p.x);
  fe_mul(r.z, r.x, q.yminusx);
  fe_mul(r.y, r.y, q.yplusx);
  fe_mul(r.t, q.xy2d, p.t);
  fe_add(t0, p.z, p.z);
  fe_sub(r.x, r.z, r.y);
  fe_add(r.y, r.z, r.y);
  fe_sub(r.z, t0, r.t);
  fe_add(r.t, t0, r.t);
}

/// r = p + q with q in projective Cached form (4 fe_mul).
void ge_add_cached(GeP1p1& r, const GroupElement& p, const Cached& q) noexcept {
  Fe t0;
  fe_add(r.x, p.y, p.x);
  fe_sub(r.y, p.y, p.x);
  fe_mul(r.z, r.x, q.yplusx);
  fe_mul(r.y, r.y, q.yminusx);
  fe_mul(r.t, q.t2d, p.t);
  fe_mul(r.x, p.z, q.z);
  fe_add(t0, r.x, r.x);   // 2*Z1*Z2
  fe_sub(r.x, r.z, r.y);
  fe_add(r.y, r.z, r.y);
  fe_add(r.z, t0, r.t);
  fe_sub(r.t, t0, r.t);
}

/// r = p - q with q in projective Cached form.
void ge_sub_cached(GeP1p1& r, const GroupElement& p, const Cached& q) noexcept {
  Fe t0;
  fe_add(r.x, p.y, p.x);
  fe_sub(r.y, p.y, p.x);
  fe_mul(r.z, r.x, q.yminusx);
  fe_mul(r.y, r.y, q.yplusx);
  fe_mul(r.t, q.t2d, p.t);
  fe_mul(r.x, p.z, q.z);
  fe_add(t0, r.x, r.x);
  fe_sub(r.x, r.z, r.y);
  fe_add(r.y, r.z, r.y);
  fe_sub(r.z, t0, r.t);
  fe_add(r.t, t0, r.t);
}

/// P1P1 -> full extended coordinates (4 fe_mul).
void p1p1_to_p3(GroupElement& r, const GeP1p1& p) noexcept {
  fe_mul(r.x, p.x, p.t);
  fe_mul(r.y, p.y, p.z);
  fe_mul(r.z, p.z, p.t);
  fe_mul(r.t, p.x, p.y);
}

/// P1P1 -> projective only; r.t is left stale and must not be read.
void p1p1_to_p2(GroupElement& r, const GeP1p1& p) noexcept {
  fe_mul(r.x, p.x, p.t);
  fe_mul(r.y, p.y, p.z);
  fe_mul(r.z, p.z, p.t);
}

Cached to_cached(const GroupElement& p) noexcept {
  Cached c;
  fe_add(c.yplusx, p.y, p.x);
  fe_sub(c.yminusx, p.y, p.x);
  c.z = p.z;
  fe_mul(c.t2d, p.t, kD2);
  return c;
}

/// Normalizes a point to affine Niels form (costs one fe_inv).
Niels to_niels(const GroupElement& p) noexcept {
  Fe zi, ax, ay;
  fe_inv(zi, p.z);
  fe_mul(ax, p.x, zi);
  fe_mul(ay, p.y, zi);
  Niels n;
  fe_add(n.yplusx, ay, ax);
  fe_carry(n.yplusx);
  fe_sub(n.yminusx, ay, ax);
  fe_carry(n.yminusx);
  fe_mul(n.xy2d, ax, ay);
  fe_mul(n.xy2d, n.xy2d, kD2);
  return n;
}

// ---- Constant-time helpers for the fixed-base comb -------------------------

/// All-ones mask iff a == b, branch-free: (d | -d) >> 63 is 1 iff d != 0.
inline std::uint64_t ct_eq_mask(std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t d = a ^ b;
  return std::uint64_t{0} - (1 ^ ((d | (std::uint64_t{0} - d)) >> 63));
}

inline void fe_cmov(Fe& r, const Fe& a, std::uint64_t mask) noexcept {
  for (int i = 0; i < 5; ++i) r.v[i] ^= mask & (r.v[i] ^ a.v[i]);
}

/// comb_table()[i][j] = (j+1) * 16^(2i) * B in affine Niels form.
/// Built lazily, once per process (thread-safe magic static).
using CombRow = Niels[8];
const CombRow* comb_table() noexcept {
  static const CombRow* table = [] {
    static Niels t[32][8];
    GroupElement cur = ge_base();  // 16^(2i) * B
    for (int i = 0; i < 32; ++i) {
      GroupElement m = cur;  // (j+1) * 16^(2i) * B
      for (int j = 0; j < 8; ++j) {
        t[i][j] = to_niels(m);
        ge_add(m, cur);
      }
      for (int d = 0; d < 8; ++d) ge_add(cur, cur);  // cur *= 256
    }
    return &t[0];
  }();
  return table;
}

/// Constant-time lookup of digit * 16^(2*pos) * B for digit in [-8, 8]:
/// scans the whole row with cmovs and conditionally negates.
void comb_select(Niels& t, int pos, int digit) noexcept {
  const std::uint32_t ud = static_cast<std::uint32_t>(digit);
  const std::uint32_t sign32 = ud >> 31;                       // 1 iff digit < 0
  const std::uint32_t m32 = std::uint32_t{0} - sign32;
  const std::uint32_t babs = (ud ^ m32) - m32;                 // |digit|
  const CombRow* comb = comb_table();

  t.yplusx = kOne;
  t.yminusx = kOne;
  t.xy2d = kZero;
  for (std::uint32_t j = 0; j < 8; ++j) {
    const std::uint64_t mask = ct_eq_mask(babs, j + 1);
    fe_cmov(t.yplusx, comb[pos][j].yplusx, mask);
    fe_cmov(t.yminusx, comb[pos][j].yminusx, mask);
    fe_cmov(t.xy2d, comb[pos][j].xy2d, mask);
  }
  // Conditional negation: -P swaps (y+x, y-x) and negates 2dxy.
  Niels minus;
  minus.yplusx = t.yminusx;
  minus.yminusx = t.yplusx;
  fe_sub(minus.xy2d, kZero, t.xy2d);
  fe_carry(minus.xy2d);
  const std::uint64_t nmask = std::uint64_t{0} - std::uint64_t{sign32};
  fe_cmov(t.yplusx, minus.yplusx, nmask);
  fe_cmov(t.yminusx, minus.yminusx, nmask);
  fe_cmov(t.xy2d, minus.xy2d, nmask);
}

// ---- Variable-time machinery (verify-side: public inputs only) -------------

/// Recodes a 256-bit scalar into sliding-window NAF: at most one nonzero odd
/// digit |d| <= 2^(w-1)-1 in any w consecutive positions. Variable time.
void slide(std::int16_t* r, const std::uint8_t* a, int w) noexcept {
  const int bound = (1 << (w - 1)) - 1;  // w = 9 digits reach +-255: int16
  for (int i = 0; i < 256; ++i) r[i] = static_cast<std::int16_t>(1 & (a[i >> 3] >> (i & 7)));
  for (int i = 0; i < 256; ++i) {
    if (!r[i]) continue;
    for (int b = 1; b <= w - 1 && i + b < 256; ++b) {
      if (!r[i + b]) continue;
      if (r[i] + (r[i + b] << b) <= bound) {
        r[i] = static_cast<std::int16_t>(r[i] + (r[i + b] << b));
        r[i + b] = 0;
      } else if (r[i] - (r[i + b] << b) >= -bound) {
        r[i] = static_cast<std::int16_t>(r[i] - (r[i + b] << b));
        for (int h = i + b; h < 256; ++h) {
          if (!r[h]) {
            r[h] = 1;
            break;
          }
          r[h] = 0;
        }
      } else {
        break;
      }
    }
  }
}

/// bnaf_table()[j] = (2j+1) * B in affine Niels form (odd multiples up to
/// 255*B for the width-9 sliding window over the fixed base). 128 entries
/// (~15 KiB) cut the average add count from 253/9 to 253/10; the table is
/// static and shared, so the one-time cost amortizes away.
const Niels* bnaf_table() noexcept {
  static const Niels* table = [] {
    static Niels t[128];
    GroupElement b2 = ge_base();
    ge_add(b2, ge_base());  // 2B
    GroupElement cur = ge_base();
    for (int j = 0; j < 128; ++j) {
      t[j] = to_niels(cur);
      ge_add(cur, b2);
    }
    return &t[0];
  }();
  return table;
}

}  // namespace

void ge_scalarmult_base(GroupElement& r, const ByteArray<32>& scalar) noexcept {
  // Signed windowed comb (ref10 layout): the scalar becomes 64 signed
  // radix-16 digits; odd digit positions are accumulated first, the sum is
  // multiplied by 16 with four doublings, then even positions are added.
  // 64 mixed additions + 4 doublings, vs. ~255 unified additions for the
  // old per-bit table walk. Table lookups are constant-time cmov scans and
  // the digit scratch is wiped: the scalar is a signing/commitment secret.
  signed char e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<signed char>(scalar[i] & 15);
    e[2 * i + 1] = static_cast<signed char>((scalar[i] >> 4) & 15);
  }
  signed char carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<signed char>(e[i] + carry);
    carry = static_cast<signed char>((e[i] + 8) >> 4);
    e[i] = static_cast<signed char>(e[i] - (carry << 4));
  }
  e[63] = static_cast<signed char>(e[63] + carry);  // in [-8, 8]; no carry out for scalars < 2^255

  r = ge_identity();
  Niels t;
  GeP1p1 s;
  for (int i = 1; i < 64; i += 2) {
    comb_select(t, i / 2, e[i]);
    ge_madd(s, r, t);
    p1p1_to_p3(r, s);
  }
  GroupElement u;
  ge_dbl(s, r.x, r.y, r.z);
  p1p1_to_p2(u, s);
  ge_dbl(s, u.x, u.y, u.z);
  p1p1_to_p2(u, s);
  ge_dbl(s, u.x, u.y, u.z);
  p1p1_to_p2(u, s);
  ge_dbl(s, u.x, u.y, u.z);
  p1p1_to_p3(r, s);
  for (int i = 0; i < 64; i += 2) {
    comb_select(t, i / 2, e[i]);
    ge_madd(s, r, t);
    p1p1_to_p3(r, s);
  }
  secure_wipe(e, sizeof e);
  secure_wipe(&t, sizeof t);
  secure_wipe(&s, sizeof s);
}

namespace {

inline void table_add(GeP1p1& s, const GroupElement& v, const Cached& e) noexcept {
  ge_add_cached(s, v, e);
}
inline void table_sub(GeP1p1& s, const GroupElement& v, const Cached& e) noexcept {
  ge_sub_cached(s, v, e);
}
inline void table_add(GeP1p1& s, const GroupElement& v, const Niels& e) noexcept {
  ge_madd(s, v, e);
}
inline void table_sub(GeP1p1& s, const GroupElement& v, const Niels& e) noexcept {
  ge_msub(s, v, e);
}

/// Shared Strauss (Shamir's trick) ladder: one doubling chain for a*P + b*B,
/// width-5 sliding-window NAF digits for the per-call point P against `ai`
/// (projective Cached for one-shot calls, affine Niels for precomputed
/// tables) and width-9 digits against the static odd-multiples table for B.
/// Variable time: only for public inputs (signature verification).
template <typename ATable>
void strauss_loop(GroupElement& r, const std::int16_t* aslide, const ATable* ai,
                  const std::int16_t* bslide) noexcept {
  const Niels* bn = bnaf_table();

  int i = 255;
  while (i >= 0 && !aslide[i] && !bslide[i]) --i;
  if (i < 0) {
    r = ge_identity();
    return;
  }

  // The accumulator starts as the identity, written directly in P1P1 form
  // ((0:1:1:1) completes to the extended identity (0:1:1:0)), so the top
  // digit position skips its doubling -- doubling the identity is a no-op.
  GeP1p1 s{kZero, kOne, kOne, kOne};
  GroupElement u, v;
  bool first = true;
  for (; i >= 0; --i) {
    if (!first) {
      p1p1_to_p2(u, s);
      ge_dbl(s, u.x, u.y, u.z);
    }
    first = false;
    if (aslide[i] > 0) {
      p1p1_to_p3(v, s);
      table_add(s, v, ai[aslide[i] / 2]);
    } else if (aslide[i] < 0) {
      p1p1_to_p3(v, s);
      table_sub(s, v, ai[(-aslide[i]) / 2]);
    }
    if (bslide[i] > 0) {
      p1p1_to_p3(v, s);
      ge_madd(s, v, bn[bslide[i] / 2]);
    } else if (bslide[i] < 0) {
      p1p1_to_p3(v, s);
      ge_msub(s, v, bn[(-bslide[i]) / 2]);
    }
  }
  p1p1_to_p3(r, s);
}

/// Extended-coordinate odd multiples P, 3P, ..., 15P of p.
void odd_multiples(GroupElement (&mul)[8], const GroupElement& p) noexcept {
  GeP1p1 st;
  GroupElement p2;
  ge_dbl(st, p.x, p.y, p.z);
  p1p1_to_p3(p2, st);
  const Cached c2 = to_cached(p2);
  mul[0] = p;
  for (int j = 1; j < 8; ++j) {
    ge_add_cached(st, mul[j - 1], c2);
    p1p1_to_p3(mul[j], st);
  }
}

}  // namespace

void ge_double_scalarmult_vartime(GroupElement& r, const ByteArray<32>& a, const GroupElement& p,
                                  const ByteArray<32>& b) noexcept {
  std::int16_t aslide[256];
  std::int16_t bslide[256];
  slide(aslide, a.data(), 5);
  slide(bslide, b.data(), 9);

  // One-shot call: keep the window table projective (Cached); normalizing it
  // to affine would cost an inversion that a single multiplication cannot
  // amortize.
  GroupElement mul[8];
  odd_multiples(mul, p);
  Cached ai[8];
  for (int j = 0; j < 8; ++j) ai[j] = to_cached(mul[j]);
  strauss_loop(r, aslide, ai, bslide);
}

void ge_dblscal_precompute(DblScalarPrecomp& pre, const GroupElement& p) noexcept {
  // Normalize the odd multiples to affine Niels form with one Montgomery
  // batched vartime inversion. Repeat verifiers (same public key) then pay
  // 3 fe_mul per A-side addition instead of 4 and skip the per-call table
  // build entirely.
  GroupElement mul[8];
  odd_multiples(mul, p);

  Fe prod[8];  // prod[j] = Z_0 * ... * Z_j
  prod[0] = mul[0].z;
  for (int j = 1; j < 8; ++j) fe_mul(prod[j], prod[j - 1], mul[j].z);
  Fe inv;  // running inverse of the suffix product
  fe_inv_vartime(inv, prod[7]);

  for (int j = 7; j >= 0; --j) {
    Fe zi = inv;  // 1 / Z_j
    if (j > 0) {
      fe_mul(zi, inv, prod[j - 1]);
      fe_mul(inv, inv, mul[j].z);
    }
    Fe x, y, t;
    fe_mul(x, mul[j].x, zi);
    fe_mul(y, mul[j].y, zi);
    GeNiels& n = pre.multiples[j];
    fe_add(n.yplusx, y, x);
    fe_sub(n.yminusx, y, x);
    fe_mul(t, x, y);
    fe_mul(n.xy2d, t, kD2);
  }
}

void ge_double_scalarmult_vartime_pre(GroupElement& r, const ByteArray<32>& a,
                                      const DblScalarPrecomp& pre,
                                      const ByteArray<32>& b) noexcept {
  std::int16_t aslide[256];
  std::int16_t bslide[256];
  slide(aslide, a.data(), 5);
  slide(bslide, b.data(), 9);
  strauss_loop(r, aslide, pre.multiples, bslide);
}

bool ge_is_canonical(const ByteArray<32>& encoded) noexcept {
  // The y encoding (sign bit masked off) must be < p = 2^255 - 19; the only
  // non-canonical values are p..2^255-1, i.e. 0x7fff...ffed + [0, 18].
  if ((encoded[31] & 0x7f) != 0x7f) return true;
  for (int i = 30; i >= 1; --i) {
    if (encoded[i] != 0xff) return true;
  }
  return encoded[0] < 0xed;
}

ByteArray<32> ge_pack(const GroupElement& p) noexcept {
  Fe zi, tx, ty;
  fe_inv(zi, p.z);
  fe_mul(tx, p.x, zi);
  fe_mul(ty, p.y, zi);
  ByteArray<32> out;
  fe_pack(out, ty);
  out[31] = static_cast<std::uint8_t>(out[31] ^ (fe_parity(tx) << 7));
  return out;
}

ByteArray<32> ge_pack_vartime(const GroupElement& p) noexcept {
  Fe zi, tx, ty;
  fe_inv_vartime(zi, p.z);
  fe_mul(tx, p.x, zi);
  fe_mul(ty, p.y, zi);
  ByteArray<32> out;
  fe_pack(out, ty);
  out[31] = static_cast<std::uint8_t>(out[31] ^ (fe_parity(tx) << 7));
  return out;
}

bool ge_unpack(GroupElement& out, const ByteArray<32>& encoded, bool negate) noexcept {
  Fe t, chk, num, den, den2, den4, den6;
  out.z = kOne;
  fe_unpack(out.y, encoded);

  // Recover x from y: x^2 = (y^2 - 1) / (d y^2 + 1).
  fe_sq(num, out.y);
  fe_mul(den, num, kD);
  fe_sub(num, num, out.z);
  fe_add(den, out.z, den);

  fe_sq(den2, den);
  fe_sq(den4, den2);
  fe_mul(den6, den4, den2);
  fe_mul(t, den6, num);
  fe_mul(t, t, den);

  fe_pow2523(t, t);
  fe_mul(t, t, num);
  fe_mul(t, t, den);
  fe_mul(t, t, den);
  fe_mul(out.x, t, den);

  fe_sq(chk, out.x);
  fe_mul(chk, chk, den);
  if (!fe_equal(chk, num)) fe_mul(out.x, out.x, kSqrtM1);

  fe_sq(chk, out.x);
  fe_mul(chk, chk, den);
  if (!fe_equal(chk, num)) return false;

  const int want_negative = encoded[31] >> 7;
  int flip = (fe_parity(out.x) != want_negative) ? 1 : 0;
  if (negate) flip ^= 1;
  if (flip) fe_sub(out.x, kZero, out.x);

  fe_mul(out.t, out.x, out.y);
  return true;
}

bool ge_equal(const GroupElement& a, const GroupElement& b) noexcept {
  const ByteArray<32> pa = ge_pack(a);
  const ByteArray<32> pb = ge_pack(b);
  return ct_equal(pa, pb);
}

namespace {

// ---- Scalar reduction mod L over 64-bit limbs ------------------------------
//
// L = 2^252 + 27742317777372353535851937790883648493. A 512-bit value is
// reduced with one constant-time Barrett step using mu = floor(2^512 / L):
// q = floor(x*mu / 2^512) satisfies floor(x/L) - 2 <= q <= floor(x/L), so
// r = x - q*L lands in [0, 3L) and two conditional subtractions finish.
// All loops have fixed trip counts and the subtractions select via masks;
// scalar inputs here include signing nonces, so this path must stay
// constant-time (unlike verification's point arithmetic).

constexpr std::uint64_t kOrderL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                                      0, 0x1000000000000000ULL};
// floor(2^512 / L); validated against L in the scalar unit tests.
constexpr std::uint64_t kBarrettMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                                         0xffffffffffffffebULL, 0xffffffffffffffffULL,
                                         0x000000000000000fULL};

/// Constant-time r -= L if r >= L (4 limbs, little-endian).
inline void sc_csub_order(std::uint64_t r[4]) noexcept {
  std::uint64_t d[4];
  std::uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 t = (u128)r[i] - kOrderL[i] - borrow;
    d[i] = (std::uint64_t)t;
    borrow = (std::uint64_t)(t >> 64) & 1;
  }
  // borrow == 1 means r < L: keep r. Otherwise take the difference.
  const std::uint64_t keep = std::uint64_t{0} - borrow;
  for (int i = 0; i < 4; ++i) r[i] = (r[i] & keep) | (d[i] & ~keep);
}

/// Reduces the 512-bit little-endian limb value x mod L into 32 bytes.
void sc_reduce512(std::uint8_t out[32], const std::uint64_t x[8]) noexcept {
  // prod = x * mu, full 13-limb schoolbook product.
  std::uint64_t prod[13] = {};
  for (int j = 0; j < 5; ++j) {
    u128 carry = 0;
    for (int i = 0; i < 8; ++i) {
      carry += (u128)x[i] * kBarrettMu[j] + prod[i + j];
      prod[i + j] = (std::uint64_t)carry;
      carry >>= 64;
    }
    prod[8 + j] = (std::uint64_t)carry;
  }
  // q = floor(x*mu / 2^512) is prod[8..12]. Only the low five limbs of q*L
  // matter: r = x - q*L < 3L < 2^255, and truncated arithmetic mod 2^320
  // yields it exactly.
  const std::uint64_t* q = prod + 8;
  std::uint64_t ql[5] = {};
  for (int j = 0; j < 4; ++j) {
    u128 carry = 0;
    for (int i = 0; i + j < 5; ++i) {
      carry += (u128)q[i] * kOrderL[j] + ql[i + j];
      ql[i + j] = (std::uint64_t)carry;
      carry >>= 64;
    }
  }
  std::uint64_t r[5];
  std::uint64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 t = (u128)x[i] - ql[i] - borrow;
    r[i] = (std::uint64_t)t;
    borrow = (std::uint64_t)(t >> 64) & 1;
  }
  sc_csub_order(r);
  sc_csub_order(r);
  for (int i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
  // Reduction scratch is derived from signing nonces on the sign path.
  secure_wipe(prod, sizeof prod);
  secure_wipe(ql, sizeof ql);
  secure_wipe(r, sizeof r);
}

}  // namespace

Scalar scalar_reduce64(const ByteArray<64>& wide) noexcept {
  std::uint64_t x[8];
  std::memcpy(x, wide.data(), 64);  // little-endian host, asserted above
  Scalar out;
  sc_reduce512(out.data(), x);
  secure_wipe(x, sizeof x);
  return out;
}

Scalar scalar_add(const Scalar& a, const Scalar& b) noexcept {
  std::uint64_t x[8] = {};
  std::uint64_t al[4], bl[4];
  std::memcpy(al, a.data(), 32);
  std::memcpy(bl, b.data(), 32);
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    carry += (u128)al[i] + bl[i];
    x[i] = (std::uint64_t)carry;
    carry >>= 64;
  }
  x[4] = (std::uint64_t)carry;
  Scalar out;
  sc_reduce512(out.data(), x);
  secure_wipe(x, sizeof x);
  secure_wipe(al, sizeof al);
  secure_wipe(bl, sizeof bl);
  return out;
}

Scalar scalar_mul(const Scalar& a, const Scalar& b) noexcept {
  return scalar_muladd(a, b, scalar_from_u64(0));
}

Scalar scalar_muladd(const Scalar& a, const Scalar& b, const Scalar& c) noexcept {
  std::uint64_t al[4], bl[4], cl[4], x[8] = {};
  std::memcpy(al, a.data(), 32);
  std::memcpy(bl, b.data(), 32);
  std::memcpy(cl, c.data(), 32);
  for (int j = 0; j < 4; ++j) {
    u128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      carry += (u128)al[i] * bl[j] + x[i + j];
      x[i + j] = (std::uint64_t)carry;
      carry >>= 64;
    }
    x[4 + j] = (std::uint64_t)carry;
  }
  // x += c; a*b + c < L^2 + L fits comfortably in 512 bits.
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    carry += (u128)x[i] + cl[i];
    x[i] = (std::uint64_t)carry;
    carry >>= 64;
  }
  for (int i = 4; i < 8; ++i) {  // fixed trip count: carry is secret-derived
    carry += x[i];
    x[i] = (std::uint64_t)carry;
    carry >>= 64;
  }
  Scalar out;
  sc_reduce512(out.data(), x);
  secure_wipe(al, sizeof al);
  secure_wipe(bl, sizeof bl);
  secure_wipe(cl, sizeof cl);
  secure_wipe(x, sizeof x);
  return out;
}

Scalar scalar_from_u64(std::uint64_t v) noexcept {
  Scalar out{};
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out;
}

}  // namespace dauth::crypto::curve25519
