#include "crypto/ec25519.h"

#include <cassert>
#include <cstring>
#include <vector>

namespace ccf::crypto::ec {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

uint64_t Load64(const uint8_t* b) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
  return v;
}

void Store64(uint8_t* b, uint64_t v) {
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
}

// Keeps the compiler from turning mask arithmetic back into a branch.
uint64_t Opaque(uint64_t x) {
  asm("" : "+r"(x));
  return x;
}

// ---- Field kernels.
//
// Limb bounds: "carried" means every limb is below 2^51 + 2^15; Mul, Sq,
// Sub and FeFromBytes return carried elements. Mul and Sq accept limbs up
// to 2^54, so sums of a few carried elements (Sum, no carry) feed them
// directly. Sub accepts a subtrahend with limbs up to 2^53.

inline Fe Sum(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// One carry pass over 64-bit limbs.
inline Fe CarryPass(Fe a) {
  uint64_t c = 0;
  for (int i = 0; i < 5; ++i) {
    a.v[i] += c;
    c = a.v[i] >> 51;
    a.v[i] &= kMask51;
  }
  a.v[0] += 19 * c;
  return a;
}

// a + 4p - b, then one carry pass.
inline Fe Sub(const Fe& a, const Fe& b) {
  Fe r;
  r.v[0] = a.v[0] + ((uint64_t{1} << 53) - 76) - b.v[0];
  for (int i = 1; i < 5; ++i) {
    r.v[i] = a.v[i] + ((uint64_t{1} << 53) - 4) - b.v[i];
  }
  return CarryPass(r);
}

// One carry pass from 128-bit column sums down to a carried element.
inline Fe CarryWide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  r.v[0] = static_cast<uint64_t>(t0) & kMask51;
  t1 += static_cast<uint64_t>(t0 >> 51);
  r.v[1] = static_cast<uint64_t>(t1) & kMask51;
  t2 += static_cast<uint64_t>(t1 >> 51);
  r.v[2] = static_cast<uint64_t>(t2) & kMask51;
  t3 += static_cast<uint64_t>(t2 >> 51);
  r.v[3] = static_cast<uint64_t>(t3) & kMask51;
  t4 += static_cast<uint64_t>(t3 >> 51);
  r.v[4] = static_cast<uint64_t>(t4) & kMask51;
  r.v[0] += 19 * static_cast<uint64_t>(t4 >> 51);
  r.v[1] += r.v[0] >> 51;
  r.v[0] &= kMask51;
  return r;
}

inline Fe Mul(const Fe& a, const Fe& b) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                 a4 = a.v[4];
  const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                 b4 = b.v[4];
  const uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
                 b4_19 = 19 * b4;
  u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
            (u128)a3 * b2_19 + (u128)a4 * b1_19;
  u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
            (u128)a3 * b3_19 + (u128)a4 * b2_19;
  u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
            (u128)a3 * b4_19 + (u128)a4 * b3_19;
  u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
            (u128)a3 * b0 + (u128)a4 * b4_19;
  u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
            (u128)a3 * b1 + (u128)a4 * b0;
  return CarryWide(t0, t1, t2, t3, t4);
}

// Dedicated squaring: 15 products instead of 25.
inline Fe Sq(const Fe& a) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                 a4 = a.v[4];
  const uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  const uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  u128 t0 = (u128)a0 * a0 + (u128)d1 * a4_19 + (u128)d2 * a3_19;
  u128 t1 = (u128)d0 * a1 + (u128)d2 * a4_19 + (u128)a3 * a3_19;
  u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)d3 * a4_19;
  u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
  u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
  return CarryWide(t0, t1, t2, t3, t4);
}

inline Fe SqN(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = Sq(a);
  return a;
}

// Constant-time conditional move: f = mask ? g : f, mask all-ones or zero.
inline void CMov(Fe* f, const Fe& g, uint64_t mask) {
  for (int i = 0; i < 5; ++i) f->v[i] ^= mask & (f->v[i] ^ g.v[i]);
}

// z^(2^250 - 1) by the standard addition chain; also returns z^11, which
// the inversion's tail needs.
Fe Pow2250(const Fe& z, Fe* z11) {
  Fe z2 = Sq(z);
  Fe z9 = Mul(SqN(z2, 2), z);
  *z11 = Mul(z9, z2);
  Fe z_5_0 = Mul(Sq(*z11), z9);
  Fe z_10_0 = Mul(SqN(z_5_0, 5), z_5_0);
  Fe z_20_0 = Mul(SqN(z_10_0, 10), z_10_0);
  Fe z_40_0 = Mul(SqN(z_20_0, 20), z_20_0);
  Fe z_50_0 = Mul(SqN(z_40_0, 10), z_10_0);
  Fe z_100_0 = Mul(SqN(z_50_0, 50), z_50_0);
  Fe z_200_0 = Mul(SqN(z_100_0, 100), z_100_0);
  return Mul(SqN(z_200_0, 50), z_50_0);
}

// z^((p-5)/8) = z^(2^252 - 3).
Fe Pow22523(const Fe& z) {
  Fe z11;
  return Mul(SqN(Pow2250(z, &z11), 2), z);
}

}  // namespace

Fe FeZero() { return Fe{}; }
Fe FeOne() { return FeFromU64(1); }

Fe FeFromU64(uint64_t x) {
  Fe r;
  r.v[0] = x & kMask51;
  r.v[1] = x >> 51;
  return r;
}

Fe FeAdd(const Fe& a, const Fe& b) { return CarryPass(Sum(a, b)); }
Fe FeSub(const Fe& a, const Fe& b) { return Sub(a, b); }
Fe FeNeg(const Fe& a) { return Sub(FeZero(), a); }
Fe FeMul(const Fe& a, const Fe& b) { return Mul(a, b); }
Fe FeSquare(const Fe& a) { return Sq(a); }

std::array<uint8_t, 32> FeToBytes(const Fe& in) {
  Fe a = CarryPass(CarryPass(in));
  // Canonicalize: subtract p iff a >= p, i.e. iff a + 19 carries out of
  // bit 255.
  uint64_t q = (a.v[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (a.v[i] + q) >> 51;
  a.v[0] += 19 * q;
  uint64_t c = 0;
  for (int i = 0; i < 5; ++i) {
    a.v[i] += c;
    c = a.v[i] >> 51;
    a.v[i] &= kMask51;
  }
  // The final carry out of limb 4 (bit 255) is dropped: it is exactly the
  // subtraction of p when a >= p.
  std::array<uint8_t, 32> out{};
  Store64(out.data(), a.v[0] | (a.v[1] << 51));
  Store64(out.data() + 8, (a.v[1] >> 13) | (a.v[2] << 38));
  Store64(out.data() + 16, (a.v[2] >> 26) | (a.v[3] << 25));
  Store64(out.data() + 24, (a.v[3] >> 39) | (a.v[4] << 12));
  return out;
}

Fe FeFromBytes(const uint8_t bytes[32]) {
  // Limb l holds bits [51*l, 51*(l+1)); bit 255 is ignored.
  Fe r;
  r.v[0] = Load64(bytes) & kMask51;
  r.v[1] = (Load64(bytes + 6) >> 3) & kMask51;
  r.v[2] = (Load64(bytes + 12) >> 6) & kMask51;
  r.v[3] = (Load64(bytes + 19) >> 1) & kMask51;
  r.v[4] = (Load64(bytes + 24) >> 12) & kMask51;
  return r;
}

bool FeIsZero(const Fe& a) {
  auto b = FeToBytes(a);
  uint8_t acc = 0;
  for (uint8_t x : b) acc |= x;
  return acc == 0;
}

bool FeEqual(const Fe& a, const Fe& b) { return FeIsZero(Sub(a, b)); }

bool FeIsNegative(const Fe& a) { return (FeToBytes(a)[0] & 1) != 0; }

Fe FeInvert(const Fe& a) {
  // a^(p-2) = a^(2^255 - 21) = (a^(2^250 - 1))^(2^5) * a^11.
  Fe a11;
  Fe t = Pow2250(a, &a11);
  return Mul(SqN(t, 5), a11);
}

namespace {

// sqrt(-1) = 2^((p-1)/4) = 2^(2 * (2^252 - 3) + 1).
const Fe& SqrtM1() {
  static const Fe s = [] {
    Fe two = FeFromU64(2);
    return Mul(Sq(Pow22523(two)), two);
  }();
  return s;
}

}  // namespace

bool FeSqrt(const Fe& a, Fe* out) {
  // r = a^((p+3)/8); r^2 is a or -a when a is a square.
  Fe r = Mul(Pow22523(a), a);
  Fe r2 = Sq(r);
  if (FeEqual(r2, a)) {
    *out = r;
    return true;
  }
  if (FeEqual(r2, FeNeg(a))) {
    *out = Mul(r, SqrtM1());
    return true;
  }
  return false;
}

// --------------------------------------------------------------- Scalars

namespace {

// Scalars as four little-endian 64-bit words.
using Words4 = std::array<uint64_t, 4>;

// Group order l = 2^252 + 27742317777372353535851937790883648493.
constexpr Words4 kOrderL = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                            0x1000000000000000ULL};

// Barrett constant mu = floor(2^512 / l), five words, by binary long
// division at compile time.
constexpr std::array<uint64_t, 5> ComputeBarrettMu() {
  std::array<uint64_t, 5> rem{};  // < 2l, fits in five words
  std::array<uint64_t, 5> quo{};
  for (int bit = 512; bit >= 0; --bit) {
    // rem = 2 * rem + (bit of 2^512).
    for (int i = 4; i > 0; --i) rem[i] = (rem[i] << 1) | (rem[i - 1] >> 63);
    rem[0] = (rem[0] << 1) | (bit == 512 ? 1 : 0);
    for (int i = 4; i > 0; --i) quo[i] = (quo[i] << 1) | (quo[i - 1] >> 63);
    quo[0] <<= 1;
    // if rem >= l: rem -= l, set the quotient bit.
    bool ge = rem[4] != 0;
    if (!ge) {
      ge = true;
      for (int i = 3; i >= 0; --i) {
        if (rem[i] != kOrderL[i]) {
          ge = rem[i] > kOrderL[i];
          break;
        }
      }
    }
    if (ge) {
      uint64_t borrow = 0;
      for (int i = 0; i < 5; ++i) {
        uint64_t li = i < 4 ? kOrderL[i] : 0;
        uint64_t d = rem[i] - li - borrow;
        borrow = (rem[i] < li || (rem[i] == li && borrow != 0)) ? 1 : 0;
        rem[i] = d;
      }
      quo[0] |= 1;
    }
  }
  return quo;
}
constexpr std::array<uint64_t, 5> kBarrettMu = ComputeBarrettMu();

// r - l, returning the borrow out (1 iff r < l).
inline uint64_t SubL(const Words4& r, Words4* out) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 d = (u128)r[i] - kOrderL[i] - borrow;
    (*out)[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
  return borrow;
}

// Constant-time r = r >= l ? r - l : r.
inline void CondSubL(Words4* r) {
  Words4 t;
  uint64_t keep = Opaque(0 - SubL(*r, &t));  // all-ones iff r < l
  for (int i = 0; i < 4; ++i) (*r)[i] = (keep & (*r)[i]) | (~keep & t[i]);
}

// x mod l for x < 2^512 (eight little-endian words), constant-time
// (Handbook of Applied Cryptography 14.42 with b = 2^64, k = 4).
Words4 BarrettReduce(const uint64_t x[8]) {
  // q3 = floor(floor(x / 2^192) * mu / 2^320).
  uint64_t prod[10] = {0};
  for (int i = 0; i < 5; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 5; ++j) {
      u128 t = (u128)x[3 + i] * kBarrettMu[j] + prod[i + j] + carry;
      prod[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    prod[i + 5] = carry;
  }
  const uint64_t* q3 = prod + 5;
  // r = x - q3 * l mod 2^256; 0 <= r < 3l < 2^256, so that is exact.
  uint64_t ql[4] = {0};
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; i + j < 4; ++j) {
      u128 t = (u128)q3[i] * kOrderL[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
  }
  Words4 r;
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 d = (u128)x[i] - ql[i] - borrow;
    r[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
  CondSubL(&r);
  CondSubL(&r);
  return r;
}

// Little-endian bytes (at most 64) into eight words, zero-padded.
void LoadWords(const uint8_t* bytes, size_t n, uint64_t out[8]) {
  uint8_t buf[64] = {0};
  if (n > 0) std::memcpy(buf, bytes, n);
  for (int i = 0; i < 8; ++i) out[i] = Load64(buf + 8 * i);
}

Words4 ScalarWords(const Scalar& s) {
  Words4 w;
  for (int i = 0; i < 4; ++i) w[i] = Load64(s.data() + 8 * i);
  return w;
}

Scalar WordsToScalar(const Words4& w) {
  Scalar s;
  for (int i = 0; i < 4; ++i) Store64(s.data() + 8 * i, w[i]);
  return s;
}

}  // namespace

Scalar ScalarReduce(ByteSpan bytes_le) {
  // Horner over 32-byte chunks from the top: r = (r * 2^256 + chunk) mod l
  // stays below 2^512 at every step. Up to 64 bytes take a single step.
  const size_t n = bytes_le.size();
  const size_t rest = n > 64 ? ((n - 64 + 31) / 32) * 32 : 0;
  uint64_t x[8];
  LoadWords(bytes_le.data() + rest, n - rest, x);
  Words4 r = BarrettReduce(x);
  for (size_t off = rest; off > 0; off -= 32) {
    LoadWords(bytes_le.data() + off - 32, 32, x);
    for (int i = 0; i < 4; ++i) x[4 + i] = r[i];
    r = BarrettReduce(x);
  }
  return WordsToScalar(r);
}

Scalar ScalarMulAdd(const Scalar& a, const Scalar& b, const Scalar& c) {
  const Words4 aw = ScalarWords(a), bw = ScalarWords(b), cw = ScalarWords(c);
  uint64_t x[8] = {0};
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 t = (u128)aw[i] * bw[j] + x[i + j] + carry;
      x[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    x[i + 4] = carry;
  }
  // a * b + c <= (2^256 - 1)^2 + 2^256 - 1 < 2^512.
  uint64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    u128 t = (u128)x[i] + (i < 4 ? cw[i] : 0) + carry;
    x[i] = static_cast<uint64_t>(t);
    carry = static_cast<uint64_t>(t >> 64);
  }
  return WordsToScalar(BarrettReduce(x));
}

bool ScalarIsCanonical(const Scalar& s) {
  Words4 t;
  return SubL(ScalarWords(s), &t) != 0;
}

bool ScalarIsZero(const Scalar& s) {
  uint8_t acc = 0;
  for (uint8_t b : s) acc |= b;
  return acc == 0;
}

// --------------------------------------------------------------- Points

namespace {

// Point forms of Bernstein et al. / ref10 (a = -1, k = 2d):
//   Point  extended (X:Y:Z:T), the public form;
//   P2     projective (X:Y:Z), enough for a doubling;
//   P1P1   completed ((X:Z), (Y:T)), the output of every add and double;
//   Cached (Y+X, Y-X, Z, 2dT), the addend form of a general point;
//   Niels  (y+x, y-x, 2dxy) with Z = 1, the addend form of a table entry
//          (mixed addition saves one multiply).
struct P2 {
  Fe x, y, z;
};
struct P1P1 {
  Fe x, y, z, t;
};
struct Cached {
  Fe ypx, ymx, z, t2d;
};
struct Niels {
  Fe ypx, ymx, xy2d;
};

// One table row of the fixed-base comb: (1..8) * 256^i * B.
using CombRow = std::array<Niels, 8>;
constexpr int kCombRows = 32;
// Odd multiples 1, 3, ..., 127 of B for the width-8 wNAF of verify.
constexpr int kBaseOdd = 64;
constexpr int kBaseWindow = 8;
// Odd multiples 1, 3, ..., 15 of each variable point (width-5 wNAF).
constexpr int kPointOdd = 8;
constexpr int kPointWindow = 5;

struct CurveConstants {
  Fe d;
  Fe d2;
  Point base;
};

Point MakeBasePoint(const Fe& d) {
  // y = 4/5; x is the even root of (y^2 - 1) / (d*y^2 + 1).
  Fe y = Mul(FeFromU64(4), FeInvert(FeFromU64(5)));
  Fe y2 = Sq(y);
  Fe u = Sub(y2, FeOne());
  Fe v = FeAdd(Mul(d, y2), FeOne());
  Fe x2 = Mul(u, FeInvert(v));
  Fe x;
  bool ok = FeSqrt(x2, &x);
  assert(ok);
  (void)ok;
  if (FeIsNegative(x)) x = FeNeg(x);
  Point p;
  p.x = x;
  p.y = y;
  p.z = FeOne();
  p.t = Mul(x, y);
  return p;
}

const CurveConstants& GetCurve() {
  static const CurveConstants c = [] {
    CurveConstants cc;
    // d = -121665 / 121666.
    cc.d = Mul(FeNeg(FeFromU64(121665)), FeInvert(FeFromU64(121666)));
    cc.d2 = FeAdd(cc.d, cc.d);
    cc.base = MakeBasePoint(cc.d);
    return cc;
  }();
  return c;
}

P2 ToP2(const P1P1& p) {
  return {Mul(p.x, p.t), Mul(p.y, p.z), Mul(p.z, p.t)};
}

Point ToPoint(const P1P1& p) {
  Point r;
  r.x = Mul(p.x, p.t);
  r.y = Mul(p.y, p.z);
  r.z = Mul(p.z, p.t);
  r.t = Mul(p.x, p.y);
  return r;
}

Cached ToCached(const Point& p) {
  return {Sum(p.y, p.x), Sub(p.y, p.x), p.z, Mul(p.t, GetCurve().d2)};
}

// dbl-2008-hwcd for a = -1; needs no T, so doubling chains stay in P2.
P1P1 Dbl(const P2& p) {
  Fe xx = Sq(p.x);
  Fe yy = Sq(p.y);
  Fe zz = Sq(p.z);
  Fe xy2 = Sq(Sum(p.x, p.y));
  P1P1 r;
  r.y = Sum(yy, xx);
  r.z = Sub(yy, xx);
  r.x = Sub(xy2, r.y);
  r.t = Sub(Sum(zz, zz), r.z);
  return r;
}

P1P1 DblPoint(const Point& p) { return Dbl({p.x, p.y, p.z}); }

// add-2008-hwcd-3 (strongly unified, complete on this curve): p + q, or
// p - q when `sub`; the subtraction swaps the roles of Y+X and Y-X and
// negates 2dT.
P1P1 AddCached(const Point& p, const Cached& q, bool sub = false) {
  Fe a = Mul(Sum(p.y, p.x), sub ? q.ymx : q.ypx);
  Fe b = Mul(Sub(p.y, p.x), sub ? q.ypx : q.ymx);
  Fe c = Mul(q.t2d, p.t);
  Fe zz = Mul(p.z, q.z);
  Fe dd = Sum(zz, zz);
  P1P1 r;
  r.x = Sub(a, b);
  r.y = Sum(a, b);
  r.z = sub ? Sub(dd, c) : Sum(dd, c);
  r.t = sub ? Sum(dd, c) : Sub(dd, c);
  return r;
}

// Mixed addition with an affine table entry (Z2 = 1).
P1P1 AddNiels(const Point& p, const Niels& q, bool sub = false) {
  Fe a = Mul(Sum(p.y, p.x), sub ? q.ymx : q.ypx);
  Fe b = Mul(Sub(p.y, p.x), sub ? q.ypx : q.ymx);
  Fe c = Mul(q.xy2d, p.t);
  Fe dd = Sum(p.z, p.z);
  P1P1 r;
  r.x = Sub(a, b);
  r.y = Sum(a, b);
  r.z = sub ? Sub(dd, c) : Sum(dd, c);
  r.t = sub ? Sum(dd, c) : Sub(dd, c);
  return r;
}

// 2^n * p.
Point DoubleN(const Point& p, int n) {
  P1P1 r = DblPoint(p);
  for (int i = 1; i < n; ++i) r = Dbl(ToP2(r));
  return ToPoint(r);
}

// The fixed tables for B: the comb rows for ScalarMultBase and the odd
// multiples for MultiScalarMultWithBase, all normalised to Z = 1 with one
// shared inversion (Montgomery's trick). 256 + 64 entries of 120 bytes.
struct BaseTables {
  std::array<CombRow, kCombRows> comb;
  std::array<Niels, kBaseOdd> odd;
};

const BaseTables& GetBaseTables() {
  static const BaseTables tables = [] {
    const Point& b = GetCurve().base;
    std::vector<Point> pts;
    pts.reserve(kCombRows * 8 + kBaseOdd);
    Point row_base = b;
    for (int i = 0; i < kCombRows; ++i) {
      Cached step = ToCached(row_base);
      Point acc = row_base;
      pts.push_back(acc);
      for (int j = 1; j < 8; ++j) {
        acc = ToPoint(AddCached(acc, step));
        pts.push_back(acc);
      }
      row_base = DoubleN(acc, 5);  // 8 * 2^5 = 256
    }
    Cached two_b = ToCached(DoubleN(b, 1));
    Point odd = b;
    pts.push_back(odd);
    for (int j = 1; j < kBaseOdd; ++j) {
      odd = ToPoint(AddCached(odd, two_b));
      pts.push_back(odd);
    }

    // Batch inversion of every Z.
    const size_t n = pts.size();
    std::vector<Fe> prefix(n);
    prefix[0] = pts[0].z;
    for (size_t i = 1; i < n; ++i) prefix[i] = Mul(prefix[i - 1], pts[i].z);
    Fe inv = FeInvert(prefix[n - 1]);
    std::vector<Niels> niels(n);
    const Fe& d2 = GetCurve().d2;
    for (size_t i = n; i-- > 0;) {
      Fe zinv = i > 0 ? Mul(inv, prefix[i - 1]) : inv;
      inv = Mul(inv, pts[i].z);
      Fe x = Mul(pts[i].x, zinv);
      Fe y = Mul(pts[i].y, zinv);
      niels[i] = {FeAdd(y, x), Sub(y, x), Mul(Mul(x, y), d2)};
    }

    BaseTables t;
    for (int i = 0; i < kCombRows; ++i) {
      for (int j = 0; j < 8; ++j) t.comb[i][j] = niels[i * 8 + j];
    }
    for (int j = 0; j < kBaseOdd; ++j) t.odd[j] = niels[kCombRows * 8 + j];
    return t;
  }();
  return tables;
}

// All-ones iff a == b (small non-negative values).
inline uint64_t EqMask(uint64_t a, uint64_t b) {
  return Opaque(0 - (((a ^ b) - 1) >> 63));
}

// |digit| without a branch; *neg_mask is all-ones iff digit < 0.
inline uint64_t DigitAbs(int8_t digit, uint64_t* neg_mask) {
  const int64_t d = digit;
  const int64_t sign = d >> 63;  // 0 or -1
  *neg_mask = static_cast<uint64_t>(sign);
  return static_cast<uint64_t>((d ^ sign) - sign);
}

// Table entry |digit| (identity for 0), negated when digit < 0, chosen by
// scanning every entry with masks: the memory access pattern and the
// instruction stream do not depend on the digit. |digit| <= 8.
Niels SelectNiels(const CombRow& row, int8_t digit) {
  uint64_t neg;
  const uint64_t abs = DigitAbs(digit, &neg);
  Niels t = {FeOne(), FeOne(), FeZero()};
  for (int j = 0; j < 8; ++j) {
    uint64_t m = EqMask(abs, static_cast<uint64_t>(j + 1));
    CMov(&t.ypx, row[j].ypx, m);
    CMov(&t.ymx, row[j].ymx, m);
    CMov(&t.xy2d, row[j].xy2d, m);
  }
  const uint64_t nm = Opaque(neg);
  Niels minus = {t.ymx, t.ypx, FeNeg(t.xy2d)};
  CMov(&t.ypx, minus.ypx, nm);
  CMov(&t.ymx, minus.ymx, nm);
  CMov(&t.xy2d, minus.xy2d, nm);
  return t;
}

Cached SelectCached(const std::array<Cached, 8>& table, int8_t digit) {
  uint64_t neg;
  const uint64_t abs = DigitAbs(digit, &neg);
  Cached t = {FeOne(), FeOne(), FeOne(), FeZero()};
  for (int j = 0; j < 8; ++j) {
    uint64_t m = EqMask(abs, static_cast<uint64_t>(j + 1));
    CMov(&t.ypx, table[j].ypx, m);
    CMov(&t.ymx, table[j].ymx, m);
    CMov(&t.z, table[j].z, m);
    CMov(&t.t2d, table[j].t2d, m);
  }
  const uint64_t nm = Opaque(neg);
  Cached minus = {t.ymx, t.ypx, t.z, FeNeg(t.t2d)};
  CMov(&t.ypx, minus.ypx, nm);
  CMov(&t.ymx, minus.ymx, nm);
  CMov(&t.t2d, minus.t2d, nm);
  return t;
}

// Signed radix-16 digits e[0..63] in [-8, 7] of a 256-bit scalar, plus
// the carry out of the top digit (0 or 1) in e[64]:
// s = sum e[i] * 16^i. Branch-free.
void SignedRadix16(const Scalar& s, int8_t e[65]) {
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<int8_t>(s[i] & 15);
    e[2 * i + 1] = static_cast<int8_t>(s[i] >> 4);
  }
  int8_t carry = 0;
  for (int i = 0; i < 64; ++i) {
    e[i] = static_cast<int8_t>(e[i] + carry);
    carry = static_cast<int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<int8_t>(e[i] - (carry << 4));
  }
  e[64] = carry;
}

// Width-w non-adjacent form of a 256-bit scalar: odd digits with
// |digit| < 2^(w-1), at least w-1 zeros between nonzero digits,
// s = sum naf[i] * 2^i, 257 positions. Variable-time.
void Wnaf(const Scalar& s, int w, int8_t naf[257]) {
  uint64_t x[6] = {0};
  for (int i = 0; i < 4; ++i) x[i] = Load64(s.data() + 8 * i);
  std::memset(naf, 0, 257);
  const uint64_t width = uint64_t{1} << w;
  const uint64_t window_mask = width - 1;
  uint64_t carry = 0;
  int pos = 0;
  while (pos < 257) {
    const int idx = pos / 64;
    const int bit = pos % 64;
    uint64_t buf = x[idx] >> bit;
    if (bit + w > 64) buf |= x[idx + 1] << (64 - bit);
    const uint64_t window = carry + (buf & window_mask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<int8_t>(static_cast<int64_t>(window) -
                                     static_cast<int64_t>(width));
    }
    pos += w;
  }
}

}  // namespace

const Fe& ConstD() { return GetCurve().d; }

Point Identity() {
  Point p;
  p.x = FeZero();
  p.y = FeOne();
  p.z = FeOne();
  p.t = FeZero();
  return p;
}

const Point& BasePoint() { return GetCurve().base; }

Point Add(const Point& p, const Point& q) {
  return ToPoint(AddCached(p, ToCached(q)));
}

Point Double(const Point& p) { return ToPoint(DblPoint(p)); }

Point Negate(const Point& p) {
  Point r = p;
  r.x = FeNeg(p.x);
  r.t = FeNeg(p.t);
  return r;
}

Point ScalarMult(const Scalar& s, const Point& p) {
  // table[j] = (j+1) * P.
  std::array<Cached, 8> table;
  table[0] = ToCached(p);
  Point multiple = p;
  for (int j = 1; j < 8; ++j) {
    multiple = ToPoint(AddCached(multiple, table[0]));
    table[j] = ToCached(multiple);
  }
  int8_t e[65];
  SignedRadix16(s, e);

  P1P1 r = AddCached(Identity(), SelectCached(table, e[64]));
  for (int i = 63; i >= 0; --i) {
    r = Dbl(ToP2(r));
    r = Dbl(ToP2(r));
    r = Dbl(ToP2(r));
    r = Dbl(ToP2(r));
    r = AddCached(ToPoint(r), SelectCached(table, e[i]));
  }
  return ToPoint(r);
}

Point ScalarMultBase(const Scalar& s) {
  // B has order l, so s*B = (s mod l)*B; after the reduction the top digit
  // absorbs the recoding carry (e[63] <= 2, e[64] == 0).
  const BaseTables& tables = GetBaseTables();
  int8_t e[65];
  SignedRadix16(ScalarReduce(s), e);

  // Odd digits first (row i/2 holds multiples of 16^(i-1) * B), times 16,
  // then the even digits.
  Point h = Identity();
  for (int i = 1; i < 64; i += 2) {
    h = ToPoint(AddNiels(h, SelectNiels(tables.comb[i / 2], e[i])));
  }
  h = DoubleN(h, 4);
  for (int i = 0; i < 64; i += 2) {
    h = ToPoint(AddNiels(h, SelectNiels(tables.comb[i / 2], e[i])));
  }
  return h;
}

Point MultiScalarMultWithBase(const Scalar& base_scalar,
                              std::span<const Scalar> scalars,
                              std::span<const Point> points) {
  assert(scalars.size() == points.size());
  const size_t n = points.size();
  const BaseTables& tables = GetBaseTables();

  // Odd multiples P, 3P, ..., 15P of every point.
  std::vector<std::array<Cached, kPointOdd>> odd(n);
  for (size_t i = 0; i < n; ++i) {
    Cached two_p = ToCached(Double(points[i]));
    Point m = points[i];
    odd[i][0] = ToCached(m);
    for (int j = 1; j < kPointOdd; ++j) {
      m = ToPoint(AddCached(m, two_p));
      odd[i][j] = ToCached(m);
    }
  }
  int8_t base_naf[257];
  Wnaf(base_scalar, kBaseWindow, base_naf);
  std::vector<std::array<int8_t, 257>> nafs(n);
  for (size_t i = 0; i < n; ++i) {
    Wnaf(scalars[i], kPointWindow, nafs[i].data());
  }

  int top = 256;
  auto any_digit = [&](int pos) {
    if (base_naf[pos] != 0) return true;
    for (size_t i = 0; i < n; ++i) {
      if (nafs[i][pos] != 0) return true;
    }
    return false;
  };
  while (top >= 0 && !any_digit(top)) --top;
  if (top < 0) return Identity();

  // One shared doubling chain; each nonzero digit adds its table entry.
  P1P1 r = {FeZero(), FeOne(), FeOne(), FeOne()};  // the identity
  for (int pos = top; pos >= 0; --pos) {
    r = Dbl(ToP2(r));
    for (size_t i = 0; i < n; ++i) {
      const int8_t d = nafs[i][pos];
      if (d != 0) {
        r = AddCached(ToPoint(r), odd[i][(d < 0 ? -d : d) / 2], d < 0);
      }
    }
    const int8_t d = base_naf[pos];
    if (d != 0) {
      r = AddNiels(ToPoint(r), tables.odd[(d < 0 ? -d : d) / 2], d < 0);
    }
  }
  return ToPoint(r);
}

Point MultiScalarMult(std::span<const Scalar> scalars,
                      std::span<const Point> points) {
  return MultiScalarMultWithBase(Scalar{}, scalars, points);
}

bool PointEqual(const Point& p, const Point& q) {
  // x1/z1 == x2/z2 <=> x1*z2 == x2*z1, same for y.
  return FeEqual(Mul(p.x, q.z), Mul(q.x, p.z)) &&
         FeEqual(Mul(p.y, q.z), Mul(q.y, p.z));
}

bool IsIdentity(const Point& p) {
  // x == 0 and y == z.
  return FeIsZero(p.x) && FeEqual(p.y, p.z);
}

bool IsOnCurve(const Point& p) {
  if (FeIsZero(p.z)) return false;
  // Affine check via projective algebra:
  //   (-x^2 + y^2) = 1 + d x^2 y^2
  //   (-X^2 + Y^2) Z^2 = Z^4 + d X^2 Y^2, and T Z = X Y.
  Fe x2 = Sq(p.x);
  Fe y2 = Sq(p.y);
  Fe z2 = Sq(p.z);
  Fe lhs = Mul(Sub(y2, x2), z2);
  Fe rhs = FeAdd(Sq(z2), Mul(ConstD(), Mul(x2, y2)));
  if (!FeEqual(lhs, rhs)) return false;
  return FeEqual(Mul(p.t, p.z), Mul(p.x, p.y));
}

std::array<uint8_t, kPointSize> Encode(const Point& p) {
  Fe zinv = FeInvert(p.z);
  Fe x = Mul(p.x, zinv);
  Fe y = Mul(p.y, zinv);
  auto out = FeToBytes(y);
  out[31] |= static_cast<uint8_t>((FeToBytes(x)[0] & 1) << 7);
  return out;
}

Result<Point> Decode(ByteSpan encoded) {
  if (encoded.size() != kPointSize) {
    return Status::InvalidArgument("point: bad encoding length");
  }
  uint8_t ybytes[32];
  std::memcpy(ybytes, encoded.data(), 32);
  bool sign = (ybytes[31] & 0x80) != 0;
  ybytes[31] &= 0x7f;
  Fe y = FeFromBytes(ybytes);
  // Reject non-canonical y.
  auto canon = FeToBytes(y);
  if (std::memcmp(canon.data(), ybytes, 32) != 0) {
    return Status::InvalidArgument("point: non-canonical y");
  }

  // x^2 = u/v with u = y^2 - 1, v = d*y^2 + 1 (v is never 0: -1/d is not a
  // square). One exponentiation gives the candidate root
  //   x = u * v^3 * (u * v^7)^((p-5)/8),
  // which is right if v*x^2 == u and off by sqrt(-1) if v*x^2 == -u.
  Fe y2 = Sq(y);
  Fe u = Sub(y2, FeOne());
  Fe v = FeAdd(Mul(ConstD(), y2), FeOne());
  Fe v3 = Mul(Sq(v), v);
  Fe v7 = Mul(Sq(v3), v);
  Fe x = Mul(Mul(u, v3), Pow22523(Mul(u, v7)));
  Fe vx2 = Mul(v, Sq(x));
  if (!FeEqual(vx2, u)) {
    if (!FeEqual(vx2, FeNeg(u))) {
      return Status::InvalidArgument("point: not on curve");
    }
    x = Mul(x, SqrtM1());
  }
  if (FeIsZero(x)) {
    if (sign) {
      return Status::InvalidArgument("point: invalid sign for x=0");
    }
  } else if (FeIsNegative(x) != sign) {
    x = FeNeg(x);
  }
  Point p;
  p.x = x;
  p.y = y;
  p.z = FeOne();
  p.t = Mul(x, y);
  return p;
}

}  // namespace ccf::crypto::ec
