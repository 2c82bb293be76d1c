// The edwards25519 code that src/crypto/ec25519.cc replaced, kept as the
// differential oracle for it (tests/crypto_ec_oracle_test.cc): bit-serial
// exponentiation and scalar multiplication, a vector-backed bignum for
// scalars, and 4-bit unsigned Straus windows. Slow and simple on purpose.
// The last section is the matching Schnorr/ECDH layer that sign.cc built
// on top of it.

#include "tests/ec25519_oracle.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha512.h"

namespace ccf::crypto::ec::oracle {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

// One full carry pass; on entry limbs may be up to ~2^63.
Fe Carry(Fe a) {
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t c = 0;
    for (int i = 0; i < 5; ++i) {
      a.v[i] += c;
      c = a.v[i] >> 51;
      a.v[i] &= kMask51;
    }
    a.v[0] += 19 * c;
  }
  return a;
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

Fe FeAdd(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return Carry(r);
}

Fe FeSub(const Fe& a, const Fe& b) {
  // a + 2p - b keeps limbs positive; inputs are carried (< 2^52).
  Fe r;
  r.v[0] = a.v[0] + ((uint64_t{1} << 52) - 38) - b.v[0];
  for (int i = 1; i < 5; ++i) {
    r.v[i] = a.v[i] + ((uint64_t{1} << 52) - 2) - b.v[i];
  }
  return Carry(r);
}

Fe FeNeg(const Fe& a) { return FeSub(FeZero(), a); }

Fe FeMul(const Fe& a, const Fe& b) {
  const uint64_t* x = a.v;
  const uint64_t* y = b.v;
  u128 r[5];
  r[0] = (u128)x[0] * y[0] +
         (u128)19 * ((u128)x[1] * y[4] + (u128)x[2] * y[3] +
                     (u128)x[3] * y[2] + (u128)x[4] * y[1]);
  r[1] = (u128)x[0] * y[1] + (u128)x[1] * y[0] +
         (u128)19 * ((u128)x[2] * y[4] + (u128)x[3] * y[3] +
                     (u128)x[4] * y[2]);
  r[2] = (u128)x[0] * y[2] + (u128)x[1] * y[1] + (u128)x[2] * y[0] +
         (u128)19 * ((u128)x[3] * y[4] + (u128)x[4] * y[3]);
  r[3] = (u128)x[0] * y[3] + (u128)x[1] * y[2] + (u128)x[2] * y[1] +
         (u128)x[3] * y[0] + (u128)19 * ((u128)x[4] * y[4]);
  r[4] = (u128)x[0] * y[4] + (u128)x[1] * y[3] + (u128)x[2] * y[2] +
         (u128)x[3] * y[1] + (u128)x[4] * y[0];

  // Carry the 128-bit accumulators down to 64-bit limbs.
  Fe out;
  u128 c = 0;
  for (int i = 0; i < 5; ++i) {
    r[i] += c;
    out.v[i] = static_cast<uint64_t>(r[i]) & kMask51;
    c = r[i] >> 51;
  }
  out.v[0] += 19 * static_cast<uint64_t>(c);
  return Carry(out);
}

Fe FeSquare(const Fe& a) { return FeMul(a, a); }

std::array<uint8_t, 32> FeToBytes(const Fe& in) {
  Fe a = Carry(in);
  // Canonicalize: subtract p iff a >= p.
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
  uint64_t acc = 0;
  int acc_bits = 0;
  int limb = 0;
  for (int i = 0; i < 32; ++i) {
    if (acc_bits < 8 && limb < 5) {
      acc |= a.v[limb] << acc_bits;
      acc_bits += 51;
      ++limb;
    }
    out[i] = static_cast<uint8_t>(acc);
    acc >>= 8;
    acc_bits -= 8;
  }
  return out;
}

Fe FeFromBytes(const uint8_t bytes[32]) {
  // Limb l holds bits [51*l, 51*(l+1)); bit 255 is ignored.
  Fe r;
  for (int l = 0; l < 5; ++l) {
    uint64_t val = 0;
    int width = (l == 4) ? 51 : 51;
    for (int bit = 0; bit < width; ++bit) {
      int abs_bit = 51 * l + bit;
      if (abs_bit >= 255) break;
      uint64_t b = (bytes[abs_bit / 8] >> (abs_bit % 8)) & 1;
      val |= b << bit;
    }
    r.v[l] = val;
  }
  return Carry(r);
}

bool FeIsZero(const Fe& a) {
  auto b = FeToBytes(a);
  uint8_t acc = 0;
  for (uint8_t x : b) acc |= x;
  return acc == 0;
}

bool FeEqual(const Fe& a, const Fe& b) {
  return FeToBytes(a) == FeToBytes(b);
}

bool FeIsNegative(const Fe& a) { return (FeToBytes(a)[0] & 1) != 0; }

namespace {

// a^e where e is a little-endian byte string.
Fe FePow(const Fe& a, const uint8_t* e, size_t e_len) {
  Fe r = FeOne();
  bool any = false;
  for (size_t i = e_len; i-- > 0;) {
    for (int bit = 7; bit >= 0; --bit) {
      if (any) r = FeSquare(r);
      if ((e[i] >> bit) & 1) {
        r = FeMul(r, a);
        any = true;
      } else if (any) {
        // nothing
      }
    }
  }
  return r;
}

struct FieldExponents {
  uint8_t p_minus_2[32];   // 2^255 - 21
  uint8_t p_plus_3_div_8[32];   // 2^252 - 2
  Fe sqrt_m1;              // 2^((p-1)/4)
};

const FieldExponents& GetFieldExponents() {
  static const FieldExponents fx = [] {
    FieldExponents f{};
    std::memset(f.p_minus_2, 0xff, 32);
    f.p_minus_2[0] = 0xeb;
    f.p_minus_2[31] = 0x7f;
    std::memset(f.p_plus_3_div_8, 0xff, 32);
    f.p_plus_3_div_8[0] = 0xfe;
    f.p_plus_3_div_8[31] = 0x0f;
    uint8_t p_minus_1_div_4[32];
    std::memset(p_minus_1_div_4, 0xff, 32);
    p_minus_1_div_4[0] = 0xfb;
    p_minus_1_div_4[31] = 0x1f;
    f.sqrt_m1 = FePow(FeFromU64(2), p_minus_1_div_4, 32);
    return f;
  }();
  return fx;
}

}  // namespace

Fe FeInvert(const Fe& a) {
  const FieldExponents& fx = GetFieldExponents();
  return FePow(a, fx.p_minus_2, 32);
}

bool FeSqrt(const Fe& a, Fe* out) {
  if (FeIsZero(a)) {
    *out = FeZero();
    return true;
  }
  const FieldExponents& fx = GetFieldExponents();
  Fe r = FePow(a, fx.p_plus_3_div_8, 32);
  Fe r2 = FeSquare(r);
  if (FeEqual(r2, a)) {
    *out = r;
    return true;
  }
  if (FeEqual(r2, FeNeg(a))) {
    *out = FeMul(r, fx.sqrt_m1);
    return true;
  }
  return false;
}

// --------------------------------------------------------------- Scalars

namespace {

// Minimal little-endian uint32-limb bignum, only what scalar arithmetic
// needs: compare, subtract, shift, multiply, and binary modular reduction.
using Big = std::vector<uint32_t>;

void BigTrim(Big* a) {
  while (!a->empty() && a->back() == 0) a->pop_back();
}

int BigCmp(const Big& a, const Big& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void BigSub(Big* a, const Big& b) {  // requires *a >= b
  uint64_t borrow = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    uint64_t sub = (i < b.size() ? b[i] : 0) + borrow;
    uint64_t cur = (*a)[i];
    if (cur >= sub) {
      (*a)[i] = static_cast<uint32_t>(cur - sub);
      borrow = 0;
    } else {
      (*a)[i] = static_cast<uint32_t>(cur + (uint64_t{1} << 32) - sub);
      borrow = 1;
    }
  }
  BigTrim(a);
}

int BigBitLength(const Big& a) {
  if (a.empty()) return 0;
  uint32_t top = a.back();
  int bits = 0;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return static_cast<int>((a.size() - 1) * 32) + bits;
}

Big BigShiftLeft(const Big& a, int bits) {
  if (a.empty()) return a;
  int words = bits / 32;
  int rem = bits % 32;
  Big r(a.size() + words + 1, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a[i]) << rem;
    r[i + words] |= static_cast<uint32_t>(v);
    r[i + words + 1] |= static_cast<uint32_t>(v >> 32);
  }
  BigTrim(&r);
  return r;
}

void BigShiftRight1(Big* a) {
  uint32_t carry = 0;
  for (size_t i = a->size(); i-- > 0;) {
    uint32_t cur = (*a)[i];
    (*a)[i] = (cur >> 1) | (carry << 31);
    carry = cur & 1;
  }
  BigTrim(a);
}

void BigMod(Big* x, const Big& m) {
  assert(!m.empty());
  if (BigCmp(*x, m) < 0) return;
  int shift = BigBitLength(*x) - BigBitLength(m);
  Big d = BigShiftLeft(m, shift);
  for (int i = 0; i <= shift; ++i) {
    if (BigCmp(*x, d) >= 0) BigSub(x, d);
    BigShiftRight1(&d);
  }
}

Big BigMul(const Big& a, const Big& b) {
  if (a.empty() || b.empty()) return {};
  Big r(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t t = static_cast<uint64_t>(a[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<uint32_t>(t);
      carry = t >> 32;
    }
    r[i + b.size()] += static_cast<uint32_t>(carry);
  }
  BigTrim(&r);
  return r;
}

Big BigAdd(const Big& a, const Big& b) {
  Big r(std::max(a.size(), b.size()) + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    uint64_t t = carry;
    if (i < a.size()) t += a[i];
    if (i < b.size()) t += b[i];
    r[i] = static_cast<uint32_t>(t);
    carry = t >> 32;
  }
  BigTrim(&r);
  return r;
}

Big BigFromBytesLe(ByteSpan bytes) {
  Big r((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    r[i / 4] |= static_cast<uint32_t>(bytes[i]) << (8 * (i % 4));
  }
  BigTrim(&r);
  return r;
}

Scalar BigToScalar(const Big& a) {
  Scalar s{};
  for (size_t i = 0; i < a.size() && i < 8; ++i) {
    s[4 * i] = static_cast<uint8_t>(a[i]);
    s[4 * i + 1] = static_cast<uint8_t>(a[i] >> 8);
    s[4 * i + 2] = static_cast<uint8_t>(a[i] >> 16);
    s[4 * i + 3] = static_cast<uint8_t>(a[i] >> 24);
  }
  return s;
}

// Group order l = 2^252 + 27742317777372353535851937790883648493.
const Big& OrderL() {
  static const Big l = [] {
    uint8_t bytes[32] = {
        0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
        0xa2, 0xde, 0xf9, 0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};
    return BigFromBytesLe(ByteSpan(bytes, 32));
  }();
  return l;
}

}  // namespace

Scalar ScalarReduce(ByteSpan bytes_le) {
  Big x = BigFromBytesLe(bytes_le);
  BigMod(&x, OrderL());
  return BigToScalar(x);
}

Scalar ScalarMulAdd(const Scalar& a, const Scalar& b, const Scalar& c) {
  Big x = BigMul(BigFromBytesLe(a), BigFromBytesLe(b));
  x = BigAdd(x, BigFromBytesLe(c));
  BigMod(&x, OrderL());
  return BigToScalar(x);
}

bool ScalarIsCanonical(const Scalar& s) {
  Big x = BigFromBytesLe(s);
  return BigCmp(x, OrderL()) < 0;
}

bool ScalarIsZero(const Scalar& s) {
  for (uint8_t b : s) {
    if (b != 0) return false;
  }
  return true;
}

// --------------------------------------------------------------- Points

namespace {

struct CurveConstants {
  Fe d;
  Fe d2;
  Point base;
};

Point MakeBasePoint(const Fe& d) {
  // y = 4/5; x is the even root of (y^2 - 1) / (d*y^2 + 1).
  Fe y = FeMul(FeFromU64(4), FeInvert(FeFromU64(5)));
  Fe y2 = FeSquare(y);
  Fe u = FeSub(y2, FeOne());
  Fe v = FeAdd(FeMul(d, y2), FeOne());
  Fe x2 = FeMul(u, FeInvert(v));
  Fe x;
  bool ok = FeSqrt(x2, &x);
  assert(ok);
  (void)ok;
  if (FeIsNegative(x)) x = FeNeg(x);
  Point p;
  p.x = x;
  p.y = y;
  p.z = FeOne();
  p.t = FeMul(x, y);
  return p;
}

const CurveConstants& GetCurve() {
  static const CurveConstants c = [] {
    CurveConstants cc;
    // d = -121665 / 121666.
    cc.d = FeMul(FeNeg(FeFromU64(121665)), FeInvert(FeFromU64(121666)));
    cc.d2 = FeAdd(cc.d, cc.d);
    cc.base = MakeBasePoint(cc.d);
    return cc;
  }();
  return c;
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

// add-2008-hwcd-3: strongly unified addition for a = -1 twisted Edwards.
Point Add(const Point& p, const Point& q) {
  const Fe& d2 = GetCurve().d2;
  Fe a = FeMul(FeSub(p.y, p.x), FeSub(q.y, q.x));
  Fe b = FeMul(FeAdd(p.y, p.x), FeAdd(q.y, q.x));
  Fe c = FeMul(FeMul(p.t, d2), q.t);
  Fe dd = FeMul(FeAdd(p.z, p.z), q.z);
  Fe e = FeSub(b, a);
  Fe f = FeSub(dd, c);
  Fe g = FeAdd(dd, c);
  Fe h = FeAdd(b, a);
  Point r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

// dbl-2008-hwcd for a = -1.
Point Double(const Point& p) {
  Fe a = FeSquare(p.x);
  Fe b = FeSquare(p.y);
  Fe c = FeAdd(FeSquare(p.z), FeSquare(p.z));
  Fe e = FeSub(FeSub(FeSquare(FeAdd(p.x, p.y)), a), b);
  Fe g = FeSub(b, a);          // D + B with D = -A
  Fe f = FeSub(g, c);
  Fe h = FeNeg(FeAdd(a, b));   // D - B
  Point r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

Point Negate(const Point& p) {
  Point r = p;
  r.x = FeNeg(p.x);
  r.t = FeNeg(p.t);
  return r;
}

Point ScalarMult(const Scalar& s, const Point& p) {
  Point r = Identity();
  for (int i = 255; i >= 0; --i) {
    r = Double(r);
    if ((s[i / 8] >> (i % 8)) & 1) {
      r = Add(r, p);
    }
  }
  return r;
}

Point ScalarMultBase(const Scalar& s) { return ScalarMult(s, BasePoint()); }

Point MultiScalarMult(std::span<const Scalar> scalars,
                      std::span<const Point> points) {
  assert(scalars.size() == points.size());
  const size_t n = points.size();
  if (n == 0) return Identity();

  // Per-point table of odd-free small multiples: table[i][j] = (j+1)*P_i
  // for j in [0, 15). 14 additions per point, amortized over the 64 window
  // lookups below.
  std::vector<std::array<Point, 15>> table(n);
  for (size_t i = 0; i < n; ++i) {
    table[i][0] = points[i];
    for (int j = 1; j < 15; ++j) {
      table[i][j] = Add(table[i][j - 1], points[i]);
    }
  }

  // Straus: walk the 64 scalar nibbles from most to least significant with
  // a single shared chain of 4 doublings per window.
  Point r = Identity();
  for (int w = 63; w >= 0; --w) {
    if (w != 63) {
      r = Double(Double(Double(Double(r))));
    }
    for (size_t i = 0; i < n; ++i) {
      uint8_t byte = scalars[i][w / 2];
      uint8_t nib = (w % 2 != 0) ? (byte >> 4) : (byte & 0x0f);
      if (nib != 0) {
        r = Add(r, table[i][nib - 1]);
      }
    }
  }
  return r;
}

bool PointEqual(const Point& p, const Point& q) {
  // x1/z1 == x2/z2 <=> x1*z2 == x2*z1, same for y.
  return FeEqual(FeMul(p.x, q.z), FeMul(q.x, p.z)) &&
         FeEqual(FeMul(p.y, q.z), FeMul(q.y, p.z));
}

bool IsIdentity(const Point& p) { return PointEqual(p, Identity()); }

bool IsOnCurve(const Point& p) {
  if (FeIsZero(p.z)) return false;
  // Affine check via projective algebra:
  //   (-x^2 + y^2) = 1 + d x^2 y^2
  //   (-X^2 + Y^2) Z^2 = Z^4 + d X^2 Y^2, and T Z = X Y.
  Fe x2 = FeSquare(p.x);
  Fe y2 = FeSquare(p.y);
  Fe z2 = FeSquare(p.z);
  Fe lhs = FeMul(FeSub(y2, x2), z2);
  Fe rhs = FeAdd(FeSquare(z2), FeMul(ConstD(), FeMul(x2, y2)));
  if (!FeEqual(lhs, rhs)) return false;
  return FeEqual(FeMul(p.t, p.z), FeMul(p.x, p.y));
}

std::array<uint8_t, kPointSize> Encode(const Point& p) {
  Fe zinv = FeInvert(p.z);
  Fe x = FeMul(p.x, zinv);
  Fe y = FeMul(p.y, zinv);
  auto out = FeToBytes(y);
  if (FeIsNegative(x)) out[31] |= 0x80;
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

  Fe y2 = FeSquare(y);
  Fe u = FeSub(y2, FeOne());
  Fe v = FeAdd(FeMul(ConstD(), y2), FeOne());
  Fe x2 = FeMul(u, FeInvert(v));
  Fe x;
  if (!FeSqrt(x2, &x)) {
    return Status::InvalidArgument("point: not on curve");
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
  p.t = FeMul(x, y);
  return p;
}

// ------------------------------------------------------------- Signatures

namespace {

Scalar HashToScalar(ByteSpan a, ByteSpan b, ByteSpan c) {
  Sha512 h;
  h.Update(a);
  h.Update(b);
  h.Update(c);
  Sha512Digest d = h.Finish();
  return ScalarReduce(ByteSpan(d.data(), d.size()));
}

struct Expanded {
  Scalar secret;
  std::array<uint8_t, 32> nonce_key;
};

Expanded Expand(ByteSpan seed) {
  Bytes s(seed.begin(), seed.end());
  s.resize(32, 0);
  Sha512Digest expanded = Sha512::Hash(ByteSpan(s.data(), 32));
  Expanded e;
  e.secret = ScalarReduce(ByteSpan(expanded.data(), 32));
  std::memcpy(e.nonce_key.data(), expanded.data() + 32, 32);
  return e;
}

}  // namespace

std::array<uint8_t, 32> PublicKeyFromSeed(ByteSpan seed) {
  return Encode(ScalarMultBase(Expand(seed).secret));
}

std::array<uint8_t, 64> Sign(ByteSpan seed, ByteSpan msg) {
  Expanded e = Expand(seed);
  auto pub = Encode(ScalarMultBase(e.secret));
  Scalar r = HashToScalar(ByteSpan(e.nonce_key.data(), 32), msg, {});
  auto r_enc = Encode(ScalarMultBase(r));
  Scalar k = HashToScalar(ByteSpan(r_enc.data(), 32),
                          ByteSpan(pub.data(), 32), msg);
  Scalar s = ScalarMulAdd(k, e.secret, r);
  std::array<uint8_t, 64> sig{};
  std::memcpy(sig.data(), r_enc.data(), 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

bool Verify(ByteSpan pub, ByteSpan msg, ByteSpan sig) {
  if (pub.size() != kPointSize || sig.size() != 64) return false;
  auto r_result = Decode(sig.subspan(0, 32));
  if (!r_result.ok()) return false;
  auto a_result = Decode(pub);
  if (!a_result.ok()) return false;
  Scalar s{};
  std::memcpy(s.data(), sig.data() + 32, 32);
  if (!ScalarIsCanonical(s)) return false;
  Scalar k = HashToScalar(sig.subspan(0, 32), pub, msg);
  Point lhs = ScalarMultBase(s);
  Point rhs = Add(r_result.value(), ScalarMult(k, a_result.value()));
  return PointEqual(lhs, rhs);
}

bool VerifyBatch(std::span<const BatchItem> items, Drbg* drbg,
                 std::vector<bool>* ok_out) {
  const size_t n = items.size();
  ok_out->assign(n, true);
  if (n == 0) return true;
  struct Decoded {
    size_t index;
    Point r, a;
    Scalar s, k;
  };
  std::vector<Decoded> valid;
  bool all_ok = true;
  for (size_t i = 0; i < n; ++i) {
    const BatchItem& it = items[i];
    bool ok = it.pub.size() == kPointSize && it.sig.size() == 64;
    Decoded d;
    d.index = i;
    if (ok) {
      auto r_result = Decode(it.sig.subspan(0, 32));
      auto a_result = Decode(it.pub);
      std::memcpy(d.s.data(), it.sig.data() + 32, 32);
      ok = r_result.ok() && a_result.ok() && ScalarIsCanonical(d.s);
      if (ok) {
        d.r = r_result.value();
        d.a = a_result.value();
        d.k = HashToScalar(it.sig.subspan(0, 32), it.pub, it.msg);
        valid.push_back(d);
      }
    }
    if (!ok) {
      all_ok = false;
      (*ok_out)[i] = false;
    }
  }
  if (valid.empty()) return all_ok;

  const Scalar kZero{};
  std::vector<Scalar> scalars = {kZero};
  std::vector<Point> points = {BasePoint()};
  Scalar sum_zs = kZero;
  for (const Decoded& d : valid) {
    Bytes zb = drbg->Generate(16);
    Scalar z{};
    std::memcpy(z.data(), zb.data(), 16);
    if (ScalarIsZero(z)) z[0] = 1;
    sum_zs = ScalarMulAdd(z, d.s, sum_zs);
    scalars.push_back(z);
    points.push_back(Negate(d.r));
    scalars.push_back(ScalarMulAdd(z, d.k, kZero));
    points.push_back(Negate(d.a));
  }
  scalars[0] = sum_zs;
  if (IsIdentity(MultiScalarMult(scalars, points))) return all_ok;
  for (const Decoded& d : valid) {
    const BatchItem& it = items[d.index];
    if (!Verify(it.pub, it.msg, it.sig)) {
      all_ok = false;
      (*ok_out)[d.index] = false;
    }
  }
  return all_ok;
}

Result<Bytes> SharedSecret(ByteSpan seed, ByteSpan peer_public) {
  ASSIGN_OR_RETURN(Point peer, Decode(peer_public));
  Point shared = ScalarMult(Expand(seed).secret, peer);
  if (IsIdentity(shared)) {
    return Status::InvalidArgument("dh: degenerate shared point");
  }
  auto enc = Encode(shared);
  return Hkdf(ByteSpan(enc.data(), enc.size()), ToBytes("ccf.dh.v1"), {}, 32);
}

}  // namespace ccf::crypto::ec::oracle
