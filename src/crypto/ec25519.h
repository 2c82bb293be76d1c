// edwards25519 group arithmetic, implemented from scratch.
//
// Field elements are mod p = 2^255 - 19 with 51-bit limbs; points use
// extended twisted-Edwards coordinates (a = -1). All curve constants that
// admit it (d, sqrt(-1), the base point and the base point's precomputed
// multiples) are *derived* at start-up from their defining equations
// rather than transcribed, and validated by unit tests (group laws, order
// of the base point, RFC 8032 vectors).
//
// This module underlies Schnorr signatures (sign.h), ECDH channel keys, and
// ECIES recovery-share encryption. The kernels follow Bernstein et al.,
// "High-speed high-security signatures" (CHES 2011): dedicated squaring,
// addition-chain inversion and square root, fixed-width scalar reduction,
// a fixed-base comb for B and a double-scalar multiplication for verify.
//
// Timing. Paths that take a secret scalar are constant-time: no branch or
// table index depends on the scalar (ScalarReduce, ScalarMulAdd,
// ScalarMultBase, ScalarMult, FeInvert, Encode). That covers key
// generation, the signing nonce, the ECIES ephemeral and ECDH. Verification
// handles public inputs only and is variable-time: Decode, FeSqrt,
// MultiScalarMult, MultiScalarMultWithBase, PointEqual and the Fe
// predicates branch on their inputs.

#ifndef CCF_CRYPTO_EC25519_H_
#define CCF_CRYPTO_EC25519_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace ccf::crypto::ec {

// --------------------------------------------------------------- Field

// Field element mod 2^255-19, five 51-bit limbs, little-endian.
struct Fe {
  uint64_t v[5] = {0, 0, 0, 0, 0};
};

Fe FeZero();
Fe FeOne();
Fe FeFromU64(uint64_t x);
Fe FeAdd(const Fe& a, const Fe& b);
Fe FeSub(const Fe& a, const Fe& b);
Fe FeMul(const Fe& a, const Fe& b);
Fe FeSquare(const Fe& a);
Fe FeNeg(const Fe& a);
Fe FeInvert(const Fe& a);        // a^(p-2); FeInvert(0) == 0.
bool FeIsZero(const Fe& a);
bool FeEqual(const Fe& a, const Fe& b);
bool FeIsNegative(const Fe& a);  // canonical value is odd.

// 32-byte little-endian encodings (canonical on output).
std::array<uint8_t, 32> FeToBytes(const Fe& a);
Fe FeFromBytes(const uint8_t bytes[32]);  // high bit ignored.

// Square root in the field: returns false if `a` is a non-residue.
bool FeSqrt(const Fe& a, Fe* out);

// --------------------------------------------------------------- Scalars

inline constexpr size_t kScalarSize = 32;
// Scalar mod the group order l = 2^252 + 27742317777372353535851937790883648493,
// canonical 32-byte little-endian.
using Scalar = std::array<uint8_t, kScalarSize>;

// Reduces an arbitrary-length little-endian byte string mod l.
Scalar ScalarReduce(ByteSpan bytes_le);
// (a * b + c) mod l.
Scalar ScalarMulAdd(const Scalar& a, const Scalar& b, const Scalar& c);
bool ScalarIsCanonical(const Scalar& s);
bool ScalarIsZero(const Scalar& s);

// --------------------------------------------------------------- Points

// Extended coordinates (X:Y:Z:T) with x = X/Z, y = Y/Z, T = XY/Z.
struct Point {
  Fe x, y, z, t;
};

Point Identity();
const Point& BasePoint();
Point Add(const Point& p, const Point& q);
Point Double(const Point& p);
Point Negate(const Point& p);
// s*P for any 32-byte s (bit 255 included), constant-time in s: signed
// 4-bit fixed windows with a masked scan of the 8-entry table.
Point ScalarMult(const Scalar& s, const Point& p);
// s*B for any 32-byte s, constant-time in s: signed radix-16 comb over a
// table of (1..8) * 256^i * B built once at start-up.
Point ScalarMultBase(const Scalar& s);
// base_scalar*B + sum_i scalars[i] * points[i] via Straus' interleaved
// method: one shared doubling chain, width-5 signed sliding windows (wNAF)
// for each point and width-8 windows over a fixed table of odd multiples
// of B. Variable-time: public inputs only. This is the engine behind
// crypto::Verify (one point) and crypto::VerifyBatch. Requires
// equal-length inputs.
Point MultiScalarMultWithBase(const Scalar& base_scalar,
                              std::span<const Scalar> scalars,
                              std::span<const Point> points);
// MultiScalarMultWithBase with a zero base scalar.
Point MultiScalarMult(std::span<const Scalar> scalars,
                      std::span<const Point> points);
bool PointEqual(const Point& p, const Point& q);
bool IsIdentity(const Point& p);
// Membership of the full curve (not subgroup-checked).
bool IsOnCurve(const Point& p);

inline constexpr size_t kPointSize = 32;
// Compressed encoding: y with the sign of x in bit 255.
std::array<uint8_t, kPointSize> Encode(const Point& p);
Result<Point> Decode(ByteSpan encoded);

// Curve constant d = -121665/121666 (derived at start-up).
const Fe& ConstD();

}  // namespace ccf::crypto::ec

#endif  // CCF_CRYPTO_EC25519_H_
