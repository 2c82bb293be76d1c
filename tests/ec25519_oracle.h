// The previous edwards25519 implementation, kept only as a differential
// oracle for src/crypto/ec25519.cc (see ec25519_oracle.cc). Its Fe and
// Point are its own types so that calls never resolve to the library's
// functions; Scalar is the same 32-byte array.

#ifndef CCF_TESTS_EC25519_ORACLE_H_
#define CCF_TESTS_EC25519_ORACLE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/ec25519.h"
#include "crypto/hmac.h"

namespace ccf::crypto::ec::oracle {

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
Fe FeInvert(const Fe& a);
bool FeIsZero(const Fe& a);
bool FeEqual(const Fe& a, const Fe& b);
bool FeIsNegative(const Fe& a);
std::array<uint8_t, 32> FeToBytes(const Fe& a);
Fe FeFromBytes(const uint8_t bytes[32]);
bool FeSqrt(const Fe& a, Fe* out);

using ec::Scalar;
Scalar ScalarReduce(ByteSpan bytes_le);
Scalar ScalarMulAdd(const Scalar& a, const Scalar& b, const Scalar& c);
bool ScalarIsCanonical(const Scalar& s);
bool ScalarIsZero(const Scalar& s);

struct Point {
  Fe x, y, z, t;
};

Point Identity();
const Point& BasePoint();
Point Add(const Point& p, const Point& q);
Point Double(const Point& p);
Point Negate(const Point& p);
Point ScalarMult(const Scalar& s, const Point& p);
Point ScalarMultBase(const Scalar& s);
Point MultiScalarMult(std::span<const Scalar> scalars,
                      std::span<const Point> points);
bool PointEqual(const Point& p, const Point& q);
bool IsIdentity(const Point& p);
bool IsOnCurve(const Point& p);
std::array<uint8_t, kPointSize> Encode(const Point& p);
Result<Point> Decode(ByteSpan encoded);
const Fe& ConstD();

// The Schnorr/ECDH layer of crypto/sign.cc over this arithmetic, keyed by
// the 32-byte seed that KeyPair::FromSeed takes.
std::array<uint8_t, 32> PublicKeyFromSeed(ByteSpan seed);
std::array<uint8_t, 64> Sign(ByteSpan seed, ByteSpan msg);
bool Verify(ByteSpan pub, ByteSpan msg, ByteSpan sig);
struct BatchItem {
  ByteSpan pub, msg, sig;
};
bool VerifyBatch(std::span<const BatchItem> items, Drbg* drbg,
                 std::vector<bool>* ok_out);
Result<Bytes> SharedSecret(ByteSpan seed, ByteSpan peer_public);

}  // namespace ccf::crypto::ec::oracle

#endif  // CCF_TESTS_EC25519_ORACLE_H_
