#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/ec25519.h"
#include "crypto/hmac.h"
#include "crypto/sha512.h"
#include "crypto/sign.h"

namespace ccf::crypto {
namespace {

using ec::Fe;
using ec::Point;
using ec::Scalar;

Fe RandomFe(Drbg* drbg) {
  uint8_t bytes[32];
  drbg->Generate(bytes, 32);
  bytes[31] &= 0x7f;
  return ec::FeFromBytes(bytes);
}

Scalar RandomScalar(Drbg* drbg) {
  Bytes b = drbg->Generate(64);
  return ec::ScalarReduce(b);
}

TEST(Fe25519, BytesRoundTrip) {
  Drbg drbg("fe-bytes", 0);
  for (int i = 0; i < 20; ++i) {
    Fe a = RandomFe(&drbg);
    auto bytes = ec::FeToBytes(a);
    Fe b = ec::FeFromBytes(bytes.data());
    EXPECT_TRUE(ec::FeEqual(a, b));
  }
}

TEST(Fe25519, CanonicalEncodingOfPMinusOne) {
  // p - 1 = 2^255 - 20 must encode canonically (not wrap).
  uint8_t bytes[32];
  memset(bytes, 0xff, 32);
  bytes[0] = 0xec;  // p-1 little-endian low byte: 0xed - 1
  bytes[31] = 0x7f;
  Fe a = ec::FeFromBytes(bytes);
  auto enc = ec::FeToBytes(a);
  EXPECT_EQ(Bytes(enc.begin(), enc.end()), Bytes(bytes, bytes + 32));
}

TEST(Fe25519, NonCanonicalReduces) {
  // p itself must encode as zero.
  uint8_t bytes[32];
  memset(bytes, 0xff, 32);
  bytes[0] = 0xed;
  bytes[31] = 0x7f;
  Fe a = ec::FeFromBytes(bytes);
  EXPECT_TRUE(ec::FeIsZero(a));
}

TEST(Fe25519, FieldAxioms) {
  Drbg drbg("fe-axioms", 0);
  for (int i = 0; i < 10; ++i) {
    Fe a = RandomFe(&drbg), b = RandomFe(&drbg), c = RandomFe(&drbg);
    // Commutativity and associativity of mul.
    EXPECT_TRUE(ec::FeEqual(ec::FeMul(a, b), ec::FeMul(b, a)));
    EXPECT_TRUE(ec::FeEqual(ec::FeMul(ec::FeMul(a, b), c),
                            ec::FeMul(a, ec::FeMul(b, c))));
    // Distributivity.
    EXPECT_TRUE(ec::FeEqual(ec::FeMul(a, ec::FeAdd(b, c)),
                            ec::FeAdd(ec::FeMul(a, b), ec::FeMul(a, c))));
    // Sub inverts add.
    EXPECT_TRUE(ec::FeEqual(ec::FeSub(ec::FeAdd(a, b), b), a));
    // Square matches mul.
    EXPECT_TRUE(ec::FeEqual(ec::FeSquare(a), ec::FeMul(a, a)));
  }
}

TEST(Fe25519, Inversion) {
  Drbg drbg("fe-inv", 0);
  for (int i = 0; i < 10; ++i) {
    Fe a = RandomFe(&drbg);
    if (ec::FeIsZero(a)) continue;
    Fe inv = ec::FeInvert(a);
    EXPECT_TRUE(ec::FeEqual(ec::FeMul(a, inv), ec::FeOne()));
  }
  EXPECT_TRUE(ec::FeIsZero(ec::FeInvert(ec::FeZero())));
}

TEST(Fe25519, SqrtOfSquares) {
  Drbg drbg("fe-sqrt", 0);
  for (int i = 0; i < 10; ++i) {
    Fe a = RandomFe(&drbg);
    Fe a2 = ec::FeSquare(a);
    Fe r;
    ASSERT_TRUE(ec::FeSqrt(a2, &r));
    EXPECT_TRUE(ec::FeEqual(ec::FeSquare(r), a2));
  }
}

TEST(Fe25519, NonResidueRejected) {
  // p = 2^255-19 is 1 mod 4, so -1 is a quadratic residue...
  Fe minus_one = ec::FeNeg(ec::FeOne());
  Fe r;
  ASSERT_TRUE(ec::FeSqrt(minus_one, &r));
  EXPECT_TRUE(ec::FeEqual(ec::FeSquare(r), minus_one));
  // ...and p is 5 mod 8, so 2 is a non-residue; so is -2 (= residue * 2).
  Fe two = ec::FeFromU64(2);
  EXPECT_FALSE(ec::FeSqrt(two, &r));
  EXPECT_FALSE(ec::FeSqrt(ec::FeNeg(two), &r));
}

TEST(Ec25519, BasePointOnCurve) {
  EXPECT_TRUE(ec::IsOnCurve(ec::BasePoint()));
  EXPECT_TRUE(ec::IsOnCurve(ec::Identity()));
}

TEST(Ec25519, BasePointMatchesRfc8032) {
  // The standard encoding of the ed25519 base point.
  auto enc = ec::Encode(ec::BasePoint());
  EXPECT_EQ(HexEncode(ByteSpan(enc.data(), enc.size())),
            "5866666666666666666666666666666666666666666666666666666666666666");
}

TEST(Ec25519, BasePointHasOrderL) {
  // l * B == identity validates both the scalar order constant and the
  // group arithmetic against each other.
  Scalar l_minus_1{};
  // l - 1: reduce(-1 mod l) computed as l + (-1) -> use ScalarReduce of
  // (l-1) bytes directly: build from reduce of large value: 0 - 1 isn't
  // representable, so compute (l-1) = reduce(2*l - 1) via bytes of l.
  // Simpler: s = reduce(big) where big = l-1 little-endian.
  uint8_t lm1[32] = {0xec, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                     0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                     0,    0,    0,    0,    0,    0,    0,    0,
                     0,    0,    0,    0,    0,    0,    0,    0x10};
  memcpy(l_minus_1.data(), lm1, 32);
  ASSERT_TRUE(ec::ScalarIsCanonical(l_minus_1));
  Point p = ec::ScalarMultBase(l_minus_1);
  // (l-1)*B + B == identity.
  Point sum = ec::Add(p, ec::BasePoint());
  EXPECT_TRUE(ec::IsIdentity(sum));
  // And (l-1)*B == -B.
  EXPECT_TRUE(ec::PointEqual(p, ec::Negate(ec::BasePoint())));
}

TEST(Ec25519, GroupLaws) {
  Drbg drbg("group-laws", 0);
  for (int i = 0; i < 5; ++i) {
    Point p = ec::ScalarMultBase(RandomScalar(&drbg));
    Point q = ec::ScalarMultBase(RandomScalar(&drbg));
    Point r = ec::ScalarMultBase(RandomScalar(&drbg));
    // Commutativity.
    EXPECT_TRUE(ec::PointEqual(ec::Add(p, q), ec::Add(q, p)));
    // Associativity.
    EXPECT_TRUE(ec::PointEqual(ec::Add(ec::Add(p, q), r),
                               ec::Add(p, ec::Add(q, r))));
    // Identity.
    EXPECT_TRUE(ec::PointEqual(ec::Add(p, ec::Identity()), p));
    // Inverse.
    EXPECT_TRUE(ec::IsIdentity(ec::Add(p, ec::Negate(p))));
    // Unified add doubles correctly.
    EXPECT_TRUE(ec::PointEqual(ec::Add(p, p), ec::Double(p)));
    // Results stay on the curve.
    EXPECT_TRUE(ec::IsOnCurve(ec::Add(p, q)));
  }
}

TEST(Ec25519, ScalarMultDistributes) {
  Drbg drbg("scalar-dist", 0);
  Scalar a = RandomScalar(&drbg);
  Scalar b = RandomScalar(&drbg);
  Scalar zero{};
  // (a+b)*B == a*B + b*B; a+b computed via MulAdd(a, 1, b).
  Scalar one{};
  one[0] = 1;
  Scalar a_plus_b = ec::ScalarMulAdd(a, one, b);
  Point lhs = ec::ScalarMultBase(a_plus_b);
  Point rhs = ec::Add(ec::ScalarMultBase(a), ec::ScalarMultBase(b));
  EXPECT_TRUE(ec::PointEqual(lhs, rhs));
  EXPECT_TRUE(ec::IsIdentity(ec::ScalarMultBase(zero)));
}

// The Straus multi-scalar engine behind VerifyBatch must agree with the
// naive sum of individual scalar multiplications for every batch size.
TEST(Ec25519, MultiScalarMultMatchesNaiveSum) {
  Drbg drbg("msm-test", 0);
  for (size_t n = 0; n <= 8; ++n) {
    std::vector<ec::Scalar> scalars;
    std::vector<ec::Point> points;
    for (size_t i = 0; i < n; ++i) {
      scalars.push_back(ec::ScalarReduce(drbg.Generate(64)));
      ec::Scalar p = ec::ScalarReduce(drbg.Generate(64));
      points.push_back(ec::ScalarMultBase(p));
    }
    ec::Point naive = ec::Identity();
    for (size_t i = 0; i < n; ++i) {
      naive = ec::Add(naive, ec::ScalarMult(scalars[i], points[i]));
    }
    EXPECT_TRUE(ec::PointEqual(ec::MultiScalarMult(scalars, points), naive))
        << "n=" << n;
  }
}

TEST(Ec25519, MultiScalarMultEdgeScalars) {
  // Zero scalars contribute nothing; a scalar of 1 contributes the point.
  ec::Scalar zero{};
  ec::Scalar one{};
  one[0] = 1;
  ec::Scalar k = ec::ScalarReduce(ToBytes("some-scalar-seed................"));
  ec::Point p = ec::ScalarMultBase(k);
  std::vector<ec::Scalar> scalars = {zero, one};
  std::vector<ec::Point> points = {ec::BasePoint(), p};
  EXPECT_TRUE(ec::PointEqual(ec::MultiScalarMult(scalars, points), p));
  std::vector<ec::Scalar> zeros = {zero, zero};
  EXPECT_TRUE(ec::IsIdentity(ec::MultiScalarMult(zeros, points)));
}

TEST(Ec25519, EncodeDecodeRoundTrip) {
  Drbg drbg("pt-encode", 0);
  for (int i = 0; i < 10; ++i) {
    Point p = ec::ScalarMultBase(RandomScalar(&drbg));
    auto enc = ec::Encode(p);
    auto dec = ec::Decode(ByteSpan(enc.data(), enc.size()));
    ASSERT_TRUE(dec.ok());
    EXPECT_TRUE(ec::PointEqual(p, *dec));
    EXPECT_EQ(ec::Encode(*dec), enc);
  }
}

TEST(Ec25519, DecodeRejectsGarbage) {
  // Wrong length.
  EXPECT_FALSE(ec::Decode(Bytes(31, 0)).ok());
  // Mostly-random encodings: about half of y values are off-curve; check
  // we never crash and reject at least some.
  Drbg drbg("pt-garbage", 0);
  int rejected = 0;
  for (int i = 0; i < 20; ++i) {
    Bytes b = drbg.Generate(32);
    auto dec = ec::Decode(b);
    if (!dec.ok()) {
      ++rejected;
    } else {
      EXPECT_TRUE(ec::IsOnCurve(*dec));
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(Ec25519, DecodeRejectsNonCanonicalY) {
  // Encoding of p (all ones pattern for y >= p) must be rejected.
  Bytes enc(32, 0xff);
  enc[0] = 0xed;
  enc[31] = 0x7f;
  EXPECT_FALSE(ec::Decode(enc).ok());
}

TEST(Scalar25519, ReduceIsCanonical) {
  Drbg drbg("scalar-reduce", 0);
  for (int i = 0; i < 20; ++i) {
    Bytes b = drbg.Generate(64);
    Scalar s = ec::ScalarReduce(b);
    EXPECT_TRUE(ec::ScalarIsCanonical(s));
  }
}

TEST(Scalar25519, MulAddMatchesRepeatedAdd) {
  Scalar two{}, three{}, five{};
  two[0] = 2;
  three[0] = 3;
  five[0] = 5;
  Scalar r = ec::ScalarMulAdd(two, three, five);  // 2*3+5 = 11
  Scalar eleven{};
  eleven[0] = 11;
  EXPECT_EQ(r, eleven);
}

// ------------------------------------------------------------- Signatures

// RFC 8032 section 7.1, tests 1 and 2. KeyPair::Sign does not clamp its
// scalar, so it is not RFC-identical; these check key derivation (with
// the RFC's clamping done here) and that Verify and VerifyBatch accept the
// RFC's signatures and reject one-bit flips.
struct Rfc8032Vector {
  const char* secret;
  const char* pub;
  const char* msg;
  const char* sig;
};

const Rfc8032Vector kRfc8032[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
};

Bytes Hex(const char* s) { return *HexDecode(s); }

bool VerifyOne(const Bytes& pub, const Bytes& msg, const Bytes& sig) {
  Drbg drbg("rfc8032-batch", 0);
  BatchVerifyItem item{pub, msg, sig};
  return VerifyBatch(std::span<const BatchVerifyItem>(&item, 1), &drbg);
}

TEST(Ed25519Rfc8032, ClampedSecretGivesPublicKey) {
  for (const Rfc8032Vector& v : kRfc8032) {
    Sha512Digest h = Sha512::Hash(Hex(v.secret));
    h[0] &= 248;
    h[31] &= 127;
    h[31] |= 64;
    Scalar a = ec::ScalarReduce(ByteSpan(h.data(), 32));
    auto pub = ec::Encode(ec::ScalarMultBase(a));
    EXPECT_EQ(HexEncode(ByteSpan(pub.data(), pub.size())), v.pub);
  }
}

TEST(Ed25519Rfc8032, VerifyAndVerifyBatchAcceptSignatures) {
  std::vector<Bytes> pubs, msgs, sigs;
  for (const Rfc8032Vector& v : kRfc8032) {
    pubs.push_back(Hex(v.pub));
    msgs.push_back(Hex(v.msg));
    sigs.push_back(Hex(v.sig));
    EXPECT_TRUE(Verify(pubs.back(), msgs.back(), sigs.back())) << v.pub;
    EXPECT_TRUE(VerifyOne(pubs.back(), msgs.back(), sigs.back())) << v.pub;
  }
  std::vector<BatchVerifyItem> items;
  for (size_t i = 0; i < pubs.size(); ++i) {
    items.push_back({pubs[i], msgs[i], sigs[i]});
  }
  Drbg drbg("rfc8032-batch-both", 0);
  EXPECT_TRUE(VerifyBatch(items, &drbg));
}

TEST(Ed25519Rfc8032, OneBitFlipsAreRejected) {
  for (const Rfc8032Vector& v : kRfc8032) {
    const Bytes pub = Hex(v.pub), msg = Hex(v.msg), sig = Hex(v.sig);
    for (size_t byte : {0u, 17u, 31u}) {  // R
      Bytes bad = sig;
      bad[byte] ^= 0x01;
      EXPECT_FALSE(Verify(pub, msg, bad)) << v.pub << " R byte " << byte;
      EXPECT_FALSE(VerifyOne(pub, msg, bad)) << v.pub << " R byte " << byte;
    }
    for (size_t byte : {32u, 45u, 63u}) {  // s
      Bytes bad = sig;
      bad[byte] ^= 0x01;
      EXPECT_FALSE(Verify(pub, msg, bad)) << v.pub << " s byte " << byte;
      EXPECT_FALSE(VerifyOne(pub, msg, bad)) << v.pub << " s byte " << byte;
    }
    // The message: flip its first bit; the empty message of test 1 has no
    // bit to flip, so it becomes the one-byte message 0x01.
    Bytes bad_msg = msg.empty() ? Bytes{0x01} : msg;
    if (!msg.empty()) bad_msg[0] ^= 0x01;
    EXPECT_FALSE(Verify(pub, bad_msg, sig)) << v.pub;
    EXPECT_FALSE(VerifyOne(pub, bad_msg, sig)) << v.pub;
  }
}

TEST(Schnorr, SignVerifyRoundTrip) {
  KeyPair kp = KeyPair::FromSeed(ToBytes("seed-alpha"));
  Bytes msg = ToBytes("state machine replication");
  auto sig = kp.Sign(msg);
  EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, DeterministicSignature) {
  KeyPair kp = KeyPair::FromSeed(ToBytes("seed-alpha"));
  auto s1 = kp.Sign(ToBytes("m"));
  auto s2 = kp.Sign(ToBytes("m"));
  EXPECT_EQ(s1, s2);
}

TEST(Schnorr, RejectsWrongMessage) {
  KeyPair kp = KeyPair::FromSeed(ToBytes("seed-alpha"));
  auto sig = kp.Sign(ToBytes("message-1"));
  EXPECT_FALSE(Verify(kp.public_key(), ToBytes("message-2"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  KeyPair a = KeyPair::FromSeed(ToBytes("seed-a"));
  KeyPair b = KeyPair::FromSeed(ToBytes("seed-b"));
  auto sig = a.Sign(ToBytes("msg"));
  EXPECT_FALSE(Verify(b.public_key(), ToBytes("msg"), sig));
}

TEST(Schnorr, RejectsBitFlips) {
  KeyPair kp = KeyPair::FromSeed(ToBytes("seed-flip"));
  Bytes msg = ToBytes("flip me");
  auto sig = kp.Sign(msg);
  for (size_t i = 0; i < sig.size(); i += 7) {
    auto bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(Verify(kp.public_key(), msg, bad)) << "byte " << i;
  }
}

TEST(Schnorr, RejectsNonCanonicalS) {
  KeyPair kp = KeyPair::FromSeed(ToBytes("seed-canon"));
  Bytes msg = ToBytes("msg");
  auto sig = kp.Sign(msg);
  // Set s >= l by forcing high bits.
  auto bad = sig;
  bad[63] = 0xff;
  EXPECT_FALSE(Verify(kp.public_key(), msg, bad));
}

TEST(Schnorr, DifferentSeedsDifferentKeys) {
  KeyPair a = KeyPair::FromSeed(ToBytes("s1"));
  KeyPair b = KeyPair::FromSeed(ToBytes("s2"));
  EXPECT_NE(a.public_key(), b.public_key());
}

TEST(Ecdh, SharedSecretAgreement) {
  KeyPair a = KeyPair::FromSeed(ToBytes("dh-a"));
  KeyPair b = KeyPair::FromSeed(ToBytes("dh-b"));
  auto sa = a.DeriveSharedSecret(b.public_key());
  auto sb = b.DeriveSharedSecret(a.public_key());
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(*sa, *sb);
  EXPECT_EQ(sa->size(), 32u);
}

TEST(Ecdh, DistinctPeersDistinctSecrets) {
  KeyPair a = KeyPair::FromSeed(ToBytes("dh-a"));
  KeyPair b = KeyPair::FromSeed(ToBytes("dh-b"));
  KeyPair c = KeyPair::FromSeed(ToBytes("dh-c"));
  EXPECT_NE(*a.DeriveSharedSecret(b.public_key()),
            *a.DeriveSharedSecret(c.public_key()));
}

TEST(Ecies, SealOpenRoundTrip) {
  Drbg drbg("ecies", 0);
  KeyPair recipient = KeyPair::FromSeed(ToBytes("recipient"));
  Bytes msg = ToBytes("recovery share payload");
  auto sealed = EciesSeal(recipient.public_key(), msg, &drbg);
  ASSERT_TRUE(sealed.ok());
  auto opened = recipient.EciesOpen(*sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, msg);
}

TEST(Ecies, WrongRecipientFails) {
  Drbg drbg("ecies-wrong", 0);
  KeyPair r1 = KeyPair::FromSeed(ToBytes("r1"));
  KeyPair r2 = KeyPair::FromSeed(ToBytes("r2"));
  auto sealed = EciesSeal(r1.public_key(), ToBytes("secret"), &drbg);
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(r2.EciesOpen(*sealed).ok());
}

TEST(Ecies, TamperedBlobFails) {
  Drbg drbg("ecies-tamper", 0);
  KeyPair r = KeyPair::FromSeed(ToBytes("r"));
  auto sealed = EciesSeal(r.public_key(), ToBytes("secret"), &drbg);
  ASSERT_TRUE(sealed.ok());
  Bytes bad = *sealed;
  bad[40] ^= 1;
  EXPECT_FALSE(r.EciesOpen(bad).ok());
}

}  // namespace
}  // namespace ccf::crypto
