// Differential tests: the edwards25519 kernels in src/crypto against the
// simple implementation they replaced (tests/ec25519_oracle.*). Every
// output that leaves the module must be identical -- field results, scalar
// results, points, public keys, signatures, ECDH secrets, Decode and
// Verify/VerifyBatch verdicts, and the DRBG state VerifyBatch leaves
// behind -- over random inputs plus the edge scalars 0, 1, l-1, l, l+1,
// 2^255-1 and 2^256-1.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/hex.h"
#include "crypto/ec25519.h"
#include "crypto/hmac.h"
#include "crypto/sign.h"
#include "tests/ec25519_oracle.h"

namespace ccf::crypto {
namespace {

namespace orc = ec::oracle;
using ec::Scalar;

// l = 2^252 + 27742317777372353535851937790883648493, little-endian.
Scalar OrderL() {
  Scalar l{};
  const uint8_t bytes[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                             0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                             0,    0,    0,    0,    0,    0,    0,    0,
                             0,    0,    0,    0,    0,    0,    0,    0x10};
  std::memcpy(l.data(), bytes, 32);
  return l;
}

// l + delta for a small signed delta (no wrap below 0 or above 2^256).
Scalar OrderLPlus(int delta) {
  Scalar s = OrderL();
  s[0] = static_cast<uint8_t>(s[0] + delta);  // 0xed +/- 1 does not carry
  return s;
}

std::vector<Scalar> EdgeScalars() {
  Scalar zero{}, one{}, top255{}, top256{};
  one[0] = 1;
  top255.fill(0xff);
  top255[31] = 0x7f;
  top256.fill(0xff);
  return {zero, one, OrderLPlus(-1), OrderL(), OrderLPlus(1), top255, top256};
}

Scalar RandomScalarBytes(Drbg* drbg) {
  Scalar s;
  drbg->Generate(s.data(), s.size());
  return s;
}

std::array<uint8_t, 32> Enc(const ec::Point& p) { return ec::Encode(p); }
std::array<uint8_t, 32> Enc(const orc::Point& p) { return orc::Encode(p); }

// Random points on the full curve (most have a small-order component):
// decodes of random strings, with every 8th drawn from the prime-order
// subgroup instead.
struct PointPair {
  ec::Point mine;
  orc::Point theirs;
};

PointPair RandomPoint(Drbg* drbg, int i) {
  while (true) {
    Bytes enc = drbg->Generate(32);
    if (i % 8 == 0) {
      auto e = ec::Encode(ec::ScalarMultBase(RandomScalarBytes(drbg)));
      enc.assign(e.begin(), e.end());
    }
    auto mine = ec::Decode(enc);
    if (!mine.ok()) continue;
    auto theirs = orc::Decode(enc);
    EXPECT_TRUE(theirs.ok());
    return {*mine, *theirs};
  }
}

// The eight points of order dividing 8, as l * P for random P on the
// curve (P's small-order component survives the multiplication by l).
std::set<std::array<uint8_t, 32>> TorsionEncodings() {
  Drbg drbg("ec-oracle-torsion", 0);
  std::set<std::array<uint8_t, 32>> out;
  for (int i = 1; out.size() < 8 && i < 400; ++i) {
    PointPair p = RandomPoint(&drbg, i);
    out.insert(orc::Encode(orc::ScalarMult(OrderL(), p.theirs)));
  }
  EXPECT_EQ(out.size(), 8u);
  return out;
}

TEST(Ec25519Oracle, FieldArithmeticInvertAndSqrt) {
  Drbg drbg("ec-oracle-field", 0);
  std::vector<std::array<uint8_t, 32>> inputs;
  // Edge values: 0, 1, 2, p-1, p, p+1, 2^255-1 (the last three are
  // non-canonical inputs to FeFromBytes).
  for (uint8_t low : {0x00, 0x01, 0x02}) {
    std::array<uint8_t, 32> b{};
    b[0] = low;
    inputs.push_back(b);
  }
  for (uint8_t low : {0xec, 0xed, 0xee, 0xff}) {
    std::array<uint8_t, 32> b;
    b.fill(0xff);
    b[0] = low;
    b[31] = 0x7f;
    inputs.push_back(b);
  }
  for (int i = 0; i < 10000; ++i) {
    std::array<uint8_t, 32> b;
    drbg.Generate(b.data(), b.size());
    b[31] &= 0x7f;
    inputs.push_back(b);
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    const auto& ab = inputs[i];
    const auto& bb = inputs[(i * 7919 + 1) % inputs.size()];
    ec::Fe a = ec::FeFromBytes(ab.data()), b = ec::FeFromBytes(bb.data());
    orc::Fe oa = orc::FeFromBytes(ab.data());
    orc::Fe ob = orc::FeFromBytes(bb.data());
    ASSERT_EQ(ec::FeToBytes(a), orc::FeToBytes(oa)) << i;
    auto same = [](const ec::Fe& x, const orc::Fe& y) {
      return ec::FeToBytes(x) == orc::FeToBytes(y);
    };
    ASSERT_TRUE(same(ec::FeMul(a, b), orc::FeMul(oa, ob))) << i;
    ASSERT_TRUE(same(ec::FeSquare(a), orc::FeSquare(oa))) << i;
    ASSERT_TRUE(same(ec::FeAdd(a, b), orc::FeAdd(oa, ob))) << i;
    ASSERT_TRUE(same(ec::FeSub(a, b), orc::FeSub(oa, ob))) << i;
    ASSERT_EQ(ec::FeIsNegative(a), orc::FeIsNegative(oa)) << i;
    ASSERT_TRUE(same(ec::FeInvert(a), orc::FeInvert(oa)))
        << "input " << HexEncode(ByteSpan(ab.data(), 32));
    ec::Fe r;
    orc::Fe orr;
    bool ok = ec::FeSqrt(a, &r);
    ASSERT_EQ(ok, orc::FeSqrt(oa, &orr))
        << "input " << HexEncode(ByteSpan(ab.data(), 32));
    if (ok) {
      ASSERT_EQ(ec::FeToBytes(r), orc::FeToBytes(orr));
    }
  }
}

TEST(Ec25519Oracle, ScalarArithmetic) {
  Drbg drbg("ec-oracle-scalar", 0);
  std::vector<Scalar> scalars = EdgeScalars();
  for (int i = 0; i < 10000; ++i) scalars.push_back(RandomScalarBytes(&drbg));
  const size_t n = scalars.size();
  for (size_t i = 0; i < n; ++i) {
    const Scalar& a = scalars[i];
    const Scalar& b = scalars[(i * 31 + 3) % n];
    const Scalar& c = scalars[(i * 17 + 5) % n];
    ASSERT_EQ(ec::ScalarIsCanonical(a), orc::ScalarIsCanonical(a)) << i;
    ASSERT_EQ(ec::ScalarIsZero(a), orc::ScalarIsZero(a)) << i;
    ASSERT_EQ(ec::ScalarMulAdd(a, b, c), orc::ScalarMulAdd(a, b, c)) << i;
    ASSERT_EQ(ec::ScalarReduce(a), orc::ScalarReduce(a)) << i;
    // Arbitrary lengths, from empty to past two SHA-512 digests.
    Bytes msg = drbg.Generate(i % 160);
    ASSERT_EQ(ec::ScalarReduce(msg), orc::ScalarReduce(msg))
        << "len " << msg.size();
  }
  // Every edge scalar against every other, and 64-byte all-ones.
  for (const Scalar& a : EdgeScalars()) {
    for (const Scalar& b : EdgeScalars()) {
      for (const Scalar& c : EdgeScalars()) {
        ASSERT_EQ(ec::ScalarMulAdd(a, b, c), orc::ScalarMulAdd(a, b, c));
      }
    }
  }
  Bytes ones(64, 0xff);
  EXPECT_EQ(ec::ScalarReduce(ones), orc::ScalarReduce(ones));
}

TEST(Ec25519Oracle, DecodeAcceptsAndRejectsTheSame) {
  Drbg drbg("ec-oracle-decode", 0);
  std::vector<Bytes> encodings;
  for (int i = 0; i < 10000; ++i) encodings.push_back(drbg.Generate(32));
  // Non-canonical y: p + i for i in [0, 19), with both sign bits.
  for (int i = 0; i < 19; ++i) {
    for (uint8_t sign : {0x00, 0x80}) {
      Bytes e(32, 0xff);
      e[0] = static_cast<uint8_t>(0xed + i);
      e[31] = static_cast<uint8_t>(0x7f | sign);
      encodings.push_back(e);
    }
  }
  // Small-order points, with and without the sign bit (x = 0 with the
  // sign bit set must be rejected).
  for (const auto& t : TorsionEncodings()) {
    Bytes e(t.begin(), t.end());
    encodings.push_back(e);
    e[31] ^= 0x80;
    encodings.push_back(e);
  }
  int accepted = 0;
  for (const Bytes& e : encodings) {
    auto mine = ec::Decode(e);
    auto theirs = orc::Decode(e);
    ASSERT_EQ(mine.ok(), theirs.ok()) << HexEncode(e);
    if (!mine.ok()) continue;
    ++accepted;
    ASSERT_EQ(Enc(*mine), Enc(*theirs)) << HexEncode(e);
    ASSERT_TRUE(ec::IsOnCurve(*mine));
  }
  // About half of all y values lie on the curve.
  EXPECT_GT(accepted, 4000);
  EXPECT_LT(accepted, 6100);
}

TEST(Ec25519Oracle, ScalarMultBase) {
  Drbg drbg("ec-oracle-smb", 0);
  std::vector<Scalar> scalars = EdgeScalars();
  for (int i = 0; i < 2000; ++i) scalars.push_back(RandomScalarBytes(&drbg));
  for (const Scalar& s : scalars) {
    ASSERT_EQ(Enc(ec::ScalarMultBase(s)), Enc(orc::ScalarMultBase(s)))
        << HexEncode(ByteSpan(s.data(), 32));
  }
}

TEST(Ec25519Oracle, ScalarMultOnTheWholeCurve) {
  Drbg drbg("ec-oracle-sm", 0);
  std::vector<PointPair> points;
  for (int i = 0; i < 1000; ++i) points.push_back(RandomPoint(&drbg, i));
  for (const auto& t : TorsionEncodings()) {
    points.push_back({*ec::Decode(t), *orc::Decode(t)});
  }
  for (size_t i = 0; i < points.size(); ++i) {
    Scalar s = RandomScalarBytes(&drbg);
    ASSERT_EQ(Enc(ec::ScalarMult(s, points[i].mine)),
              Enc(orc::ScalarMult(s, points[i].theirs)))
        << i;
  }
  for (const Scalar& s : EdgeScalars()) {
    for (size_t i = 0; i < 16; ++i) {
      const PointPair& p = points[points.size() - 1 - i];
      ASSERT_EQ(Enc(ec::ScalarMult(s, p.mine)),
                Enc(orc::ScalarMult(s, p.theirs)));
    }
  }
}

TEST(Ec25519Oracle, MultiScalarMult) {
  Drbg drbg("ec-oracle-msm", 0);
  std::vector<Scalar> edges = EdgeScalars();
  for (int round = 0; round < 200; ++round) {
    const size_t n = round % 9;
    std::vector<Scalar> scalars;
    std::vector<ec::Point> mine;
    std::vector<orc::Point> theirs;
    for (size_t i = 0; i < n; ++i) {
      // Mix full 256-bit scalars, 128-bit ones (the batch combiners) and
      // edge scalars.
      Scalar s = RandomScalarBytes(&drbg);
      if ((round + i) % 3 == 1) std::memset(s.data() + 16, 0, 16);
      if ((round + i) % 5 == 2) s = edges[(round + i) % edges.size()];
      scalars.push_back(s);
      PointPair p = RandomPoint(&drbg, static_cast<int>(round + i));
      mine.push_back(p.mine);
      theirs.push_back(p.theirs);
    }
    ASSERT_EQ(Enc(ec::MultiScalarMult(scalars, mine)),
              Enc(orc::MultiScalarMult(scalars, theirs)))
        << "round " << round;
    // With a base-point term taken from the fixed table.
    Scalar base = round % 4 == 0 ? edges[round / 4 % edges.size()]
                                 : RandomScalarBytes(&drbg);
    std::vector<Scalar> with_base = {base};
    with_base.insert(with_base.end(), scalars.begin(), scalars.end());
    std::vector<orc::Point> theirs_with_base = {orc::BasePoint()};
    theirs_with_base.insert(theirs_with_base.end(), theirs.begin(),
                            theirs.end());
    ASSERT_EQ(Enc(ec::MultiScalarMultWithBase(base, scalars, mine)),
              Enc(orc::MultiScalarMult(with_base, theirs_with_base)))
        << "round " << round;
  }
}

TEST(Ec25519Oracle, KeysSignaturesAndEcdhAreByteIdentical) {
  Drbg drbg("ec-oracle-keys", 0);
  std::vector<Bytes> peers;
  for (const auto& t : TorsionEncodings()) {
    peers.emplace_back(t.begin(), t.end());
  }
  for (int i = 0; i < 1000; ++i) {
    Bytes seed = drbg.Generate(32);
    KeyPair kp = KeyPair::FromSeed(seed);
    ASSERT_EQ(kp.public_key(), orc::PublicKeyFromSeed(seed)) << i;
    Bytes msg = drbg.Generate(i % 100);
    auto sig = kp.Sign(msg);
    ASSERT_EQ(sig, orc::Sign(seed, msg)) << i;
    // Peers: other honest keys, random strings (most decode to points with
    // a small-order component, the rest fail to decode) and small-order
    // points (degenerate shared point).
    Bytes peer;
    if (i % 3 == 0) {
      peer.assign(kp.public_key().begin(), kp.public_key().end());
      peers.push_back(peer);
      peer = peers[(i * 13) % peers.size()];
    } else if (i % 3 == 1) {
      peer = drbg.Generate(32);
    } else {
      peer = peers[i % 8];
    }
    auto mine = kp.DeriveSharedSecret(peer);
    auto theirs = orc::SharedSecret(seed, peer);
    ASSERT_EQ(mine.ok(), theirs.ok()) << i;
    if (mine.ok()) {
      ASSERT_EQ(*mine, *theirs) << i;
    }
  }
}

// Random tampering of a valid (pub, msg, sig): a flipped bit in R, s, the
// message or the key; s + l (non-canonical); a small-order R or key.
void Tamper(Drbg* drbg, int mode, Bytes* pub, Bytes* msg, Bytes* sig,
            const std::vector<Bytes>& torsion) {
  const uint32_t r = drbg->Generate(1)[0];
  switch (mode % 7) {
    case 0: break;  // untouched
    case 1: (*sig)[r % 32] ^= static_cast<uint8_t>(1 << (r % 8)); break;
    case 2: (*sig)[32 + r % 32] ^= static_cast<uint8_t>(1 << (r % 8)); break;
    case 3:
      if (msg->empty()) msg->push_back(0);
      (*msg)[r % msg->size()] ^= static_cast<uint8_t>(1 << (r % 8));
      break;
    case 4: (*pub)[r % 32] ^= static_cast<uint8_t>(1 << (r % 8)); break;
    case 5: {
      Scalar s;
      std::memcpy(s.data(), sig->data() + 32, 32);
      // s + l: same value mod l, never canonical (s + l < 2^256).
      uint16_t carry = 0;
      Scalar l = OrderL();
      for (int i = 0; i < 32; ++i) {
        carry = static_cast<uint16_t>(carry + s[i] + l[i]);
        (*sig)[32 + i] = static_cast<uint8_t>(carry);
        carry >>= 8;
      }
      break;
    }
    case 6: {
      const Bytes& t = torsion[r % torsion.size()];
      if (r & 1) {
        std::copy(t.begin(), t.end(), sig->begin());
      } else {
        *pub = t;
      }
      break;
    }
  }
}

TEST(Ec25519Oracle, VerifyVerdicts) {
  Drbg drbg("ec-oracle-verify", 0);
  std::vector<Bytes> torsion;
  for (const auto& t : TorsionEncodings()) {
    torsion.emplace_back(t.begin(), t.end());
  }
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    KeyPair kp = KeyPair::FromSeed(drbg.Generate(32));
    Bytes msg = drbg.Generate(1 + i % 64);
    auto s = kp.Sign(msg);
    Bytes pub(kp.public_key().begin(), kp.public_key().end());
    Bytes sig(s.begin(), s.end());
    Tamper(&drbg, i, &pub, &msg, &sig, torsion);
    bool mine = Verify(pub, msg, sig);
    ASSERT_EQ(mine, orc::Verify(pub, msg, sig))
        << i << " pub " << HexEncode(pub) << " sig " << HexEncode(sig);
    accepted += mine ? 1 : 0;
  }
  // Only the untouched seventh verifies.
  EXPECT_EQ(accepted, 143);
}

TEST(Ec25519Oracle, VerifyBatchVerdictsAndDrbgState) {
  Drbg drbg("ec-oracle-batch", 0);
  std::vector<Bytes> torsion;
  for (const auto& t : TorsionEncodings()) {
    torsion.emplace_back(t.begin(), t.end());
  }
  int batches_passed = 0;
  for (int round = 0; round < 100; ++round) {
    const size_t n = 1 + round % 16;
    std::vector<Bytes> pubs(n), msgs(n), sigs(n);
    for (size_t i = 0; i < n; ++i) {
      KeyPair kp = KeyPair::FromSeed(drbg.Generate(32));
      msgs[i] = drbg.Generate(16);
      auto s = kp.Sign(msgs[i]);
      pubs[i].assign(kp.public_key().begin(), kp.public_key().end());
      sigs[i].assign(s.begin(), s.end());
      // Most batches are honest; the rest carry one or more tampered items.
      if (round % 3 == 2 && drbg.Generate(1)[0] % 4 == 0) {
        Tamper(&drbg, 1 + static_cast<int>(i + round) % 6, &pubs[i],
               &msgs[i], &sigs[i], torsion);
      }
    }
    std::vector<BatchVerifyItem> items;
    std::vector<orc::BatchItem> oitems;
    for (size_t i = 0; i < n; ++i) {
      items.push_back({pubs[i], msgs[i], sigs[i]});
      oitems.push_back({pubs[i], msgs[i], sigs[i]});
    }
    const std::string seed = "combiners-" + std::to_string(round);
    Drbg mine_drbg(seed, 0), theirs_drbg(seed, 0);
    std::vector<bool> mine_ok, theirs_ok;
    bool mine = VerifyBatch(items, &mine_drbg, &mine_ok);
    bool theirs = orc::VerifyBatch(oitems, &theirs_drbg, &theirs_ok);
    ASSERT_EQ(mine, theirs) << round;
    ASSERT_EQ(mine_ok, theirs_ok) << round;
    ASSERT_EQ(mine_drbg.Generate(32), theirs_drbg.Generate(32)) << round;
    batches_passed += mine ? 1 : 0;
  }
  EXPECT_GT(batches_passed, 60);
  EXPECT_LT(batches_passed, 100);
}

}  // namespace
}  // namespace ccf::crypto
