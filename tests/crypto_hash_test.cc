#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace ccf::crypto {
namespace {

std::string HashHex256(std::string_view msg) {
  auto d = Sha256::Hash(ToBytes(msg));
  return HexEncode(ByteSpan(d.data(), d.size()));
}

std::string HashHex512(std::string_view msg) {
  auto d = Sha512::Hash(ToBytes(msg));
  return HexEncode(ByteSpan(d.data(), d.size()));
}

// FIPS 180-4 known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(HashHex256(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HashHex256("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HashHex256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  auto d = h.Finish();
  EXPECT_EQ(HexEncode(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg(300, 'x');
  for (size_t split = 0; split <= msg.size(); split += 37) {
    Sha256 h;
    h.Update(ToBytes(msg.substr(0, split)));
    h.Update(ToBytes(msg.substr(split)));
    auto inc = h.Finish();
    EXPECT_EQ(inc, Sha256::Hash(ToBytes(msg))) << "split=" << split;
  }
}

TEST(Sha256, ReusableAfterFinish) {
  Sha256 h;
  h.Update(ToBytes("abc"));
  auto first = h.Finish();
  h.Update(ToBytes("abc"));
  auto second = h.Finish();
  EXPECT_EQ(first, second);
}

// Boundary lengths around the 64-byte block and 56-byte padding cutoff.
TEST(Sha256, PaddingBoundaries) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'q');
    auto a = Sha256::Hash(ToBytes(msg));
    Sha256 h;
    for (char c : msg) h.Update(ToBytes(std::string(1, c)));
    EXPECT_EQ(h.Finish(), a) << "len=" << len;
  }
}

// The whole-block fast path in Update (multi-block compression straight
// from the caller's span, no staging copy) must be invisible: feeding any
// chunking of a long message gives the one-shot digest.
TEST(Sha256, MultiBlockUpdateMatchesChunked) {
  Drbg drbg("multiblock-test", 0);
  Bytes msg = drbg.Generate(4096 + 13);
  Sha256Digest expect = Sha256::Hash(msg);
  for (size_t chunk : {1u, 63u, 64u, 65u, 128u, 1000u, 4096u}) {
    Sha256 h;
    for (size_t off = 0; off < msg.size(); off += chunk) {
      h.Update(ByteSpan(msg).subspan(off, std::min(chunk, msg.size() - off)));
    }
    EXPECT_EQ(h.Finish(), expect) << "chunk=" << chunk;
  }
}

// An empty span (null data()) in the middle of a message is a no-op; the
// buffered path once passed its null pointer to memcpy, which UBSan
// reports even for zero bytes.
TEST(Sha256, EmptyUpdateBetweenChunksIsNoOp) {
  Bytes msg = ToBytes("abcdefghij");
  Sha256 h256;
  Sha512 h512;
  h256.Update(ByteSpan(msg).subspan(0, 3));
  h512.Update(ByteSpan(msg).subspan(0, 3));
  h256.Update(ByteSpan());
  h512.Update(ByteSpan());
  h256.Update(ByteSpan(msg).subspan(3));
  h512.Update(ByteSpan(msg).subspan(3));
  EXPECT_EQ(h256.Finish(), Sha256::Hash(msg));
  EXPECT_EQ(h512.Finish(), Sha512::Hash(msg));
}

// SHA-512 constants are derived at runtime; validate the derivation against
// published FIPS 180-4 values.
TEST(Sha512, DerivedConstants) {
  EXPECT_EQ(internal::CbrtFrac64(2), 0x428a2f98d728ae22ULL);   // K[0]
  EXPECT_EQ(internal::SqrtFrac64(2), 0x6a09e667f3bcc908ULL);   // H[0]
  EXPECT_EQ(internal::SqrtFrac64(19), 0x5be0cd19137e2179ULL);  // H[7]
}

TEST(Sha512, Abc) {
  EXPECT_EQ(HashHex512("abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(HashHex512(""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  std::string msg(517, 'z');
  Sha512 h;
  h.Update(ToBytes(msg.substr(0, 100)));
  h.Update(ToBytes(msg.substr(100)));
  EXPECT_EQ(h.Finish(), Sha512::Hash(ToBytes(msg)));
}

TEST(Sha512, PaddingBoundaries) {
  for (size_t len : {111u, 112u, 113u, 127u, 128u, 129u}) {
    std::string msg(len, 'p');
    auto a = Sha512::Hash(ToBytes(msg));
    Sha512 h;
    h.Update(ToBytes(msg));
    EXPECT_EQ(h.Finish(), a) << "len=" << len;
  }
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(HexEncode(ByteSpan(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: short key "Jefe".
TEST(Hmac, Rfc4231Case2) {
  auto mac = HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(ByteSpan(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  Bytes key(131, 0xaa);
  auto a = HmacSha256(key, ToBytes("msg"));
  Sha256Digest kd = Sha256::Hash(key);
  auto b = HmacSha256(ByteSpan(kd.data(), kd.size()), ToBytes("msg"));
  EXPECT_EQ(a, b);
}

TEST(Hkdf, DeterministicAndLabelSeparated) {
  Bytes ikm = ToBytes("input key material");
  Bytes a = Hkdf(ikm, ToBytes("salt"), ToBytes("info-a"), 42);
  Bytes b = Hkdf(ikm, ToBytes("salt"), ToBytes("info-a"), 42);
  Bytes c = Hkdf(ikm, ToBytes("salt"), ToBytes("info-b"), 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 42u);
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = HexDecode("000102030405060708090a0b0c").take();
  Bytes info = HexDecode("f0f1f2f3f4f5f6f7f8f9").take();
  Bytes okm = Hkdf(ikm, salt, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Drbg, DeterministicStreams) {
  Drbg a(ToBytes("seed-1"));
  Drbg b(ToBytes("seed-1"));
  Drbg c(ToBytes("seed-2"));
  Bytes xa = a.Generate(64);
  Bytes xb = b.Generate(64);
  Bytes xc = c.Generate(64);
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
}

TEST(Drbg, LabeledConstructor) {
  Drbg a("node", 3);
  Drbg b("node", 3);
  Drbg c("node", 4);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(Drbg, UniformRespectsBound) {
  Drbg d("uniform", 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(d.Uniform(17), 17u);
  }
}

TEST(Drbg, UniformCoversRange) {
  Drbg d("coverage", 1);
  bool seen[8] = {};
  for (int i = 0; i < 200; ++i) seen[d.Uniform(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace ccf::crypto
