#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hex.h"
#include "crypto/aes.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"

namespace ccf::crypto {
namespace {

using internal::Kernel;

// Every kernel this CPU can run: the known-answer vectors below hold for
// the portable code and, where present, the AES-NI / PCLMULQDQ one.
std::vector<Kernel> AesKernels() {
  std::vector<Kernel> kernels = {Kernel::kPortable};
  if (internal::CpuHasAesNi()) kernels.push_back(Kernel::kHardware);
  return kernels;
}

// FIPS 197 Appendix C.3 known-answer vector for AES-256.
TEST(Aes256, Fips197VectorEncrypt) {
  Bytes key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
      .take();
  Bytes pt = HexDecode("00112233445566778899aabbccddeeff").take();
  for (Kernel k : AesKernels()) {
    Aes256 aes(key, k);
    uint8_t ct[16];
    aes.EncryptBlock(pt.data(), ct);
    EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), "8ea2b7ca516745bfeafc49904b496089")
        << internal::KernelName(k);
  }
}

TEST(Aes256, Fips197VectorDecrypt) {
  Bytes key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
      .take();
  Bytes ct = HexDecode("8ea2b7ca516745bfeafc49904b496089").take();
  Aes256 aes(key);
  uint8_t pt[16];
  aes.DecryptBlock(ct.data(), pt);
  EXPECT_EQ(HexEncode(ByteSpan(pt, 16)),
            "00112233445566778899aabbccddeeff");
}

TEST(Aes256, DecryptInvertsEncryptRandomized) {
  Drbg drbg("aes-roundtrip", 0);
  for (int i = 0; i < 50; ++i) {
    Bytes key = drbg.Generate(32);
    Bytes block = drbg.Generate(16);
    Aes256 aes(key);
    uint8_t ct[16], pt[16];
    aes.EncryptBlock(block.data(), ct);
    aes.DecryptBlock(ct, pt);
    EXPECT_EQ(Bytes(pt, pt + 16), block);
  }
}

TEST(Aes256, DifferentKeysDifferentCiphertext) {
  Bytes k1(32, 0x01), k2(32, 0x02);
  uint8_t block[16] = {0};
  uint8_t c1[16], c2[16];
  Aes256(k1).EncryptBlock(block, c1);
  Aes256(k2).EncryptBlock(block, c2);
  EXPECT_NE(Bytes(c1, c1 + 16), Bytes(c2, c2 + 16));
}

// GCM spec test case 13: all-zero key/IV, empty plaintext & AAD.
TEST(AesGcm, SpecCase13EmptyPlaintext) {
  Bytes key(32, 0);
  Bytes iv(12, 0);
  for (Kernel k : AesKernels()) {
    AesGcm gcm(key, k);
    Bytes sealed = gcm.Seal(iv, {}, {});
    EXPECT_EQ(HexEncode(sealed), "530f8afbc74536b9a963b4f1c4cb738b")
        << internal::KernelName(k);
  }
}

// GCM spec test case 14: one zero block of plaintext.
TEST(AesGcm, SpecCase14OneBlock) {
  Bytes key(32, 0);
  Bytes iv(12, 0);
  Bytes pt(16, 0);
  for (Kernel k : AesKernels()) {
    AesGcm gcm(key, k);
    Bytes sealed = gcm.Seal(iv, pt, {});
    EXPECT_EQ(HexEncode(sealed),
              "cea7403d4d606b6e074ec5d3baf39d18"
              "d0d1c8a799996bf0265b98b5d48ab919")
        << internal::KernelName(k);
  }
}

// GCM spec test cases 15 and 16: a 64-byte plaintext (four blocks, one
// full GHASH fold) without AAD, and a 60-byte one (partial last block)
// with 20 bytes of AAD (partial AAD block).
const char* const kCase15Key =
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
const char* const kCase15Iv = "cafebabefacedbaddecaf888";
const char* const kCase15Plaintext =
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
const char* const kCase15Ciphertext =
    "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad";

TEST(AesGcm, SpecCase15FourBlocks) {
  Bytes key = HexDecode(kCase15Key).take();
  Bytes iv = HexDecode(kCase15Iv).take();
  Bytes pt = HexDecode(kCase15Plaintext).take();
  for (Kernel k : AesKernels()) {
    AesGcm gcm(key, k);
    Bytes sealed = gcm.Seal(iv, pt, {});
    EXPECT_EQ(HexEncode(sealed),
              std::string(kCase15Ciphertext) +
                  "b094dac5d93471bdec1a502270e3cc6c")
        << internal::KernelName(k);
    auto opened = gcm.Open(iv, sealed, {});
    ASSERT_TRUE(opened.ok()) << internal::KernelName(k);
    EXPECT_EQ(*opened, pt);
  }
}

TEST(AesGcm, SpecCase16PartialBlocksWithAad) {
  Bytes key = HexDecode(kCase15Key).take();
  Bytes iv = HexDecode(kCase15Iv).take();
  Bytes pt = HexDecode(std::string(kCase15Plaintext).substr(0, 120)).take();
  Bytes aad = HexDecode("feedfacedeadbeeffeedfacedeadbeefabaddad2").take();
  for (Kernel k : AesKernels()) {
    AesGcm gcm(key, k);
    Bytes sealed = gcm.Seal(iv, pt, aad);
    EXPECT_EQ(HexEncode(sealed),
              std::string(kCase15Ciphertext).substr(0, 120) +
                  "76fc6ece0f4e1768cddf8853bb2d551b")
        << internal::KernelName(k);
    auto opened = gcm.Open(iv, sealed, aad);
    ASSERT_TRUE(opened.ok()) << internal::KernelName(k);
    EXPECT_EQ(*opened, pt);
  }
}

TEST(AesGcm, SealOpenRoundTrip) {
  Drbg drbg("gcm-roundtrip", 0);
  Bytes key = drbg.Generate(32);
  AesGcm gcm(key);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    Bytes iv = drbg.Generate(12);
    Bytes pt = drbg.Generate(len);
    Bytes aad = drbg.Generate(len % 31);
    Bytes sealed = gcm.Seal(iv, pt, aad);
    EXPECT_EQ(sealed.size(), len + kGcmTagSize);
    auto opened = gcm.Open(iv, sealed, aad);
    ASSERT_TRUE(opened.ok()) << "len=" << len;
    EXPECT_EQ(*opened, pt);
  }
}

TEST(AesGcm, TamperedCiphertextRejected) {
  Drbg drbg("gcm-tamper", 0);
  Bytes key = drbg.Generate(32);
  Bytes iv = drbg.Generate(12);
  AesGcm gcm(key);
  Bytes sealed = gcm.Seal(iv, ToBytes("attack at dawn"), ToBytes("hdr"));
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(gcm.Open(iv, bad, ToBytes("hdr")).ok()) << "byte " << i;
  }
}

TEST(AesGcm, WrongAadRejected) {
  Bytes key(32, 7);
  Bytes iv(12, 9);
  AesGcm gcm(key);
  Bytes sealed = gcm.Seal(iv, ToBytes("payload"), ToBytes("aad-1"));
  EXPECT_FALSE(gcm.Open(iv, sealed, ToBytes("aad-2")).ok());
  EXPECT_TRUE(gcm.Open(iv, sealed, ToBytes("aad-1")).ok());
}

TEST(AesGcm, WrongIvRejected) {
  Bytes key(32, 7);
  AesGcm gcm(key);
  Bytes iv1(12, 1), iv2(12, 2);
  Bytes sealed = gcm.Seal(iv1, ToBytes("payload"), {});
  EXPECT_FALSE(gcm.Open(iv2, sealed, {}).ok());
}

TEST(AesGcm, WrongKeyRejected) {
  Bytes k1(32, 1), k2(32, 2);
  Bytes iv(12, 0);
  Bytes sealed = AesGcm(k1).Seal(iv, ToBytes("payload"), {});
  EXPECT_FALSE(AesGcm(k2).Open(iv, sealed, {}).ok());
}

TEST(AesGcm, TruncatedBlobRejected) {
  Bytes key(32, 1);
  Bytes iv(12, 0);
  AesGcm gcm(key);
  EXPECT_FALSE(gcm.Open(iv, Bytes(8, 0), {}).ok());
}

}  // namespace
}  // namespace ccf::crypto
