// Hardware crypto kernels against the portable code (crypto/cpu.h).
//
// The portable SHA-256, AES and GCM are the oracle: every test here runs
// the same inputs through both kernels and requires byte-identical output.
// On a CPU without the instructions the differential tests skip, and the
// dispatch test checks that the portable kernel was chosen instead.

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/aes.h"
#include "crypto/cpu.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

#ifdef CCF_CRYPTO_X86_KERNELS
#include <cpuid.h>
#endif

namespace ccf::crypto {
namespace {

using internal::Kernel;

struct CpuidFeatures {
  bool sha = false;
  bool aes_gcm = false;
};

// Reads CPUID directly rather than through the probe under test.
CpuidFeatures ReadCpuid() {
  CpuidFeatures f;
#ifdef CCF_CRYPTO_X86_KERNELS
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  f.aes_gcm = sse41 && (ecx & bit_AES) != 0 && (ecx & bit_PCLMUL) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.sha = sse41 && (ebx & bit_SHA) != 0;
  }
#endif
  return f;
}

// A silent fallback to the portable code would still pass every other
// test, so the selection itself is checked against CPUID.
TEST(CryptoDispatch, HardwareKernelSelectedWheneverCpuidReportsIt) {
  const CpuidFeatures cpu = ReadCpuid();
  EXPECT_EQ(internal::CpuHasShaNi(), cpu.sha);
  EXPECT_EQ(internal::CpuHasAesNi(), cpu.aes_gcm);

  const Kernel sha = cpu.sha ? Kernel::kHardware : Kernel::kPortable;
  const Kernel aes = cpu.aes_gcm ? Kernel::kHardware : Kernel::kPortable;
  EXPECT_EQ(Sha256().kernel(), sha);
  Bytes key(32, 0x42);
  EXPECT_EQ(Aes256(key).kernel(), aes);
  EXPECT_EQ(AesGcm(key).kernel(), aes);
}

Sha256Digest HashInChunks(Kernel kernel, ByteSpan msg, size_t chunk) {
  Sha256 h(kernel);
  for (size_t off = 0; off < msg.size(); off += chunk) {
    h.Update(msg.subspan(off, std::min(chunk, msg.size() - off)));
  }
  return h.Finish();
}

class ShaNiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU has no SHA-NI";
  }
};

TEST_F(ShaNiTest, MatchesPortableForAllShortLengths) {
  Drbg drbg("sha-ni-lengths", 0);
  for (size_t len = 0; len <= 300; ++len) {
    Bytes msg = drbg.Generate(len);
    Sha256 portable(Kernel::kPortable), hardware(Kernel::kHardware);
    portable.Update(msg);
    hardware.Update(msg);
    ASSERT_EQ(hardware.Finish(), portable.Finish()) << "len=" << len;
  }
}

TEST_F(ShaNiTest, MatchesPortableAcrossSplitUpdates) {
  Drbg drbg("sha-ni-splits", 0);
  Bytes msg = drbg.Generate(300);
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h(Kernel::kHardware);
    h.Update(ByteSpan(msg).subspan(0, split));
    h.Update(ByteSpan(msg).subspan(split));
    ASSERT_EQ(h.Finish(), HashInChunks(Kernel::kPortable, msg, msg.size()))
        << "split=" << split;
  }
}

TEST_F(ShaNiTest, MatchesPortableOnMultiBlockInputs) {
  Drbg drbg("sha-ni-multiblock", 0);
  for (size_t len : {4096u + 13u, 65536u, 1u << 20}) {
    Bytes msg = drbg.Generate(len);
    const Sha256Digest expect = HashInChunks(Kernel::kPortable, msg, len);
    for (size_t chunk : {1u, 63u, 64u, 65u, 1000u, 4096u}) {
      if (len > 65536 && chunk < 64) continue;  // keeps the test fast
      ASSERT_EQ(HashInChunks(Kernel::kHardware, msg, chunk), expect)
          << "len=" << len << " chunk=" << chunk;
    }
  }
}

class AesNiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::CpuHasAesNi()) GTEST_SKIP() << "CPU has no AES-NI/CLMUL";
  }
};

TEST_F(AesNiTest, BlockEncryptMatchesPortable) {
  Drbg drbg("aes-ni-block", 0);
  for (int i = 0; i < 200; ++i) {
    Bytes key = drbg.Generate(32);
    Bytes block = drbg.Generate(16);
    uint8_t hw[16], sw[16];
    Aes256(key, Kernel::kHardware).EncryptBlock(block.data(), hw);
    Aes256(key, Kernel::kPortable).EncryptBlock(block.data(), sw);
    ASSERT_EQ(Bytes(hw, hw + 16), Bytes(sw, sw + 16)) << "i=" << i;
  }
}

// Plaintext lengths 0..257 cross the 8-block CTR batch (128 bytes) and the
// 4-block GHASH fold (64 bytes) with every tail length; AAD lengths 0..40
// cover empty, partial, whole and multi-block AAD.
TEST_F(AesNiTest, GcmSealMatchesPortableAndOpensOnBothPaths) {
  Drbg drbg("aes-ni-gcm", 0);
  Bytes key = drbg.Generate(32);
  AesGcm hardware(key, Kernel::kHardware), portable(key, Kernel::kPortable);
  for (size_t len = 0; len <= 257; ++len) {
    for (size_t aad_len = 0; aad_len <= 40; ++aad_len) {
      Bytes iv = drbg.Generate(12);
      Bytes pt = drbg.Generate(len);
      Bytes aad = drbg.Generate(aad_len);
      Bytes sealed = hardware.Seal(iv, pt, aad);
      ASSERT_EQ(sealed, portable.Seal(iv, pt, aad))
          << "len=" << len << " aad=" << aad_len;
      auto by_portable = portable.Open(iv, sealed, aad);
      auto by_hardware = hardware.Open(iv, sealed, aad);
      ASSERT_TRUE(by_portable.ok() && by_hardware.ok())
          << "len=" << len << " aad=" << aad_len;
      ASSERT_EQ(*by_hardware, pt);
      ASSERT_EQ(*by_portable, pt);
    }
  }
}

TEST_F(AesNiTest, GcmMatchesPortableOnLargeInputs) {
  Drbg drbg("aes-ni-gcm-large", 0);
  Bytes key = drbg.Generate(32);
  AesGcm hardware(key, Kernel::kHardware), portable(key, Kernel::kPortable);
  for (size_t len : {1000u, 4099u, 65536u + 7u}) {
    Bytes iv = drbg.Generate(12);
    Bytes pt = drbg.Generate(len);
    Bytes aad = drbg.Generate(len % 97);
    Bytes sealed = hardware.Seal(iv, pt, aad);
    ASSERT_EQ(sealed, portable.Seal(iv, pt, aad)) << "len=" << len;
    auto opened = hardware.Open(iv, sealed, aad);
    ASSERT_TRUE(opened.ok()) << "len=" << len;
    EXPECT_EQ(*opened, pt);
  }
}

TEST_F(AesNiTest, TamperAndWrongAadRejectedOnBothPaths) {
  Drbg drbg("aes-ni-gcm-tamper", 0);
  Bytes key = drbg.Generate(32);
  for (Kernel k : {Kernel::kPortable, Kernel::kHardware}) {
    AesGcm gcm(key, k);
    for (size_t len : {0u, 1u, 16u, 63u, 64u, 129u}) {
      Bytes iv = drbg.Generate(12);
      Bytes aad = drbg.Generate(len % 23 + 1);
      Bytes sealed = gcm.Seal(iv, drbg.Generate(len), aad);
      for (size_t i = 0; i < sealed.size(); ++i) {
        Bytes bad = sealed;
        bad[i] ^= 0x80;
        EXPECT_FALSE(gcm.Open(iv, bad, aad).ok())
            << internal::KernelName(k) << " len=" << len << " byte " << i;
      }
      Bytes wrong_aad = aad;
      wrong_aad.back() ^= 0x01;
      EXPECT_FALSE(gcm.Open(iv, sealed, wrong_aad).ok())
          << internal::KernelName(k) << " len=" << len;
      EXPECT_FALSE(gcm.Open(iv, sealed, {}).ok())
          << internal::KernelName(k) << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace ccf::crypto
