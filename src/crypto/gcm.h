// AES-256-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the cipher protecting private-map updates on the ledger (the
// "ledger secret", paper Table 1), node-to-node channel payloads, STLS
// session records, and the simulated SGX memory-encryption boundary.

#ifndef CCF_CRYPTO_GCM_H_
#define CCF_CRYPTO_GCM_H_

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"

namespace ccf::crypto {

inline constexpr size_t kGcmIvSize = 12;
inline constexpr size_t kGcmTagSize = 16;

// AES-256-GCM with a fixed key. Thread-compatible (const methods only
// after construction). Runs on AES-NI + PCLMULQDQ when the CPU has them,
// else on the portable T-table AES and 4-bit-table GHASH (crypto/cpu.h).
class AesGcm {
 public:
  explicit AesGcm(ByteSpan key) : AesGcm(key, internal::BestAesKernel()) {}
  // Pins one kernel (differential tests, benchmarks). kHardware requires
  // internal::CpuHasAesNi().
  AesGcm(ByteSpan key, internal::Kernel kernel);

  // Encrypts `plaintext` with `iv` (12 bytes) and additional authenticated
  // data `aad`. Output is ciphertext || 16-byte tag.
  Bytes Seal(ByteSpan iv, ByteSpan plaintext, ByteSpan aad) const;

  // Reverses Seal. Fails with CORRUPTION if the tag does not verify.
  Result<Bytes> Open(ByteSpan iv, ByteSpan sealed, ByteSpan aad) const;

  internal::Kernel kernel() const { return aes_.kernel(); }

 private:
  void Ghash(ByteSpan aad, ByteSpan ciphertext, uint8_t out[16]) const;
  void CtrCrypt(const uint8_t j0[16], ByteSpan in, uint8_t* out) const;

  void GMultH(uint64_t* hi, uint64_t* lo) const;

  Aes256 aes_;
  uint8_t h_[16];  // GHASH subkey: E(K, 0^128).
  // Shoup 4-bit tables for GHASH: ht_[j] = (j << 124-bit position) * H,
  // derived at key setup from the bit-serial multiply; r4_ reduces the 4
  // bits shifted out by a *x^4 step. Portable kernel only.
  uint64_t ht_hi_[16] = {};
  uint64_t ht_lo_[16] = {};
  uint64_t r4_[16] = {};
  // Hardware kernel only: H, H^2, H^3, H^4 byte-reflected, so the GHASH
  // loop folds four blocks per reduction.
  uint8_t h_pow_[4][16] = {};
};

}  // namespace ccf::crypto

#endif  // CCF_CRYPTO_GCM_H_
