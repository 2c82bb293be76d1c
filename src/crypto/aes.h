// AES-256 block cipher (FIPS 197), implemented from scratch.
//
// The S-box is generated at start-up from its algebraic definition
// (multiplicative inverse in GF(2^8) followed by the FIPS affine transform)
// and validated by unit tests against published known-answer vectors.

#ifndef CCF_CRYPTO_AES_H_
#define CCF_CRYPTO_AES_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/cpu.h"

namespace ccf::crypto {

inline constexpr size_t kAesBlockSize = 16;
inline constexpr size_t kAes256KeySize = 32;

// AES-256 with a fixed expanded key. Encrypt/decrypt single 16-byte blocks.
// EncryptBlock runs on AES-NI when the CPU has it (crypto/cpu.h); the key
// schedule and DecryptBlock are always portable.
class Aes256 {
 public:
  static constexpr int kRounds = 14;

  // key.size() must be 32.
  explicit Aes256(ByteSpan key)
      : Aes256(key, internal::BestAesKernel()) {}
  // Pins one kernel (differential tests, benchmarks). kHardware requires
  // internal::CpuHasAesNi().
  Aes256(ByteSpan key, internal::Kernel kernel);

  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  internal::Kernel kernel() const { return kernel_; }
  // (kRounds + 1) * 16 round-key bytes in FIPS 197 order, which is also the
  // order AESENC loads them in.
  const uint8_t* round_keys() const { return round_keys_; }

 private:
  uint8_t round_keys_[(kRounds + 1) * 16];
  internal::Kernel kernel_;
};

}  // namespace ccf::crypto

#endif  // CCF_CRYPTO_AES_H_
