// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash used throughout the system: Merkle tree nodes (paper §7),
// transaction digests, key fingerprints, and HMAC/HKDF/DRBG below.

#ifndef CCF_CRYPTO_SHA256_H_
#define CCF_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/cpu.h"

namespace ccf::crypto {

inline constexpr size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

// Incremental SHA-256 hasher. Compression runs on the SHA-NI kernel when
// the CPU has it, else on the portable one (crypto/cpu.h).
class Sha256 {
 public:
  Sha256() : Sha256(internal::BestSha256Kernel()) {}
  // Pins one kernel (differential tests, benchmarks). kHardware requires
  // internal::CpuHasShaNi().
  explicit Sha256(internal::Kernel kernel);

  void Reset();
  void Update(ByteSpan data);
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(ByteSpan data) {
    Sha256 h;
    h.Update(data);
    return h.Finish();
  }

  internal::Kernel kernel() const { return kernel_; }

 private:
  void Compress(const uint8_t* block);
  // Compresses `n` consecutive 64-byte blocks starting at `data` with the
  // working state held in locals across blocks. `Update` feeds whole blocks
  // here straight from the caller's span -- only a sub-block head/tail is
  // ever staged through `buf_`.
  void CompressBlocks(const uint8_t* data, size_t n);

  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
  internal::Kernel kernel_;
};

inline Bytes DigestToBytes(const Sha256Digest& d) {
  return Bytes(d.begin(), d.end());
}

}  // namespace ccf::crypto

#endif  // CCF_CRYPTO_SHA256_H_
