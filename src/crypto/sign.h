// Schnorr signatures over edwards25519 (Ed25519-shaped), ECDH key agreement,
// and ECIES public-key encryption.
//
// These stand in for the paper's Ed25519/ECDSA service & node identities
// (Table 1), Diffie-Hellman node-to-node channel keys (§7), and the RSA-OAEP
// encryption of recovery shares to members' public keys (§5.2).

#ifndef CCF_CRYPTO_SIGN_H_
#define CCF_CRYPTO_SIGN_H_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/ec25519.h"
#include "crypto/hmac.h"

namespace ccf::crypto {

inline constexpr size_t kPublicKeySize = ec::kPointSize;
inline constexpr size_t kSignatureSize = 64;  // enc(R) || s

using PublicKeyBytes = std::array<uint8_t, kPublicKeySize>;
using SignatureBytes = std::array<uint8_t, kSignatureSize>;

// Verifies `sig` over `msg` under `pub`. Statelessly usable by anyone
// holding the 32-byte public key.
bool Verify(ByteSpan pub, ByteSpan msg, ByteSpan sig);

// One signature to be checked by VerifyBatch. Spans must stay valid for the
// duration of the call.
struct BatchVerifyItem {
  ByteSpan pub;  // 32-byte public key
  ByteSpan msg;
  ByteSpan sig;  // 64-byte signature
};

// Random-linear-combination batch verification: instead of k independent
// `s_i*B == R_i + k_i*A_i` checks, draws random 128-bit combiner scalars
// z_i from `drbg` and checks the single multi-scalar equation
//   (sum z_i*s_i)*B + sum z_i*(-R_i) + sum (z_i*k_i)*(-A_i) == identity,
// evaluated with ec::MultiScalarMultWithBase. A forgery passes with probability
// <= 2^-128 over the combiners. Pass a deterministically seeded DRBG in
// simulation so replays draw identical combiners.
//
// Returns true iff every signature verifies. If `ok_out` is non-null it is
// resized to items.size() with the per-item verdict; when the combined
// equation fails, the batch falls back to per-signature verification to
// pinpoint the culprits (so the fast path is only fast when everything is
// honest -- the common case).
bool VerifyBatch(std::span<const BatchVerifyItem> items, Drbg* drbg,
                 std::vector<bool>* ok_out = nullptr);

// A signing/DH key pair. Derives deterministically from a 32-byte seed so
// that simulated enclaves are reproducible.
class KeyPair {
 public:
  // Generates from a DRBG.
  static KeyPair Generate(Drbg* drbg);
  // Derives from a fixed seed (deterministic; used by tests/simulation).
  static KeyPair FromSeed(ByteSpan seed);

  const PublicKeyBytes& public_key() const { return public_key_; }

  // Schnorr signature: enc(R) || s, 64 bytes. Deterministic nonce derived
  // from the secret and the message.
  SignatureBytes Sign(ByteSpan msg) const;

  // ECDH: shared secret = HKDF(enc(scalar * peer_point)). 32 bytes.
  Result<Bytes> DeriveSharedSecret(ByteSpan peer_public) const;

  // ECIES decryption of a blob produced by EciesSeal against our key.
  Result<Bytes> EciesOpen(ByteSpan sealed) const;

  // Serialization of the secret seed (for tests / local persistence only;
  // real CCF keys never leave the enclave).
  const std::array<uint8_t, 32>& seed() const { return seed_; }

 private:
  KeyPair() = default;

  std::array<uint8_t, 32> seed_{};
  ec::Scalar secret_{};
  std::array<uint8_t, 32> nonce_key_{};
  PublicKeyBytes public_key_{};
};

// ECIES: encrypts `plaintext` to the holder of `recipient_pub`.
// Output: enc(ephemeral_pub) || AES-256-GCM(iv=0, plaintext).
Result<Bytes> EciesSeal(ByteSpan recipient_pub, ByteSpan plaintext,
                        Drbg* drbg);

}  // namespace ccf::crypto

#endif  // CCF_CRYPTO_SIGN_H_
