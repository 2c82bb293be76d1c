#include "crypto/sign.h"

#include <cstring>

#include "crypto/gcm.h"
#include "crypto/sha512.h"

namespace ccf::crypto {

namespace {

ec::Scalar HashToScalar(ByteSpan a, ByteSpan b, ByteSpan c) {
  Sha512 h;
  h.Update(a);
  h.Update(b);
  h.Update(c);
  Sha512Digest d = h.Finish();
  return ec::ScalarReduce(ByteSpan(d.data(), d.size()));
}

}  // namespace

KeyPair KeyPair::FromSeed(ByteSpan seed) {
  KeyPair kp;
  Bytes s(seed.begin(), seed.end());
  s.resize(32, 0);
  std::memcpy(kp.seed_.data(), s.data(), 32);

  // Expand the seed into the signing scalar and the nonce key, Ed25519-style.
  Sha512Digest expanded = Sha512::Hash(ByteSpan(kp.seed_.data(), 32));
  kp.secret_ = ec::ScalarReduce(ByteSpan(expanded.data(), 32));
  std::memcpy(kp.nonce_key_.data(), expanded.data() + 32, 32);

  ec::Point pub = ec::ScalarMultBase(kp.secret_);
  kp.public_key_ = ec::Encode(pub);
  return kp;
}

KeyPair KeyPair::Generate(Drbg* drbg) {
  Bytes seed = drbg->Generate(32);
  return FromSeed(seed);
}

SignatureBytes KeyPair::Sign(ByteSpan msg) const {
  // Deterministic nonce r = H(nonce_key || msg) mod l.
  ec::Scalar r = HashToScalar(ByteSpan(nonce_key_.data(), 32), msg, {});
  ec::Point big_r = ec::ScalarMultBase(r);
  auto r_enc = ec::Encode(big_r);

  // Challenge k = H(enc(R) || enc(A) || msg) mod l.
  ec::Scalar k = HashToScalar(ByteSpan(r_enc.data(), 32),
                              ByteSpan(public_key_.data(), 32), msg);

  // s = r + k * secret mod l.
  ec::Scalar s = ec::ScalarMulAdd(k, secret_, r);

  SignatureBytes sig{};
  std::memcpy(sig.data(), r_enc.data(), 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

bool Verify(ByteSpan pub, ByteSpan msg, ByteSpan sig) {
  if (pub.size() != kPublicKeySize || sig.size() != kSignatureSize) {
    return false;
  }
  auto r_result = ec::Decode(sig.subspan(0, 32));
  if (!r_result.ok()) return false;
  auto a_result = ec::Decode(pub);
  if (!a_result.ok()) return false;

  ec::Scalar s{};
  std::memcpy(s.data(), sig.data() + 32, 32);
  if (!ec::ScalarIsCanonical(s)) return false;

  ec::Scalar k = HashToScalar(sig.subspan(0, 32), pub, msg);

  // Check s*B == R + k*A as s*B - k*A == R: one double-scalar
  // multiplication, compared projectively with the decoded R.
  const ec::Point neg_a = ec::Negate(a_result.value());
  ec::Point sb_minus_ka =
      ec::MultiScalarMultWithBase(s, std::span<const ec::Scalar>(&k, 1),
                                  std::span<const ec::Point>(&neg_a, 1));
  return ec::PointEqual(sb_minus_ka, r_result.value());
}

bool VerifyBatch(std::span<const BatchVerifyItem> items, Drbg* drbg,
                 std::vector<bool>* ok_out) {
  const size_t n = items.size();
  if (ok_out != nullptr) {
    ok_out->assign(n, true);
  }
  if (n == 0) return true;

  // Decode phase. Items that fail decoding/canonicality checks can never
  // verify; they are marked failed up front and excluded from the combined
  // equation so one malformed signature doesn't force the whole batch onto
  // the serial fallback path.
  struct Decoded {
    size_t index;
    ec::Point r;
    ec::Point a;
    ec::Scalar s;
    ec::Scalar k;
  };
  std::vector<Decoded> valid;
  valid.reserve(n);
  bool all_ok = true;
  for (size_t i = 0; i < n; ++i) {
    const BatchVerifyItem& it = items[i];
    bool ok = it.pub.size() == kPublicKeySize && it.sig.size() == kSignatureSize;
    Decoded d;
    d.index = i;
    if (ok) {
      auto r_result = ec::Decode(it.sig.subspan(0, 32));
      auto a_result = ec::Decode(it.pub);
      std::memcpy(d.s.data(), it.sig.data() + 32, 32);
      ok = r_result.ok() && a_result.ok() && ec::ScalarIsCanonical(d.s);
      if (ok) {
        d.r = r_result.value();
        d.a = a_result.value();
        d.k = HashToScalar(it.sig.subspan(0, 32), it.pub, it.msg);
        valid.push_back(d);
      }
    }
    if (!ok) {
      all_ok = false;
      if (ok_out != nullptr) (*ok_out)[i] = false;
    }
  }
  if (valid.empty()) return all_ok;

  // Combined equation with fresh random 128-bit combiners:
  //   S*B + sum z_i*(-R_i) + sum (z_i*k_i)*(-A_i) == identity,
  // where S = sum z_i*s_i mod l; the S*B term uses the fixed base table.
  const ec::Scalar kZero{};
  std::vector<ec::Scalar> scalars;
  std::vector<ec::Point> points;
  scalars.reserve(2 * valid.size());
  points.reserve(2 * valid.size());
  ec::Scalar sum_zs = kZero;
  for (const Decoded& d : valid) {
    Bytes zb = drbg->Generate(16);
    ec::Scalar z{};
    std::memcpy(z.data(), zb.data(), 16);
    if (ec::ScalarIsZero(z)) z[0] = 1;
    sum_zs = ec::ScalarMulAdd(z, d.s, sum_zs);
    scalars.push_back(z);
    points.push_back(ec::Negate(d.r));
    scalars.push_back(ec::ScalarMulAdd(z, d.k, kZero));
    points.push_back(ec::Negate(d.a));
  }

  if (ec::IsIdentity(ec::MultiScalarMultWithBase(sum_zs, scalars, points))) {
    return all_ok;
  }

  // The combined check failed: at least one signature is bad. Fall back to
  // per-signature verification to pinpoint which.
  for (const Decoded& d : valid) {
    const BatchVerifyItem& it = items[d.index];
    if (!Verify(it.pub, it.msg, it.sig)) {
      all_ok = false;
      if (ok_out != nullptr) (*ok_out)[d.index] = false;
    }
  }
  return all_ok;
}

Result<Bytes> KeyPair::DeriveSharedSecret(ByteSpan peer_public) const {
  ASSIGN_OR_RETURN(ec::Point peer, ec::Decode(peer_public));
  ec::Point shared = ec::ScalarMult(secret_, peer);
  if (ec::IsIdentity(shared)) {
    return Status::InvalidArgument("dh: degenerate shared point");
  }
  auto enc = ec::Encode(shared);
  return Hkdf(ByteSpan(enc.data(), enc.size()), ToBytes("ccf.dh.v1"), {}, 32);
}

Result<Bytes> EciesSeal(ByteSpan recipient_pub, ByteSpan plaintext,
                        Drbg* drbg) {
  KeyPair ephemeral = KeyPair::Generate(drbg);
  ASSIGN_OR_RETURN(Bytes key, ephemeral.DeriveSharedSecret(recipient_pub));
  AesGcm gcm(key);
  // A fresh key is derived per message (fresh ephemeral), so a zero IV is
  // safe here.
  uint8_t iv[kGcmIvSize] = {0};
  Bytes sealed = gcm.Seal(ByteSpan(iv, sizeof(iv)), plaintext,
                          ByteSpan(ephemeral.public_key()));
  Bytes out(ephemeral.public_key().begin(), ephemeral.public_key().end());
  Append(&out, sealed);
  return out;
}

Result<Bytes> KeyPair::EciesOpen(ByteSpan sealed) const {
  if (sealed.size() < kPublicKeySize + kGcmTagSize) {
    return Status::Corruption("ecies: blob too short");
  }
  ByteSpan eph_pub = sealed.subspan(0, kPublicKeySize);
  ASSIGN_OR_RETURN(Bytes key, DeriveSharedSecret(eph_pub));
  AesGcm gcm(key);
  uint8_t iv[kGcmIvSize] = {0};
  return gcm.Open(ByteSpan(iv, sizeof(iv)), sealed.subspan(kPublicKeySize),
                  eph_pub);
}

}  // namespace ccf::crypto
