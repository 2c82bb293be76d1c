#include "crypto/gcm.h"

#include <cassert>
#include <cstring>

#ifdef CCF_CRYPTO_X86_KERNELS
#include <immintrin.h>
#endif

namespace ccf::crypto {

namespace {

// GF(2^128) multiplication per SP 800-38D §6.3 (bit-reflected convention).
// Operands and result are 16-byte big-endian blocks.
void GfMul128(const uint8_t x[16], const uint8_t y[16], uint8_t out[16]) {
  uint64_t v_hi = 0, v_lo = 0;
  for (int i = 0; i < 8; ++i) v_hi = (v_hi << 8) | y[i];
  for (int i = 8; i < 16; ++i) v_lo = (v_lo << 8) | y[i];

  uint64_t z_hi = 0, z_lo = 0;
  for (int i = 0; i < 128; ++i) {
    int byte = i / 8;
    int bit = 7 - (i % 8);
    if ((x[byte] >> bit) & 1) {
      z_hi ^= v_hi;
      z_lo ^= v_lo;
    }
    bool lsb = (v_lo & 1) != 0;
    v_lo = (v_lo >> 1) | (v_hi << 63);
    v_hi >>= 1;
    if (lsb) v_hi ^= 0xe100000000000000ULL;
  }
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(z_hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i) out[8 + i] = static_cast<uint8_t>(z_lo >> (56 - 8 * i));
}

void Inc32(uint8_t block[16]) {
  for (int i = 15; i >= 12; --i) {
    if (++block[i] != 0) break;
  }
}

void PutBe64(uint64_t v, uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
}

#ifdef CCF_CRYPTO_X86_KERNELS
// Hardware kernels: AES-NI counter mode with eight blocks in flight, and
// PCLMULQDQ GHASH in the byte-reflected representation of the Intel
// carry-less multiplication white paper (Gueron & Kounavis), folding four
// blocks per reduction with precomputed H..H^4.
#define CCF_GCM_TARGET __attribute__((target("aes,pclmul,sse4.1")))

CCF_GCM_TARGET inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

CCF_GCM_TARGET inline void Store128(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

CCF_GCM_TARGET inline __m128i ByteReverse(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

// Accumulates the unreduced 256-bit carry-less product a*b as
// (lo, mid, hi), mid still to be split across the two halves.
CCF_GCM_TARGET inline void ClmulAdd(__m128i a, __m128i b, __m128i* lo,
                                    __m128i* mid, __m128i* hi) {
  *lo = _mm_xor_si128(*lo, _mm_clmulepi64_si128(a, b, 0x00));
  *hi = _mm_xor_si128(*hi, _mm_clmulepi64_si128(a, b, 0x11));
  *mid = _mm_xor_si128(*mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x01),
                                           _mm_clmulepi64_si128(a, b, 0x10)));
}

// Splits mid, shifts the 256-bit product left by one bit (the reflected
// operands leave it one bit short) and reduces modulo
// x^128 + x^7 + x^2 + x + 1. Linear, so the sum of several products can be
// reduced once.
CCF_GCM_TARGET inline __m128i Reduce(__m128i lo, __m128i mid, __m128i hi) {
  lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));

  __m128i lo_carry = _mm_srli_epi32(lo, 31);
  __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  __m128i cross = _mm_srli_si128(lo_carry, 12);
  lo = _mm_or_si128(lo, _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(hi, _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, cross);

  __m128i a = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  __m128i a_hi = _mm_srli_si128(a, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
  __m128i b = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), a_hi));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, b));
}

CCF_GCM_TARGET inline __m128i GfMulReflected(__m128i a, __m128i b) {
  __m128i lo = _mm_setzero_si128(), mid = lo, hi = lo;
  ClmulAdd(a, b, &lo, &mid, &hi);
  return Reduce(lo, mid, hi);
}

CCF_GCM_TARGET void HashPowersHw(const uint8_t h[16], uint8_t out[4][16]) {
  const __m128i h1 = ByteReverse(Load128(h));
  __m128i p = h1;
  Store128(out[0], p);
  for (int i = 1; i < 4; ++i) {
    p = GfMulReflected(p, h1);
    Store128(out[i], p);
  }
}

// Absorbs `len` bytes into the reflected GHASH state `x`, zero-padding a
// final partial block. hp = {H, H^2, H^3, H^4}, reflected.
CCF_GCM_TARGET __m128i GhashAbsorbHw(__m128i x, const __m128i hp[4],
                                     const uint8_t* p, size_t len) {
  for (; len >= 64; p += 64, len -= 64) {
    __m128i lo = _mm_setzero_si128(), mid = lo, hi = lo;
    ClmulAdd(_mm_xor_si128(x, ByteReverse(Load128(p))), hp[3], &lo, &mid,
             &hi);
    ClmulAdd(ByteReverse(Load128(p + 16)), hp[2], &lo, &mid, &hi);
    ClmulAdd(ByteReverse(Load128(p + 32)), hp[1], &lo, &mid, &hi);
    ClmulAdd(ByteReverse(Load128(p + 48)), hp[0], &lo, &mid, &hi);
    x = Reduce(lo, mid, hi);
  }
  for (; len >= 16; p += 16, len -= 16) {
    x = GfMulReflected(_mm_xor_si128(x, ByteReverse(Load128(p))), hp[0]);
  }
  if (len > 0) {
    uint8_t block[16] = {0};
    std::memcpy(block, p, len);
    x = GfMulReflected(_mm_xor_si128(x, ByteReverse(Load128(block))), hp[0]);
  }
  return x;
}

CCF_GCM_TARGET void GhashHw(const uint8_t h_pow[4][16], ByteSpan aad,
                            ByteSpan ciphertext, uint8_t out[16]) {
  const __m128i hp[4] = {Load128(h_pow[0]), Load128(h_pow[1]),
                         Load128(h_pow[2]), Load128(h_pow[3])};
  __m128i x = _mm_setzero_si128();
  x = GhashAbsorbHw(x, hp, aad.data(), aad.size());
  x = GhashAbsorbHw(x, hp, ciphertext.data(), ciphertext.size());
  uint8_t lens[16];
  PutBe64(aad.size() * 8, lens);
  PutBe64(ciphertext.size() * 8, lens + 8);
  x = GhashAbsorbHw(x, hp, lens, 16);
  Store128(out, ByteReverse(x));
}

// The GCM counter block: the IV's first 12 bytes, then `ctr` big-endian.
CCF_GCM_TARGET inline __m128i CounterBlock(__m128i j0, uint32_t ctr) {
  return _mm_insert_epi32(j0, static_cast<int>(__builtin_bswap32(ctr)), 3);
}

constexpr int kCtrLanes = 8;

// Encrypts the counter blocks ctr+1 .. ctr+kCtrLanes into `ks`. The lanes
// are independent, so their AESENC chains overlap.
CCF_GCM_TARGET inline void Keystream(const __m128i rk[Aes256::kRounds + 1],
                                     __m128i j0, uint32_t ctr,
                                     __m128i ks[kCtrLanes]) {
#pragma GCC unroll 8
  for (int i = 0; i < kCtrLanes; ++i) {
    ks[i] = _mm_xor_si128(CounterBlock(j0, ctr + 1 + i), rk[0]);
  }
  for (int r = 1; r < Aes256::kRounds; ++r) {
#pragma GCC unroll 8
    for (int i = 0; i < kCtrLanes; ++i) ks[i] = _mm_aesenc_si128(ks[i], rk[r]);
  }
#pragma GCC unroll 8
  for (int i = 0; i < kCtrLanes; ++i) {
    ks[i] = _mm_aesenclast_si128(ks[i], rk[Aes256::kRounds]);
  }
}

CCF_GCM_TARGET void CtrCryptHw(const uint8_t* round_keys,
                               const uint8_t j0[16], ByteSpan in,
                               uint8_t* out) {
  constexpr size_t kChunk = 16 * kCtrLanes;
  __m128i rk[Aes256::kRounds + 1];
  for (int r = 0; r <= Aes256::kRounds; ++r) {
    rk[r] = Load128(round_keys + 16 * r);
  }
  const __m128i base = Load128(j0);
  uint32_t ctr = (static_cast<uint32_t>(j0[12]) << 24) |
                 (static_cast<uint32_t>(j0[13]) << 16) |
                 (static_cast<uint32_t>(j0[14]) << 8) |
                 static_cast<uint32_t>(j0[15]);
  const uint8_t* src = in.data();
  size_t len = in.size();
  __m128i ks[kCtrLanes];
  for (; len >= kChunk; src += kChunk, out += kChunk, len -= kChunk) {
    Keystream(rk, base, ctr, ks);
    ctr += kCtrLanes;
#pragma GCC unroll 8
    for (int i = 0; i < kCtrLanes; ++i) {
      Store128(out + 16 * i, _mm_xor_si128(ks[i], Load128(src + 16 * i)));
    }
  }
  if (len == 0) return;
  // The tail (up to kChunk - 1 bytes) takes one more full batch: the
  // lanes run in parallel, so this costs about as much as one block.
  Keystream(rk, base, ctr, ks);
  int i = 0;
  for (; len >= 16; src += 16, out += 16, len -= 16, ++i) {
    Store128(out, _mm_xor_si128(ks[i], Load128(src)));
  }
  if (len > 0) {
    uint8_t last[16];
    Store128(last, ks[i]);
    for (size_t j = 0; j < len; ++j) out[j] = src[j] ^ last[j];
  }
}

#undef CCF_GCM_TARGET
#endif  // CCF_CRYPTO_X86_KERNELS

}  // namespace

AesGcm::AesGcm(ByteSpan key, internal::Kernel kernel) : aes_(key, kernel) {
  uint8_t zero[16] = {0};
  aes_.EncryptBlock(zero, h_);
#ifdef CCF_CRYPTO_X86_KERNELS
  if (kernel == internal::Kernel::kHardware) {
    HashPowersHw(h_, h_pow_);
    return;
  }
#endif

  // Htable[j] = (4-bit value j in the leading nibble) * H, via the
  // (slow, known-correct) bit-serial multiply.
  for (int j = 0; j < 16; ++j) {
    uint8_t x[16] = {0};
    x[0] = static_cast<uint8_t>(j << 4);
    uint8_t out[16];
    GfMul128(x, h_, out);
    uint64_t hi = 0, lo = 0;
    for (int i = 0; i < 8; ++i) hi = (hi << 8) | out[i];
    for (int i = 8; i < 16; ++i) lo = (lo << 8) | out[i];
    ht_hi_[j] = hi;
    ht_lo_[j] = lo;
  }
  // r4_[rem] = reduction term for shifting rem (4 bits) off the low end,
  // derived from four single-bit shifts.
  for (int rem = 0; rem < 16; ++rem) {
    uint64_t hi = 0, lo = static_cast<uint64_t>(rem);
    for (int k = 0; k < 4; ++k) {
      bool lsb = (lo & 1) != 0;
      lo = (lo >> 1) | (hi << 63);
      hi >>= 1;
      if (lsb) hi ^= 0xe100000000000000ULL;
    }
    r4_[rem] = hi;
  }
}

// Multiplies (hi, lo) by H using the 4-bit tables (Shoup's method):
// Horner over the 32 nibbles, highest position first.
void AesGcm::GMultH(uint64_t* io_hi, uint64_t* io_lo) const {
  uint64_t x_hi = *io_hi, x_lo = *io_lo;
  // Nibble at position p (p=0: leading nibble of byte 0).
  auto nibble = [&](int p) -> int {
    uint64_t word = p < 16 ? x_hi : x_lo;
    int shift = 60 - 4 * (p & 15);
    return static_cast<int>((word >> shift) & 0xF);
  };
  int n = nibble(31);
  uint64_t z_hi = ht_hi_[n], z_lo = ht_lo_[n];
  for (int p = 30; p >= 0; --p) {
    uint64_t rem = z_lo & 0xF;
    z_lo = (z_lo >> 4) | (z_hi << 60);
    z_hi = (z_hi >> 4) ^ r4_[rem];
    n = nibble(p);
    z_hi ^= ht_hi_[n];
    z_lo ^= ht_lo_[n];
  }
  *io_hi = z_hi;
  *io_lo = z_lo;
}

void AesGcm::Ghash(ByteSpan aad, ByteSpan ciphertext, uint8_t out[16]) const {
#ifdef CCF_CRYPTO_X86_KERNELS
  if (kernel() == internal::Kernel::kHardware) {
    GhashHw(h_pow_, aad, ciphertext, out);
    return;
  }
#endif
  uint64_t y_hi = 0, y_lo = 0;
  auto absorb = [&](ByteSpan data) {
    for (size_t off = 0; off < data.size(); off += 16) {
      uint8_t block[16] = {0};
      size_t n = std::min<size_t>(16, data.size() - off);
      std::memcpy(block, data.data() + off, n);
      uint64_t b_hi = 0, b_lo = 0;
      for (int i = 0; i < 8; ++i) b_hi = (b_hi << 8) | block[i];
      for (int i = 8; i < 16; ++i) b_lo = (b_lo << 8) | block[i];
      y_hi ^= b_hi;
      y_lo ^= b_lo;
      GMultH(&y_hi, &y_lo);
    }
  };
  absorb(aad);
  absorb(ciphertext);
  uint8_t lens[16];
  PutBe64(aad.size() * 8, lens);
  PutBe64(ciphertext.size() * 8, lens + 8);
  absorb(ByteSpan(lens, 16));
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(y_hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i) out[8 + i] = static_cast<uint8_t>(y_lo >> (56 - 8 * i));
}

void AesGcm::CtrCrypt(const uint8_t j0[16], ByteSpan in, uint8_t* out) const {
#ifdef CCF_CRYPTO_X86_KERNELS
  if (kernel() == internal::Kernel::kHardware) {
    CtrCryptHw(aes_.round_keys(), j0, in, out);
    return;
  }
#endif
  uint8_t ctr[16];
  std::memcpy(ctr, j0, 16);
  for (size_t off = 0; off < in.size(); off += 16) {
    Inc32(ctr);
    uint8_t keystream[16];
    aes_.EncryptBlock(ctr, keystream);
    size_t n = std::min<size_t>(16, in.size() - off);
    for (size_t i = 0; i < n; ++i) {
      out[off + i] = in[off + i] ^ keystream[i];
    }
  }
}

Bytes AesGcm::Seal(ByteSpan iv, ByteSpan plaintext, ByteSpan aad) const {
  assert(iv.size() == kGcmIvSize);
  uint8_t j0[16] = {0};
  std::memcpy(j0, iv.data(), 12);
  j0[15] = 1;

  Bytes out(plaintext.size() + kGcmTagSize);
  CtrCrypt(j0, plaintext, out.data());

  uint8_t s[16];
  Ghash(aad, ByteSpan(out.data(), plaintext.size()), s);
  uint8_t ek_j0[16];
  aes_.EncryptBlock(j0, ek_j0);
  for (int i = 0; i < 16; ++i) {
    out[plaintext.size() + i] = s[i] ^ ek_j0[i];
  }
  return out;
}

Result<Bytes> AesGcm::Open(ByteSpan iv, ByteSpan sealed, ByteSpan aad) const {
  if (iv.size() != kGcmIvSize) {
    return Status::InvalidArgument("gcm: bad IV size");
  }
  if (sealed.size() < kGcmTagSize) {
    return Status::Corruption("gcm: ciphertext shorter than tag");
  }
  size_t ct_len = sealed.size() - kGcmTagSize;
  ByteSpan ciphertext = sealed.subspan(0, ct_len);
  ByteSpan tag = sealed.subspan(ct_len);

  uint8_t j0[16] = {0};
  std::memcpy(j0, iv.data(), 12);
  j0[15] = 1;

  uint8_t s[16];
  Ghash(aad, ciphertext, s);
  uint8_t ek_j0[16];
  aes_.EncryptBlock(j0, ek_j0);
  uint8_t expected[16];
  for (int i = 0; i < 16; ++i) expected[i] = s[i] ^ ek_j0[i];
  if (!ConstantTimeEqual(ByteSpan(expected, 16), tag)) {
    return Status::Corruption("gcm: authentication tag mismatch");
  }

  Bytes out(ct_len);
  CtrCrypt(j0, ciphertext, out.data());
  return out;
}

}  // namespace ccf::crypto
