#include "crypto/aes.h"

#include <cassert>
#include <cstring>

#ifdef CCF_CRYPTO_X86_KERNELS
#include <immintrin.h>
#endif

namespace ccf::crypto {

namespace {

// GF(2^8) multiplication with the AES reduction polynomial x^8+x^4+x^3+x+1.
uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    bool hi = (a & 0x80) != 0;
    a <<= 1;
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

struct SBoxes {
  uint8_t fwd[256];
  uint8_t inv[256];
  // T-tables for the encryption rounds: te[0][x] packs the MixColumns
  // column (2s, s, s, 3s) for s = S(x); te[1..3] are byte rotations.
  uint32_t te[4][256];
};

// FIPS 197 §5.1.1: S-box = affine transform of the multiplicative inverse.
SBoxes BuildSBoxes() {
  SBoxes s{};
  // Build inverses via exhaustive product search (256^2 at start-up).
  uint8_t inverse[256] = {0};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (GfMul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) == 1) {
        inverse[a] = static_cast<uint8_t>(b);
        break;
      }
    }
  }
  for (int x = 0; x < 256; ++x) {
    uint8_t b = inverse[x];
    uint8_t y = 0;
    for (int i = 0; i < 8; ++i) {
      uint8_t bit = static_cast<uint8_t>(
          ((b >> i) & 1) ^ ((b >> ((i + 4) % 8)) & 1) ^
          ((b >> ((i + 5) % 8)) & 1) ^ ((b >> ((i + 6) % 8)) & 1) ^
          ((b >> ((i + 7) % 8)) & 1) ^ ((0x63 >> i) & 1));
      y |= static_cast<uint8_t>(bit << i);
    }
    s.fwd[x] = y;
    s.inv[y] = static_cast<uint8_t>(x);
  }
  for (int x = 0; x < 256; ++x) {
    uint8_t sb = s.fwd[x];
    uint32_t t = (static_cast<uint32_t>(GfMul(sb, 2)) << 24) |
                 (static_cast<uint32_t>(sb) << 16) |
                 (static_cast<uint32_t>(sb) << 8) |
                 static_cast<uint32_t>(GfMul(sb, 3));
    s.te[0][x] = t;
    s.te[1][x] = (t >> 8) | (t << 24);
    s.te[2][x] = (t >> 16) | (t << 16);
    s.te[3][x] = (t >> 24) | (t << 8);
  }
  return s;
}

const SBoxes& GetSBoxes() {
  static const SBoxes s = BuildSBoxes();
  return s;
}

#ifdef CCF_CRYPTO_X86_KERNELS
__attribute__((target("aes,sse4.1"))) void EncryptBlockAesNi(
    const uint8_t* round_keys, const uint8_t in[16], uint8_t out[16]) {
  const auto* rk = reinterpret_cast<const __m128i*>(round_keys);
  __m128i b = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
      _mm_loadu_si128(rk));
  for (int round = 1; round < Aes256::kRounds; ++round) {
    b = _mm_aesenc_si128(b, _mm_loadu_si128(rk + round));
  }
  b = _mm_aesenclast_si128(b, _mm_loadu_si128(rk + Aes256::kRounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
}
#endif

}  // namespace

Aes256::Aes256(ByteSpan key, internal::Kernel kernel) : kernel_(kernel) {
  assert(key.size() == kAes256KeySize);
  assert(kernel == internal::Kernel::kPortable || internal::CpuHasAesNi());
  const SBoxes& sb = GetSBoxes();

  constexpr int kNk = 8;          // 256-bit key = 8 words.
  constexpr int kNw = 4 * (kRounds + 1);  // 60 words of round key.
  uint32_t w[kNw];
  for (int i = 0; i < kNk; ++i) {
    w[i] = (static_cast<uint32_t>(key[4 * i]) << 24) |
           (static_cast<uint32_t>(key[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(key[4 * i + 2]) << 8) |
           static_cast<uint32_t>(key[4 * i + 3]);
  }
  auto sub_word = [&](uint32_t x) {
    return (static_cast<uint32_t>(sb.fwd[(x >> 24) & 0xFF]) << 24) |
           (static_cast<uint32_t>(sb.fwd[(x >> 16) & 0xFF]) << 16) |
           (static_cast<uint32_t>(sb.fwd[(x >> 8) & 0xFF]) << 8) |
           static_cast<uint32_t>(sb.fwd[x & 0xFF]);
  };
  uint8_t rcon = 0x01;
  for (int i = kNk; i < kNw; ++i) {
    uint32_t temp = w[i - 1];
    if (i % kNk == 0) {
      temp = sub_word((temp << 8) | (temp >> 24)) ^
             (static_cast<uint32_t>(rcon) << 24);
      rcon = GfMul(rcon, 2);
    } else if (i % kNk == 4) {
      temp = sub_word(temp);
    }
    w[i] = w[i - kNk] ^ temp;
  }
  for (int i = 0; i < kNw; ++i) {
    round_keys_[4 * i] = static_cast<uint8_t>(w[i] >> 24);
    round_keys_[4 * i + 1] = static_cast<uint8_t>(w[i] >> 16);
    round_keys_[4 * i + 2] = static_cast<uint8_t>(w[i] >> 8);
    round_keys_[4 * i + 3] = static_cast<uint8_t>(w[i]);
  }
}

void Aes256::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
#ifdef CCF_CRYPTO_X86_KERNELS
  if (kernel_ == internal::Kernel::kHardware) {
    EncryptBlockAesNi(round_keys_, in, out);
    return;
  }
#endif
  // T-table implementation: each round is 16 table lookups and XORs.
  const SBoxes& sb = GetSBoxes();
  auto load_be = [](const uint8_t* p) {
    return (static_cast<uint32_t>(p[0]) << 24) |
           (static_cast<uint32_t>(p[1]) << 16) |
           (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
  };
  auto rk = [&](int round, int col) {
    return load_be(round_keys_ + 16 * round + 4 * col);
  };

  uint32_t c0 = load_be(in) ^ rk(0, 0);
  uint32_t c1 = load_be(in + 4) ^ rk(0, 1);
  uint32_t c2 = load_be(in + 8) ^ rk(0, 2);
  uint32_t c3 = load_be(in + 12) ^ rk(0, 3);

  for (int round = 1; round < kRounds; ++round) {
    uint32_t n0 = sb.te[0][(c0 >> 24) & 0xff] ^ sb.te[1][(c1 >> 16) & 0xff] ^
                  sb.te[2][(c2 >> 8) & 0xff] ^ sb.te[3][c3 & 0xff] ^
                  rk(round, 0);
    uint32_t n1 = sb.te[0][(c1 >> 24) & 0xff] ^ sb.te[1][(c2 >> 16) & 0xff] ^
                  sb.te[2][(c3 >> 8) & 0xff] ^ sb.te[3][c0 & 0xff] ^
                  rk(round, 1);
    uint32_t n2 = sb.te[0][(c2 >> 24) & 0xff] ^ sb.te[1][(c3 >> 16) & 0xff] ^
                  sb.te[2][(c0 >> 8) & 0xff] ^ sb.te[3][c1 & 0xff] ^
                  rk(round, 2);
    uint32_t n3 = sb.te[0][(c3 >> 24) & 0xff] ^ sb.te[1][(c0 >> 16) & 0xff] ^
                  sb.te[2][(c1 >> 8) & 0xff] ^ sb.te[3][c2 & 0xff] ^
                  rk(round, 3);
    c0 = n0;
    c1 = n1;
    c2 = n2;
    c3 = n3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
  auto final_col = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d,
                       int col) {
    uint32_t v = (static_cast<uint32_t>(sb.fwd[(a >> 24) & 0xff]) << 24) |
                 (static_cast<uint32_t>(sb.fwd[(b >> 16) & 0xff]) << 16) |
                 (static_cast<uint32_t>(sb.fwd[(c >> 8) & 0xff]) << 8) |
                 static_cast<uint32_t>(sb.fwd[d & 0xff]);
    return v ^ rk(kRounds, col);
  };
  uint32_t o0 = final_col(c0, c1, c2, c3, 0);
  uint32_t o1 = final_col(c1, c2, c3, c0, 1);
  uint32_t o2 = final_col(c2, c3, c0, c1, 2);
  uint32_t o3 = final_col(c3, c0, c1, c2, 3);
  auto store_be = [](uint32_t v, uint8_t* p) {
    p[0] = static_cast<uint8_t>(v >> 24);
    p[1] = static_cast<uint8_t>(v >> 16);
    p[2] = static_cast<uint8_t>(v >> 8);
    p[3] = static_cast<uint8_t>(v);
  };
  store_be(o0, out);
  store_be(o1, out + 4);
  store_be(o2, out + 8);
  store_be(o3, out + 12);
}

void Aes256::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  const SBoxes& sb = GetSBoxes();
  uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i] ^ round_keys_[16 * kRounds + i];

  for (int round = kRounds - 1; round >= 0; --round) {
    // InvShiftRows.
    uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[4 * ((c + r) % 4) + r] = s[4 * c + r];
      }
    }
    std::memcpy(s, t, 16);
    // InvSubBytes.
    for (int i = 0; i < 16; ++i) s[i] = sb.inv[s[i]];
    // AddRoundKey.
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[16 * round + i];
    // InvMixColumns (skipped for the first encryption round's key).
    if (round > 0) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = s + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = GfMul(a0, 14) ^ GfMul(a1, 11) ^ GfMul(a2, 13) ^ GfMul(a3, 9);
        col[1] = GfMul(a0, 9) ^ GfMul(a1, 14) ^ GfMul(a2, 11) ^ GfMul(a3, 13);
        col[2] = GfMul(a0, 13) ^ GfMul(a1, 9) ^ GfMul(a2, 14) ^ GfMul(a3, 11);
        col[3] = GfMul(a0, 11) ^ GfMul(a1, 13) ^ GfMul(a2, 9) ^ GfMul(a3, 14);
      }
    }
  }
  std::memcpy(out, s, 16);
}

}  // namespace ccf::crypto
