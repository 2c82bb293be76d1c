// Ablation: costs of the cryptographic building blocks on the hot path —
// explains where the per-request and per-signature time in Figures 7/8
// goes (GCM per session record and channel message; SHA-256 per Merkle
// leaf; Schnorr sign per signature transaction; Ed25519 key generation,
// point decoding, verify and ECDH per handshake, join and vote).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "crypto/ec25519.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sign.h"
#include "merkle/merkle.h"

namespace {

using namespace ccf;

// BM_Sha256 and BM_AesGcmSeal run the kernel the CPU probe dispatched
// (printed at start-up); the *Portable rows pin the portable code, which
// is what a CPU without SHA-NI / AES-NI + PCLMULQDQ runs.
void Sha256Rows(benchmark::State& state, crypto::internal::Kernel kernel) {
  crypto::Drbg drbg("bench", 0);
  Bytes data = drbg.Generate(state.range(0));
  for (auto _ : state) {
    crypto::Sha256 h(kernel);
    h.Update(data);
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
void BM_Sha256(benchmark::State& state) {
  Sha256Rows(state, crypto::internal::BestSha256Kernel());
}
void BM_Sha256Portable(benchmark::State& state) {
  Sha256Rows(state, crypto::internal::Kernel::kPortable);
}
// The 1 MiB case exercises the multi-block compression fast path in
// Sha256::Update (whole blocks hashed straight from the input span).
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void AesGcmSealRows(benchmark::State& state, crypto::internal::Kernel kernel) {
  crypto::Drbg drbg("bench", 1);
  crypto::AesGcm gcm(drbg.Generate(32), kernel);
  Bytes iv = drbg.Generate(12);
  Bytes data = drbg.Generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.Seal(iv, data, {}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
void BM_AesGcmSeal(benchmark::State& state) {
  AesGcmSealRows(state, crypto::internal::BestAesKernel());
}
void BM_AesGcmSealPortable(benchmark::State& state) {
  AesGcmSealRows(state, crypto::internal::Kernel::kPortable);
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK(BM_AesGcmSealPortable)->Arg(64)->Arg(1024)->Arg(65536);

void BM_SchnorrSign(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  Bytes msg = ToBytes("merkle root signature payload, 48 bytes or so...");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.Sign(msg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  Bytes msg = ToBytes("merkle root signature payload, 48 bytes or so...");
  auto sig = kp.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Verify(kp.public_key(), msg, sig));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchnorrVerify);

// Key generation: seed expansion, one fixed-base scalar multiplication and
// the point encoding (node identities, ECIES ephemerals).
void BM_KeyFromSeed(benchmark::State& state) {
  crypto::Drbg drbg("bench-keygen", 0);
  Bytes seed = drbg.Generate(32);
  for (auto _ : state) {
    seed[0]++;
    benchmark::DoNotOptimize(crypto::KeyPair::FromSeed(seed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyFromSeed);

// Point decompression: every Verify decodes R and the public key.
void BM_PointDecode(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ec::Decode(kp.public_key()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointDecode);

void BM_EcdhSharedSecret(benchmark::State& state) {
  crypto::KeyPair a = crypto::KeyPair::FromSeed(ToBytes("a"));
  crypto::KeyPair b = crypto::KeyPair::FromSeed(ToBytes("b"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DeriveSharedSecret(b.public_key()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcdhSharedSecret);

void BM_MerkleAppend(benchmark::State& state) {
  merkle::MerkleTree tree;
  Bytes leaf = ToBytes("transaction leaf content 0123456789");
  for (auto _ : state) {
    tree.Append(leaf);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleAppend);

// Replay of a raft append batch / ledger segment.
void BM_MerkleAppendSerial(benchmark::State& state) {
  const size_t n = state.range(0);
  Bytes leaf = ToBytes("transaction leaf content 0123456789");
  for (auto _ : state) {
    merkle::MerkleTree tree;
    for (size_t i = 0; i < n; ++i) tree.Append(leaf);
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MerkleAppendSerial)->Arg(64)->Arg(1024)->Arg(16384);

// Batch signature verification (audit replay, backup commit boundary,
// joiner catch-up) vs one-at-a-time verification.
std::vector<crypto::BatchVerifyItem> MakeVerifyItems(
    size_t n, std::vector<Bytes>* msgs,
    std::vector<crypto::SignatureBytes>* sigs, crypto::KeyPair* kp) {
  msgs->clear();
  sigs->clear();
  for (size_t i = 0; i < n; ++i) {
    msgs->push_back(ToBytes("signed merkle root #" + std::to_string(i)));
    sigs->push_back(kp->Sign(msgs->back()));
  }
  std::vector<crypto::BatchVerifyItem> items;
  for (size_t i = 0; i < n; ++i) {
    items.push_back({kp->public_key(), (*msgs)[i], (*sigs)[i]});
  }
  return items;
}

void BM_VerifyBatch(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  std::vector<Bytes> msgs;
  std::vector<crypto::SignatureBytes> sigs;
  auto items = MakeVerifyItems(state.range(0), &msgs, &sigs, &kp);
  crypto::Drbg drbg("bench-batch-verify", 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::VerifyBatch(items, &drbg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifyBatch)->Arg(4)->Arg(16)->Arg(64);

void BM_VerifySerial(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  std::vector<Bytes> msgs;
  std::vector<crypto::SignatureBytes> sigs;
  auto items = MakeVerifyItems(state.range(0), &msgs, &sigs, &kp);
  for (auto _ : state) {
    bool all = true;
    for (const auto& it : items) {
      all = all && crypto::Verify(it.pub, it.msg, it.sig);
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifySerial)->Arg(4)->Arg(16)->Arg(64);

void BM_MerkleRoot(benchmark::State& state) {
  merkle::MerkleTree tree;
  for (int i = 0; i < state.range(0); ++i) {
    tree.Append(ToBytes("leaf " + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Root());
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(1000)->Arg(100000);

void BM_MerkleProof(benchmark::State& state) {
  merkle::MerkleTree tree;
  const uint64_t n = state.range(0);
  for (uint64_t i = 0; i < n; ++i) {
    tree.Append(ToBytes("leaf " + std::to_string(i)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.GetProof(i++ % n, n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleProof)->Arg(1000)->Arg(100000);

// Run before any timing: the dispatched hash and cipher kernels must match
// the portable code, and VerifyBatch must engage and catch a forgery, or
// the ablation numbers would be meaningless.
bool SelfTest() {
  crypto::Drbg drbg("bench-selftest", 0);
  using crypto::internal::Kernel;

  for (size_t len : {0u, 1u, 55u, 56u, 64u, 300u, 4099u}) {
    Bytes data = drbg.Generate(len);
    crypto::Sha256 portable(Kernel::kPortable);
    portable.Update(data);
    if (crypto::Sha256::Hash(data) != portable.Finish()) {
      std::fprintf(stderr, "selftest: Sha256 kernel mismatch at len %zu\n",
                   len);
      return false;
    }
    Bytes key = drbg.Generate(32), iv = drbg.Generate(12);
    if (crypto::AesGcm(key).Seal(iv, data, key) !=
        crypto::AesGcm(key, Kernel::kPortable).Seal(iv, data, key)) {
      std::fprintf(stderr, "selftest: AesGcm kernel mismatch at len %zu\n",
                   len);
      return false;
    }
  }

  // VerifyBatch passes valid batches and flags a forgery.
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  std::vector<Bytes> msgs;
  std::vector<crypto::SignatureBytes> sigs;
  auto items = MakeVerifyItems(8, &msgs, &sigs, &kp);
  if (!crypto::VerifyBatch(items, &drbg)) {
    std::fprintf(stderr, "selftest: VerifyBatch rejected valid batch\n");
    return false;
  }
  sigs[3][0] ^= 1;
  std::vector<bool> ok;
  if (crypto::VerifyBatch(items, &drbg, &ok) || ok[3] || !ok[2]) {
    std::fprintf(stderr, "selftest: VerifyBatch missed a forgery\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!SelfTest()) return 1;
  // On stderr, so that --benchmark_format=json leaves pure JSON on stdout.
  std::fprintf(stderr, "dispatched kernels: sha256=%s aes-gcm=%s\n",
               crypto::internal::KernelName(
                   crypto::internal::BestSha256Kernel()),
               crypto::internal::KernelName(
                   crypto::internal::BestAesKernel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
