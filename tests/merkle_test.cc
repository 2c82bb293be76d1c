#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/hmac.h"
#include "merkle/merkle.h"
#include "merkle/receipt.h"

namespace ccf::merkle {
namespace {

Bytes Leaf(int i) { return ToBytes("tx-" + std::to_string(i)); }

// Reference implementation: recompute the RFC 6962 root from scratch.
Digest ReferenceRoot(const std::vector<Bytes>& leaves, size_t lo, size_t hi) {
  if (hi == lo) return crypto::Sha256::Hash({});
  if (hi - lo == 1) return LeafHash(leaves[lo]);
  size_t len = hi - lo;
  size_t k = 1;
  while (k * 2 < len) k *= 2;
  return InteriorHash(ReferenceRoot(leaves, lo, lo + k),
                      ReferenceRoot(leaves, lo + k, hi));
}

TEST(Merkle, EmptyTreeRoot) {
  MerkleTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Root(), crypto::Sha256::Hash({}));
}

TEST(Merkle, SingleLeaf) {
  MerkleTree t;
  t.Append(Leaf(0));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Root(), LeafHash(Leaf(0)));
}

TEST(Merkle, RootMatchesReferenceForAllSizes) {
  MerkleTree t;
  std::vector<Bytes> leaves;
  for (int i = 0; i < 130; ++i) {
    leaves.push_back(Leaf(i));
    t.Append(Leaf(i));
    ASSERT_EQ(t.size(), static_cast<uint64_t>(i + 1));
    ASSERT_EQ(t.Root(), ReferenceRoot(leaves, 0, leaves.size()))
        << "size " << i + 1;
  }
}

TEST(Merkle, RootAtHistoricalPrefix) {
  MerkleTree t;
  std::vector<Bytes> leaves;
  std::vector<Digest> roots;
  for (int i = 0; i < 40; ++i) {
    leaves.push_back(Leaf(i));
    t.Append(Leaf(i));
    roots.push_back(t.Root());
  }
  for (int n = 1; n <= 40; ++n) {
    auto r = t.RootAt(n);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, roots[n - 1]) << "prefix " << n;
  }
  EXPECT_EQ(*t.RootAt(0), crypto::Sha256::Hash({}));
  EXPECT_FALSE(t.RootAt(41).ok());
}

TEST(Merkle, LeafHashDomainSeparation) {
  // A leaf whose content equals an interior preimage must not collide.
  Digest a = LeafHash(ToBytes("x"));
  Digest b = LeafHash(ToBytes("y"));
  Digest interior = InteriorHash(a, b);
  Bytes fake_leaf;
  fake_leaf.insert(fake_leaf.end(), a.begin(), a.end());
  fake_leaf.insert(fake_leaf.end(), b.begin(), b.end());
  EXPECT_NE(LeafHash(fake_leaf), interior);
}

TEST(Merkle, ProofsVerifyForAllPositionsAndSizes) {
  MerkleTree t;
  std::vector<Bytes> leaves;
  for (int i = 0; i < 33; ++i) {
    leaves.push_back(Leaf(i));
    t.Append(Leaf(i));
  }
  for (uint64_t tree_size = 1; tree_size <= 33; ++tree_size) {
    Digest expected_root = t.RootAt(tree_size).take();
    for (uint64_t idx = 0; idx < tree_size; ++idx) {
      auto proof = t.GetProof(idx, tree_size);
      ASSERT_TRUE(proof.ok()) << idx << "/" << tree_size;
      Digest folded = ComputeRootFromProof(LeafHash(leaves[idx]), *proof);
      ASSERT_EQ(folded, expected_root) << idx << "/" << tree_size;
    }
  }
}

TEST(Merkle, ProofRejectsWrongLeaf) {
  MerkleTree t;
  for (int i = 0; i < 10; ++i) t.Append(Leaf(i));
  auto proof = t.GetProof(3, 10).take();
  Digest folded = ComputeRootFromProof(LeafHash(Leaf(4)), proof);
  EXPECT_NE(folded, t.Root());
}

TEST(Merkle, ProofRejectsTamperedPath) {
  MerkleTree t;
  for (int i = 0; i < 16; ++i) t.Append(Leaf(i));
  auto proof = t.GetProof(7, 16).take();
  proof.path[1].digest[0] ^= 1;
  EXPECT_NE(ComputeRootFromProof(LeafHash(Leaf(7)), proof), t.Root());
}

TEST(Merkle, ProofBoundsChecked) {
  MerkleTree t;
  for (int i = 0; i < 5; ++i) t.Append(Leaf(i));
  EXPECT_FALSE(t.GetProof(5, 5).ok());   // index == size
  EXPECT_FALSE(t.GetProof(0, 6).ok());   // size beyond tree
  EXPECT_TRUE(t.GetProof(4, 5).ok());
  EXPECT_TRUE(t.GetProof(0, 1).ok());
}

TEST(Merkle, ProofSerializationRoundTrip) {
  MerkleTree t;
  for (int i = 0; i < 20; ++i) t.Append(Leaf(i));
  auto proof = t.GetProof(11, 20).take();
  Bytes ser = proof.Serialize();
  auto back = Proof::Deserialize(ser);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, proof);
  ser.pop_back();
  EXPECT_FALSE(Proof::Deserialize(ser).ok());
}

TEST(Merkle, TruncateRollsBack) {
  MerkleTree t;
  std::vector<Digest> roots;
  for (int i = 0; i < 50; ++i) {
    t.Append(Leaf(i));
    roots.push_back(t.Root());
  }
  // Roll back to 20 leaves, verify root matches historical value, then
  // re-append different content.
  t.Truncate(20);
  EXPECT_EQ(t.size(), 20u);
  EXPECT_EQ(t.Root(), roots[19]);
  t.Append(ToBytes("divergent"));
  EXPECT_EQ(t.size(), 21u);
  EXPECT_NE(t.Root(), roots[20]);
  // Proofs still work after truncate + append.
  auto proof = t.GetProof(20, 21);
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(ComputeRootFromProof(LeafHash(ToBytes("divergent")), *proof),
            t.Root());
}

TEST(Merkle, TruncateToZero) {
  MerkleTree t;
  for (int i = 0; i < 10; ++i) t.Append(Leaf(i));
  t.Truncate(0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Root(), crypto::Sha256::Hash({}));
  t.Append(Leaf(0));
  EXPECT_EQ(t.Root(), LeafHash(Leaf(0)));
}

// ----------------------------------------------------------- AppendBatch
//
// The batched appender must be observationally identical to repeated
// Append: same roots, same historical roots, same proofs, same behaviour
// under truncation.

Bytes FixedLeaf(int i) {
  // Equal lengths, like ledger transaction leaves.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "transaction-leaf-%08d", i);
  return ToBytes(std::string(buf));
}

TEST(Merkle, AppendBatchMatchesSerialForAllSizes) {
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u, 130u}) {
    std::vector<Bytes> leaves;
    for (size_t i = 0; i < n; ++i) leaves.push_back(FixedLeaf(i));
    MerkleTree batched, serial;
    batched.AppendBatch(leaves);
    for (const Bytes& l : leaves) serial.Append(l);
    ASSERT_EQ(batched.size(), serial.size()) << "n=" << n;
    ASSERT_EQ(batched.Root(), serial.Root()) << "n=" << n;
  }
}

TEST(Merkle, AppendBatchUnequalLengthsFallBack) {
  // Mixed-length leaves must produce the serial tree too.
  std::vector<Bytes> leaves;
  for (int i = 0; i < 23; ++i) leaves.push_back(Leaf(i));  // "tx-0".."tx-22"
  MerkleTree batched, serial;
  batched.AppendBatch(leaves);
  for (const Bytes& l : leaves) serial.Append(l);
  EXPECT_EQ(batched.Root(), serial.Root());
}

TEST(Merkle, AppendBatchRandomInterleavings) {
  // Random mix of single appends and batches of random size; roots and
  // all historical roots must match a purely serial twin.
  crypto::Drbg drbg("merkle-batch-prop", 0);
  MerkleTree batched, serial;
  int next = 0;
  while (next < 400) {
    size_t n = drbg.Uniform(17);  // 0..16
    if (n == 0) {
      batched.Append(FixedLeaf(next));
      serial.Append(FixedLeaf(next));
      ++next;
      continue;
    }
    std::vector<Bytes> leaves;
    for (size_t i = 0; i < n; ++i) leaves.push_back(FixedLeaf(next + i));
    batched.AppendBatch(leaves);
    for (const Bytes& l : leaves) serial.Append(l);
    next += n;
  }
  ASSERT_EQ(batched.size(), serial.size());
  EXPECT_EQ(batched.Root(), serial.Root());
  for (uint64_t s = 1; s <= batched.size(); s += 13) {
    EXPECT_EQ(batched.RootAt(s - 1).value(), serial.RootAt(s - 1).value())
        << "prefix=" << s;
  }
}

TEST(Merkle, AppendBatchProofsVerify) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 37; ++i) leaves.push_back(FixedLeaf(i));
  MerkleTree t;
  t.AppendBatch(leaves);
  Digest root = t.Root();
  for (uint64_t i = 0; i < t.size(); ++i) {
    auto proof = t.GetProof(i, t.size());
    ASSERT_TRUE(proof.ok()) << i;
    EXPECT_EQ(ComputeRootFromProof(LeafHash(leaves[i]), *proof), root) << i;
  }
}

TEST(Merkle, AppendBatchThenTruncate) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 50; ++i) leaves.push_back(FixedLeaf(i));
  MerkleTree batched, serial;
  batched.AppendBatch(leaves);
  for (const Bytes& l : leaves) serial.Append(l);
  batched.Truncate(29);
  serial.Truncate(29);
  ASSERT_EQ(batched.size(), 29u);
  EXPECT_EQ(batched.Root(), serial.Root());
  // Growth after truncation stays aligned, batched or not.
  std::vector<Bytes> more;
  for (int i = 100; i < 111; ++i) more.push_back(FixedLeaf(i));
  batched.AppendBatch(more);
  for (const Bytes& l : more) serial.Append(l);
  EXPECT_EQ(batched.Root(), serial.Root());
}

TEST(Merkle, AppendLeafHashesMatchesAppend) {
  // The digest-level entry point (joiner catch-up installs leaf hashes
  // directly) must agree with content-level appends.
  std::vector<Bytes> leaves;
  std::vector<Digest> hashes;
  for (int i = 0; i < 41; ++i) {
    leaves.push_back(FixedLeaf(i));
    hashes.push_back(LeafHash(leaves.back()));
  }
  MerkleTree from_hashes, from_content;
  from_hashes.AppendLeafHashes(hashes);
  for (const Bytes& l : leaves) from_content.Append(l);
  ASSERT_EQ(from_hashes.size(), from_content.size());
  EXPECT_EQ(from_hashes.Root(), from_content.Root());
  for (uint64_t i = 0; i < from_hashes.size(); i += 7) {
    EXPECT_EQ(from_hashes.GetProof(i, 41).value().Serialize(),
              from_content.GetProof(i, 41).value().Serialize());
  }
}

TEST(Merkle, BatchStatsCount) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 16; ++i) leaves.push_back(FixedLeaf(i));
  MerkleTree t;
  t.AppendBatch(leaves);
  const MerkleTree::Stats& s = t.stats();
  EXPECT_EQ(s.batched_leaves, 16u);
  EXPECT_EQ(s.leaf_hashes, 16u);
  EXPECT_EQ(s.interior_hashes, 15u);  // a full binary tree over 16 leaves
}

TEST(Merkle, PaperFigure3Example) {
  // Figure 3: the Merkle proof for transaction 1.7 in a ledger where the
  // proof is [(right, d8), (left, d56), (left, d1234), (right, d910)].
  // With 1-based seqnos, tx 7 is leaf 6, in a tree over 10 transactions.
  MerkleTree t;
  std::vector<Bytes> leaves;
  for (int i = 1; i <= 10; ++i) {
    leaves.push_back(Leaf(i));
    t.Append(Leaf(i));
  }
  auto proof = t.GetProof(6, 10).take();
  ASSERT_EQ(proof.path.size(), 4u);
  // Sibling of leaf 7 (index 6) is leaf 8 (index 7), on the right.
  EXPECT_EQ(proof.path[0].side, ProofStep::Side::kRight);
  EXPECT_EQ(proof.path[0].digest, LeafHash(leaves[7]));
  // Then the pair (5,6) on the left.
  EXPECT_EQ(proof.path[1].side, ProofStep::Side::kLeft);
  EXPECT_EQ(proof.path[1].digest,
            InteriorHash(LeafHash(leaves[4]), LeafHash(leaves[5])));
  // Then (1,2,3,4) on the left.
  EXPECT_EQ(proof.path[2].side, ProofStep::Side::kLeft);
  // Then (9,10) on the right.
  EXPECT_EQ(proof.path[3].side, ProofStep::Side::kRight);
  EXPECT_EQ(proof.path[3].digest,
            InteriorHash(LeafHash(leaves[8]), LeafHash(leaves[9])));
}

// --------------------------------------------------------------- Receipts

struct ReceiptFixture {
  crypto::KeyPair service = crypto::KeyPair::FromSeed(ToBytes("service"));
  crypto::KeyPair node = crypto::KeyPair::FromSeed(ToBytes("node0"));
  crypto::Certificate node_cert = crypto::IssueCertificate(
      "node0", "node", node.public_key(), service, "service");
  MerkleTree tree;
  std::vector<Digest> write_set_digests;

  // Appends `n` transactions and returns a receipt for `target_seqno`
  // signed at signature transaction seqno n+1.
  Receipt MakeReceipt(int n, uint64_t target_seqno) {
    for (int i = 1; i <= n; ++i) {
      Digest wsd = crypto::Sha256::Hash(ToBytes("writes-" + std::to_string(i)));
      write_set_digests.push_back(wsd);
      Bytes leaf = TransactionLeafContent(2, i, wsd, Digest{});
      tree.Append(leaf);
    }
    Receipt receipt;
    receipt.view = 2;
    receipt.seqno = target_seqno;
    receipt.write_set_digest = write_set_digests[target_seqno - 1];
    receipt.proof = tree.GetProof(target_seqno - 1, n).take();
    receipt.signed_root.view = 2;
    receipt.signed_root.seqno = n + 1;  // the signature tx position
    receipt.signed_root.root = tree.Root();
    receipt.signed_root.node_id = "node0";
    receipt.signed_root.signature =
        node.Sign(receipt.signed_root.SignedPayload());
    receipt.node_cert = node_cert;
    return receipt;
  }
};

TEST(Receipt, EndToEndVerification) {
  ReceiptFixture f;
  Receipt r = f.MakeReceipt(10, 7);
  EXPECT_TRUE(r.Verify(f.service.public_key()).ok());
}

TEST(Receipt, SerializationRoundTrip) {
  ReceiptFixture f;
  Receipt r = f.MakeReceipt(10, 3);
  Bytes ser = r.Serialize();
  auto back = Receipt::Deserialize(ser);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Verify(f.service.public_key()).ok());
  EXPECT_EQ(back->Serialize(), ser);
}

TEST(Receipt, RejectsWrongService) {
  ReceiptFixture f;
  Receipt r = f.MakeReceipt(10, 7);
  crypto::KeyPair other = crypto::KeyPair::FromSeed(ToBytes("other-service"));
  EXPECT_FALSE(r.Verify(other.public_key()).ok());
}

TEST(Receipt, RejectsTamperedWriteSet) {
  ReceiptFixture f;
  Receipt r = f.MakeReceipt(10, 7);
  r.write_set_digest[0] ^= 1;
  EXPECT_FALSE(r.Verify(f.service.public_key()).ok());
}

TEST(Receipt, RejectsTamperedRootSignature) {
  ReceiptFixture f;
  Receipt r = f.MakeReceipt(10, 7);
  r.signed_root.signature[10] ^= 1;
  EXPECT_FALSE(r.Verify(f.service.public_key()).ok());
}

TEST(Receipt, RejectsPositionMismatch) {
  ReceiptFixture f;
  Receipt r = f.MakeReceipt(10, 7);
  r.seqno = 6;  // claims a different position than the proof shows
  EXPECT_FALSE(r.Verify(f.service.public_key()).ok());
}

TEST(Receipt, RejectsNonNodeCert) {
  ReceiptFixture f;
  Receipt r = f.MakeReceipt(10, 7);
  crypto::KeyPair member = crypto::KeyPair::FromSeed(ToBytes("member"));
  r.node_cert = crypto::IssueCertificate("m0", "member", member.public_key(),
                                         f.service, "service");
  EXPECT_FALSE(r.Verify(f.service.public_key()).ok());
}

TEST(Receipt, RejectsSeqnoAtOrAfterSignature) {
  ReceiptFixture f;
  Receipt r = f.MakeReceipt(10, 7);
  r.signed_root.seqno = 7;  // signature tx cannot prove itself or later txs
  r.signed_root.signature = f.node.Sign(r.signed_root.SignedPayload());
  EXPECT_FALSE(r.Verify(f.service.public_key()).ok());
}

TEST(Receipt, ClaimsAreCovered) {
  ReceiptFixture f;
  // Build a tree where tx 2 carries a claims digest.
  Digest wsd = crypto::Sha256::Hash(ToBytes("w1"));
  Digest claims = crypto::Sha256::Hash(ToBytes("app-claim: balance=100"));
  f.tree.Append(TransactionLeafContent(2, 1, wsd, Digest{}));
  f.tree.Append(TransactionLeafContent(2, 2, wsd, claims));
  Receipt r;
  r.view = 2;
  r.seqno = 2;
  r.write_set_digest = wsd;
  r.claims_digest = claims;
  r.proof = f.tree.GetProof(1, 2).take();
  r.signed_root = {2, 3, f.tree.Root(), "node0", {}};
  r.signed_root.signature = f.node.Sign(r.signed_root.SignedPayload());
  r.node_cert = f.node_cert;
  EXPECT_TRUE(r.Verify(f.service.public_key()).ok());
  // Forged claims fail.
  r.claims_digest[5] ^= 1;
  EXPECT_FALSE(r.Verify(f.service.public_key()).ok());
}

}  // namespace
}  // namespace ccf::merkle
