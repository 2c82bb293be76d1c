#include "merkle/merkle.h"

#include <bit>
#include <cassert>

#include "common/buffer.h"

namespace ccf::merkle {

namespace {

// Largest power of two strictly smaller than n (n >= 2).
uint64_t SplitPoint(uint64_t n) {
  return std::bit_floor(n - 1);
}

}  // namespace

Digest LeafHash(ByteSpan data) {
  crypto::Sha256 h;
  uint8_t prefix = 0x00;
  h.Update(ByteSpan(&prefix, 1));
  h.Update(data);
  return h.Finish();
}

Digest InteriorHash(const Digest& left, const Digest& right) {
  crypto::Sha256 h;
  uint8_t prefix = 0x01;
  h.Update(ByteSpan(&prefix, 1));
  h.Update(left);
  h.Update(right);
  return h.Finish();
}

Digest ComputeRootFromProof(const Digest& leaf, const Proof& proof) {
  Digest r = leaf;
  for (const ProofStep& step : proof.path) {
    if (step.side == ProofStep::Side::kLeft) {
      r = InteriorHash(step.digest, r);
    } else {
      r = InteriorHash(r, step.digest);
    }
  }
  return r;
}

Bytes Proof::Serialize() const {
  BufWriter w;
  w.U64(leaf_index);
  w.U64(tree_size);
  w.U32(static_cast<uint32_t>(path.size()));
  for (const ProofStep& step : path) {
    w.U8(static_cast<uint8_t>(step.side));
    w.Raw(ByteSpan(step.digest.data(), step.digest.size()));
  }
  return w.Take();
}

Result<Proof> Proof::Deserialize(ByteSpan data) {
  BufReader r(data);
  Proof proof;
  ASSIGN_OR_RETURN(proof.leaf_index, r.U64());
  ASSIGN_OR_RETURN(proof.tree_size, r.U64());
  ASSIGN_OR_RETURN(uint32_t n, r.U32());
  if (n > 64) {
    return Status::InvalidArgument("merkle: proof path too long");
  }
  for (uint32_t i = 0; i < n; ++i) {
    ProofStep step;
    ASSIGN_OR_RETURN(uint8_t side, r.U8());
    if (side > 1) {
      return Status::InvalidArgument("merkle: invalid proof side");
    }
    step.side = static_cast<ProofStep::Side>(side);
    ASSIGN_OR_RETURN(Bytes d, r.Raw(crypto::kSha256DigestSize));
    std::copy(d.begin(), d.end(), step.digest.begin());
    proof.path.push_back(step);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("merkle: trailing proof bytes");
  }
  return proof;
}

void MerkleTree::Append(ByteSpan data) {
  ++stats_.leaf_hashes;
  AppendLeafHash(LeafHash(data));
}

void MerkleTree::AppendLeafHash(const Digest& leaf) {
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(leaf);
  // Complete parent subtrees along the right edge.
  for (size_t h = 0; h + 1 <= levels_.size(); ++h) {
    if (levels_[h].size() % 2 != 0) break;
    if (h + 1 == levels_.size()) levels_.emplace_back();
    size_t n = levels_[h].size();
    levels_[h + 1].push_back(InteriorHash(levels_[h][n - 2], levels_[h][n - 1]));
    ++stats_.interior_hashes;
  }
}

void MerkleTree::AppendBatch(std::span<const Bytes> leaves) {
  stats_.batched_leaves += leaves.size();
  for (const Bytes& leaf : leaves) Append(leaf);
}

void MerkleTree::AppendLeafHashes(std::span<const Digest> leaves) {
  stats_.batched_leaves += leaves.size();
  for (const Digest& leaf : leaves) AppendLeafHash(leaf);
}

Digest MerkleTree::RangeHash(uint64_t lo, uint64_t hi) const {
  assert(hi > lo);
  uint64_t len = hi - lo;
  // Complete aligned subtree: O(1) lookup.
  if (std::has_single_bit(len) && lo % len == 0) {
    int h = std::countr_zero(len);
    if (h < static_cast<int>(levels_.size()) &&
        (lo >> h) < levels_[h].size()) {
      return levels_[h][lo >> h];
    }
  }
  if (len == 1) return levels_[0][lo];
  uint64_t k = SplitPoint(len);
  return InteriorHash(RangeHash(lo, lo + k), RangeHash(lo + k, hi));
}

Digest MerkleTree::Root() const {
  if (size() == 0) return crypto::Sha256::Hash({});
  return RangeHash(0, size());
}

Result<Digest> MerkleTree::RootAt(uint64_t n) const {
  if (n > size()) {
    return Status::OutOfRange("merkle: RootAt beyond tree size");
  }
  if (n == 0) return crypto::Sha256::Hash({});
  return RangeHash(0, n);
}

void MerkleTree::PathRec(uint64_t m, uint64_t lo, uint64_t hi,
                         std::vector<ProofStep>* out) const {
  if (hi - lo == 1) return;
  uint64_t k = SplitPoint(hi - lo);
  if (m < lo + k) {
    PathRec(m, lo, lo + k, out);
    out->push_back({ProofStep::Side::kRight, RangeHash(lo + k, hi)});
  } else {
    PathRec(m, lo + k, hi, out);
    out->push_back({ProofStep::Side::kLeft, RangeHash(lo, lo + k)});
  }
}

Result<Proof> MerkleTree::GetProof(uint64_t index, uint64_t tree_size) const {
  if (tree_size > size()) {
    return Status::OutOfRange("merkle: proof tree_size beyond tree");
  }
  if (index >= tree_size) {
    return Status::OutOfRange("merkle: leaf index beyond tree_size");
  }
  Proof proof;
  proof.leaf_index = index;
  proof.tree_size = tree_size;
  PathRec(index, 0, tree_size, &proof.path);
  return proof;
}

Result<Digest> MerkleTree::LeafAt(uint64_t index) const {
  if (index >= size()) {
    return Status::OutOfRange("merkle: leaf index beyond tree");
  }
  return levels_[0][index];
}

void MerkleTree::Truncate(uint64_t n) {
  if (levels_.empty()) return;
  for (size_t h = 0; h < levels_.size(); ++h) {
    size_t keep = static_cast<size_t>(n >> h);
    if (levels_[h].size() > keep) levels_[h].resize(keep);
  }
  while (levels_.size() > 1 && levels_.back().empty()) levels_.pop_back();
}

}  // namespace ccf::merkle
