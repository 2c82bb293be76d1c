#include "node/snapshots.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/buffer.h"
#include "common/hex.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "json/json.h"
#include "kv/snapshot.h"
#include "kv/tables.h"
#include "kv/writeset.h"

namespace ccf::node {

namespace {

constexpr char kBundleTag[] = "ccf.snapshot.bundle.v1";

// Fields covered by the content digest (everything except the evidence
// binding, which commits after the digest is computed).
void WriteContent(BufWriter* w, const SnapshotBundle& b) {
  w->Str(kBundleTag);
  w->U64(b.view);
  w->U64(b.seqno);
  w->Blob(b.public_data);
  w->Blob(b.private_sealed);
  w->U64(b.leaves.size());
  for (const merkle::Digest& leaf : b.leaves) {
    w->Raw(ByteSpan(leaf.data(), leaf.size()));
  }
  w->U64(b.configs.size());
  for (const consensus::Configuration& c : b.configs) {
    w->U64(c.seqno);
    w->U64(c.nodes.size());
    for (const auto& n : c.nodes) w->Str(n);
  }
}

Bytes SnapshotAad(uint64_t view, uint64_t seqno) {
  BufWriter w;
  w.Str("ccf.snapshot.aad.v1");
  w.U64(view);
  w.U64(seqno);
  return w.Take();
}

// A fixed seqno-derived IV is safe here because the derived snapshot key
// is used for exactly one plaintext per seqno, and determinism is the
// point: identical state sealed at identical (view, seqno) must produce
// identical bytes on every node.
std::array<uint8_t, crypto::kGcmIvSize> SnapshotIv(uint64_t seqno) {
  std::array<uint8_t, crypto::kGcmIvSize> iv{};
  for (int i = 0; i < 8; ++i) {
    iv[i] = static_cast<uint8_t>(seqno >> (8 * i));
  }
  iv[8] = 's';
  iv[9] = 'n';
  iv[10] = 'a';
  iv[11] = 'p';
  return iv;
}

Bytes SnapshotKey(const kv::LedgerSecret& secret) {
  return crypto::Hkdf(secret.key, ToBytes("ccf.snapshot.key.v1"), ToBytes(""),
                      crypto::kAes256KeySize);
}

}  // namespace

Bytes SnapshotBundle::Serialize() const {
  BufWriter w;
  WriteContent(&w, *this);
  w.U64(evidence_seqno);
  w.Blob(evidence_entry);
  w.Blob(receipt);
  return w.Take();
}

Result<SnapshotBundle> SnapshotBundle::Deserialize(ByteSpan data) {
  BufReader r(data);
  SnapshotBundle b;
  ASSIGN_OR_RETURN(std::string tag, r.Str());
  if (tag != kBundleTag) {
    return Status::Corruption("snapshot bundle: bad tag");
  }
  ASSIGN_OR_RETURN(b.view, r.U64());
  ASSIGN_OR_RETURN(b.seqno, r.U64());
  ASSIGN_OR_RETURN(b.public_data, r.Blob());
  ASSIGN_OR_RETURN(b.private_sealed, r.Blob());
  ASSIGN_OR_RETURN(uint64_t nleaves, r.U64());
  if (nleaves * crypto::kSha256DigestSize > r.remaining()) {
    return Status::OutOfRange("snapshot bundle: truncated leaves");
  }
  b.leaves.reserve(static_cast<size_t>(nleaves));
  for (uint64_t i = 0; i < nleaves; ++i) {
    ASSIGN_OR_RETURN(Bytes d, r.Raw(crypto::kSha256DigestSize));
    merkle::Digest leaf;
    std::copy(d.begin(), d.end(), leaf.begin());
    b.leaves.push_back(leaf);
  }
  ASSIGN_OR_RETURN(uint64_t nconfigs, r.U64());
  if (nconfigs > r.remaining()) {
    return Status::OutOfRange("snapshot bundle: truncated configs");
  }
  for (uint64_t i = 0; i < nconfigs; ++i) {
    consensus::Configuration c;
    ASSIGN_OR_RETURN(c.seqno, r.U64());
    ASSIGN_OR_RETURN(uint64_t nnodes, r.U64());
    if (nnodes > r.remaining()) {
      return Status::OutOfRange("snapshot bundle: truncated config nodes");
    }
    for (uint64_t j = 0; j < nnodes; ++j) {
      ASSIGN_OR_RETURN(std::string node, r.Str());
      c.nodes.insert(std::move(node));
    }
    b.configs.push_back(std::move(c));
  }
  ASSIGN_OR_RETURN(b.evidence_seqno, r.U64());
  ASSIGN_OR_RETURN(b.evidence_entry, r.Blob());
  ASSIGN_OR_RETURN(b.receipt, r.Blob());
  if (!r.AtEnd()) {
    return Status::Corruption("snapshot bundle: trailing bytes");
  }
  return b;
}

crypto::Sha256Digest SnapshotBundle::ContentDigest() const {
  BufWriter w;
  WriteContent(&w, *this);
  return crypto::Sha256::Hash(w.data());
}

Bytes SealSnapshotPrivate(const kv::LedgerSecret& secret, uint64_t view,
                          uint64_t seqno, ByteSpan plain) {
  auto iv = SnapshotIv(seqno);
  return crypto::AesGcm(SnapshotKey(secret))
      .Seal(ByteSpan(iv.data(), iv.size()), plain, SnapshotAad(view, seqno));
}

Result<Bytes> OpenSnapshotPrivate(const kv::LedgerSecret& secret,
                                  uint64_t view, uint64_t seqno,
                                  ByteSpan sealed) {
  auto iv = SnapshotIv(seqno);
  return crypto::AesGcm(SnapshotKey(secret))
      .Open(ByteSpan(iv.data(), iv.size()), sealed, SnapshotAad(view, seqno));
}

SnapshotBundle BuildBundle(const kv::State& state, uint64_t seqno,
                           uint64_t view, const kv::LedgerSecret& secret,
                           std::vector<merkle::Digest> leaves,
                           std::vector<consensus::Configuration> configs) {
  SnapshotBundle b;
  b.seqno = seqno;
  b.view = view;
  b.public_data = kv::SerializeState(kv::FilterState(state, true));
  b.private_sealed = SealSnapshotPrivate(
      secret, view, seqno,
      kv::SerializeState(kv::FilterState(state, false)));
  b.leaves = std::move(leaves);
  b.configs = std::move(configs);
  return b;
}

Bytes EvidenceRecord(const SnapshotBundle& bundle) {
  crypto::Sha256Digest digest = bundle.ContentDigest();
  json::Object out;
  out["digest"] = HexEncode(ByteSpan(digest.data(), digest.size()));
  out["seqno"] = bundle.seqno;
  out["view"] = bundle.view;
  return ToBytes(json::Value(std::move(out)).Dump());
}

Result<SnapshotEvidence> ParseEvidenceEntry(const ledger::Entry& entry) {
  ASSIGN_OR_RETURN(kv::WriteSet ws,
                   kv::WriteSet::Parse(entry.public_ws, ByteSpan{}));
  auto map_it = ws.maps.find(kv::tables::kSnapshotEvidence);
  if (map_it == ws.maps.end()) {
    return Status::NotFound("snapshot: entry carries no evidence");
  }
  auto val_it = map_it->second.find(ToBytes(kv::tables::kCurrentKey));
  if (val_it == map_it->second.end() || !val_it->second.has_value()) {
    return Status::NotFound("snapshot: entry carries no evidence record");
  }
  ASSIGN_OR_RETURN(json::Value record, json::Parse(ToString(*val_it->second)));
  SnapshotEvidence ev;
  ev.seqno = static_cast<uint64_t>(record.GetInt("seqno"));
  ev.view = static_cast<uint64_t>(record.GetInt("view"));
  ASSIGN_OR_RETURN(Bytes digest, HexDecode(record.GetString("digest")));
  if (digest.size() != ev.digest.size()) {
    return Status::Corruption("snapshot: malformed evidence digest");
  }
  std::copy(digest.begin(), digest.end(), ev.digest.begin());
  return ev;
}

Status VerifyBundleContent(const SnapshotBundle& bundle) {
  if (bundle.seqno == 0) {
    return Status::InvalidArgument("snapshot bundle: empty snapshot");
  }
  if (bundle.leaves.size() != bundle.seqno) {
    return Status::Corruption("snapshot bundle: leaf count " +
                              std::to_string(bundle.leaves.size()) +
                              " does not cover seqno " +
                              std::to_string(bundle.seqno));
  }
  if (bundle.configs.empty()) {
    return Status::Corruption("snapshot bundle: no configurations");
  }
  if (bundle.evidence_seqno <= bundle.seqno) {
    return Status::Corruption("snapshot bundle: evidence precedes snapshot");
  }
  ASSIGN_OR_RETURN(ledger::Entry entry,
                   ledger::Entry::Deserialize(bundle.evidence_entry));
  if (entry.seqno != bundle.evidence_seqno) {
    return Status::Corruption("snapshot bundle: evidence entry seqno " +
                              std::to_string(entry.seqno) + " != " +
                              std::to_string(bundle.evidence_seqno));
  }
  ASSIGN_OR_RETURN(SnapshotEvidence ev, ParseEvidenceEntry(entry));
  if (ev.seqno != bundle.seqno || ev.view != bundle.view) {
    return Status::PermissionDenied(
        "snapshot bundle: evidence does not match bundle position");
  }
  if (ev.digest != bundle.ContentDigest()) {
    return Status::PermissionDenied(
        "snapshot bundle: evidence digest mismatch (forged or corrupt)");
  }
  ASSIGN_OR_RETURN(merkle::Receipt receipt,
                   merkle::Receipt::Deserialize(bundle.receipt));
  if (receipt.seqno != entry.seqno || receipt.view != entry.view ||
      receipt.write_set_digest != entry.WriteSetDigest() ||
      receipt.claims_digest != entry.claims_digest) {
    return Status::PermissionDenied(
        "snapshot bundle: receipt does not cover the evidence entry");
  }
  return Status::Ok();
}

Status VerifyBundle(const SnapshotBundle& bundle,
                    ByteSpan service_public_key) {
  RETURN_IF_ERROR(VerifyBundleContent(bundle));
  ASSIGN_OR_RETURN(merkle::Receipt receipt,
                   merkle::Receipt::Deserialize(bundle.receipt));
  return receipt.Verify(service_public_key);
}

Result<kv::State> RestorePublicState(const SnapshotBundle& bundle) {
  ASSIGN_OR_RETURN(kv::State state, kv::DeserializeState(bundle.public_data));
  Status ok = Status::Ok();
  state.maps.ForEach([&](const std::string& name, const kv::MapEntry&) {
    if (!kv::IsPublicMap(name)) {
      ok = Status::Corruption("snapshot bundle: private map \"" + name +
                              "\" in the public half");
      return false;
    }
    return true;
  });
  RETURN_IF_ERROR(ok);
  return state;
}

Result<kv::State> RestoreState(const SnapshotBundle& bundle,
                               const kv::LedgerSecret& secret) {
  ASSIGN_OR_RETURN(kv::State pub, RestorePublicState(bundle));
  ASSIGN_OR_RETURN(Bytes plain, OpenSnapshotPrivate(secret, bundle.view,
                                                    bundle.seqno,
                                                    bundle.private_sealed));
  ASSIGN_OR_RETURN(kv::State priv, kv::DeserializeState(plain));
  return kv::MergeStates(pub, priv);
}

Status SaveRawBundleToDir(ByteSpan bundle, uint64_t seqno,
                          const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("snapshot: cannot create dir " + dir);
  }
  for (const auto& de : fs::directory_iterator(dir)) {
    const std::string name = de.path().filename().string();
    if (name.rfind("snapshot_", 0) == 0) fs::remove(de.path(), ec);
  }
  const std::string path = dir + "/snapshot_" + std::to_string(seqno);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("snapshot: cannot open " + path);
  }
  out.write(reinterpret_cast<const char*>(bundle.data()),
            static_cast<std::streamsize>(bundle.size()));
  if (!out) {
    return Status::Internal("snapshot: write failed for " + path);
  }
  return Status::Ok();
}

Result<SnapshotBundle> LoadLatestBundleFromDir(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    return Status::NotFound("snapshot: no such directory " + dir);
  }
  uint64_t best_seqno = 0;
  std::string best_path;
  for (const auto& de : fs::directory_iterator(dir)) {
    const std::string name = de.path().filename().string();
    if (name.rfind("snapshot_", 0) != 0) continue;
    uint64_t seqno = std::strtoull(name.c_str() + 9, nullptr, 10);
    if (seqno > best_seqno) {
      best_seqno = seqno;
      best_path = de.path().string();
    }
  }
  if (best_path.empty()) {
    return Status::NotFound("snapshot: no snapshot files in " + dir);
  }
  std::ifstream in(best_path, std::ios::binary);
  if (!in) {
    return Status::Internal("snapshot: cannot open " + best_path);
  }
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return SnapshotBundle::Deserialize(data);
}

}  // namespace ccf::node
