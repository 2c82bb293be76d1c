#include "node/audit.h"

#include <map>

#include "common/hex.h"
#include "gov/records.h"
#include "json/json.h"
#include "kv/tables.h"
#include "kv/writeset.h"
#include "merkle/merkle.h"
#include "merkle/receipt.h"

namespace ccf::node {

namespace tables = kv::tables;

namespace {

// Minimal public-state replay: map name -> key -> value.
using PublicState = std::map<std::string, std::map<std::string, std::string>>;

void ApplyPublic(const kv::WriteSet& ws, PublicState* state) {
  for (const auto& [name, writes] : ws.maps) {
    if (!kv::IsPublicMap(name)) continue;
    auto& map = (*state)[name];
    for (const auto& [key, value] : writes) {
      if (value.has_value()) {
        map[ToString(key)] = ToString(*value);
      } else {
        map.erase(ToString(key));
      }
    }
  }
}

Result<crypto::PublicKeyBytes> ServiceIdentityFrom(const PublicState& state) {
  auto mit = state.find(tables::kServiceInfo);
  if (mit == state.end()) {
    return Status::Corruption("audit: no service info in genesis");
  }
  auto kit = mit->second.find(tables::kCurrentKey);
  if (kit == mit->second.end()) {
    return Status::Corruption("audit: no current service record");
  }
  ASSIGN_OR_RETURN(json::Value j, json::Parse(kit->second));
  ASSIGN_OR_RETURN(gov::ServiceInfo info, gov::ServiceInfo::FromJson(j));
  ASSIGN_OR_RETURN(crypto::Certificate cert,
                   crypto::Certificate::Deserialize(info.cert));
  return cert.public_key;
}

Result<crypto::Certificate> NodeCertFrom(const PublicState& state,
                                         const std::string& node_id) {
  auto mit = state.find(tables::kNodesInfo);
  if (mit == state.end()) {
    return Status::Corruption("audit: no nodes.info map");
  }
  auto kit = mit->second.find(node_id);
  if (kit == mit->second.end()) {
    return Status::Corruption("audit: unknown signing node " + node_id);
  }
  ASSIGN_OR_RETURN(json::Value j, json::Parse(kit->second));
  ASSIGN_OR_RETURN(gov::NodeInfo info, gov::NodeInfo::FromJson(j));
  return info.cert;
}

}  // namespace

Result<AuditReport> AuditLedger(
    const ledger::Ledger& ledger,
    std::optional<crypto::PublicKeyBytes> expected_service,
    AuditOptions options) {
  if (ledger.base_seqno() != 0) {
    return Status::InvalidArgument(
        "audit: full audit requires a ledger from genesis");
  }

  AuditReport report;
  PublicState state;
  merkle::MerkleTree tree;
  std::optional<crypto::PublicKeyBytes> service;

  // Batch mode: root signatures accumulate here and flush through
  // VerifyBatch. The combiner DRBG is fixed-seeded: the audit is a
  // deterministic function of the ledger bytes.
  struct SigJob {
    uint64_t seqno = 0;
    Bytes payload;
    crypto::PublicKeyBytes pub{};
    crypto::SignatureBytes sig{};
  };
  std::vector<SigJob> sig_jobs;
  crypto::Drbg audit_drbg("ccf-audit-verify", 1);
  auto flush_sigs = [&]() -> Status {
    if (sig_jobs.empty()) return Status::Ok();
    std::vector<crypto::BatchVerifyItem> items;
    items.reserve(sig_jobs.size());
    for (const SigJob& j : sig_jobs) {
      items.push_back({ByteSpan(j.pub.data(), j.pub.size()), j.payload,
                       ByteSpan(j.sig.data(), j.sig.size())});
    }
    std::vector<bool> ok;
    if (!crypto::VerifyBatch(items, &audit_drbg, &ok)) {
      for (size_t i = 0; i < ok.size(); ++i) {
        if (!ok[i]) {
          return Status::Corruption("audit: bad root signature at " +
                                    std::to_string(sig_jobs[i].seqno));
        }
      }
    }
    report.batched_verifications += sig_jobs.size();
    sig_jobs.clear();
    return Status::Ok();
  };

  for (const ledger::Entry& entry : ledger.entries()) {
    ++report.entries;
    if (entry.seqno != report.entries) {
      return Status::Corruption("audit: non-contiguous seqno at " +
                                std::to_string(entry.seqno));
    }
    auto ws = kv::WriteSet::Parse(entry.public_ws, {});
    if (!ws.ok()) {
      return Status::Corruption("audit: unparseable write set at " +
                                std::to_string(entry.seqno));
    }

    if (entry.type == ledger::EntryType::kSignature) {
      ++report.signature_transactions;
      auto it = ws->maps.find(tables::kSignatures);
      if (it == ws->maps.end() || it->second.empty() ||
          !it->second.begin()->second.has_value()) {
        return Status::Corruption("audit: signature entry without root at " +
                                  std::to_string(entry.seqno));
      }
      ASSIGN_OR_RETURN(Bytes sr_bytes,
                       HexDecode(ToString(*it->second.begin()->second)));
      ASSIGN_OR_RETURN(merkle::SignedRoot sr,
                       merkle::SignedRoot::Deserialize(sr_bytes));
      // The signed root covers a prefix boundary no later than the entry
      // carrying it (equal under synchronous signing; strictly earlier is
      // possible under worker_async offload, see merkle/receipt.h).
      if (sr.seqno == 0 || sr.seqno > entry.seqno) {
        return Status::Corruption("audit: signed root seqno mismatch at " +
                                  std::to_string(entry.seqno));
      }
      ASSIGN_OR_RETURN(merkle::Digest covered, tree.RootAt(sr.seqno - 1));
      if (sr.root != covered) {
        return Status::Corruption(
            "audit: Merkle root mismatch at " + std::to_string(entry.seqno) +
            " (ledger modified)");
      }
      if (!service.has_value()) {
        return Status::Corruption("audit: signature before genesis state");
      }
      ASSIGN_OR_RETURN(crypto::Certificate signer,
                       NodeCertFrom(state, sr.node_id));
      RETURN_IF_ERROR(crypto::VerifyCertificate(signer, *service));
      if (options.batch) {
        // Queue for VerifyBatch; any failure aborts the audit at flush, so
        // the optimistic verified_seqno below never survives a bad batch.
        sig_jobs.push_back({entry.seqno, sr.SignedPayload(),
                            signer.public_key, sr.signature});
        if (sig_jobs.size() >= options.verify_batch_width) {
          RETURN_IF_ERROR(flush_sigs());
        }
      } else if (!crypto::Verify(signer.public_key, sr.SignedPayload(),
                                 ByteSpan(sr.signature.data(),
                                          sr.signature.size()))) {
        return Status::Corruption("audit: bad root signature at " +
                                  std::to_string(entry.seqno));
      }
      report.verified_seqno = entry.seqno;
    }

    if (entry.type == ledger::EntryType::kGovernance) {
      ++report.governance_entries;
    }

    ApplyPublic(*ws, &state);
    tree.Append(merkle::TransactionLeafContent(
        entry.view, entry.seqno, entry.WriteSetDigest(), entry.claims_digest));

    if (!service.has_value()) {
      // Genesis entry: establish (or check) the service identity.
      ASSIGN_OR_RETURN(crypto::PublicKeyBytes id, ServiceIdentityFrom(state));
      if (expected_service.has_value() && id != *expected_service) {
        return Status::PermissionDenied(
            "audit: ledger chains to a different service identity");
      }
      service = id;
      report.service_identity_hex =
          HexEncode(ByteSpan(id.data(), id.size()));
    }
  }
  if (options.batch) RETURN_IF_ERROR(flush_sigs());
  return report;
}

}  // namespace ccf::node
