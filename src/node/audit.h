// Offline ledger audit (paper §6.2).
//
// "Integrity protection with signature transactions ensures that a
// malicious party cannot modify the ledger undetected whilst it is in
// persistent storage, however, the ledger could be rolled back to a
// previously valid prefix."
//
// The auditor works with no access to a running service or the ledger
// secret: it replays the PUBLIC halves of every transaction, rebuilds the
// Merkle tree, and verifies each signature transaction's signed root
// against the reconstructed tree, the signing node's certificate, and the
// service identity. Governance (proposals, ballots, membership, code ids)
// is fully public, so the whole governance history is auditable offline.

#ifndef CCF_NODE_AUDIT_H_
#define CCF_NODE_AUDIT_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "crypto/sign.h"
#include "ledger/ledger.h"

namespace ccf::node {

struct AuditReport {
  uint64_t entries = 0;
  uint64_t signature_transactions = 0;
  // Entries up to here are covered by a verified signature (its own or a
  // later one); a suffix beyond it is present but not yet signed.
  uint64_t verified_seqno = 0;
  uint64_t governance_entries = 0;
  // Signatures that went through crypto::VerifyBatch (0 in serial mode).
  uint64_t batched_verifications = 0;
  // The service identity the ledger chains to (hex public key).
  std::string service_identity_hex;
};

struct AuditOptions {
  // Check root signatures with crypto::VerifyBatch. Off = one Verify per
  // signature, the serial baseline (bench_ablation_crypto compares the two).
  bool batch = true;
  // Signatures accumulated before a VerifyBatch flush.
  size_t verify_batch_width = 32;
};

// Audits `ledger`. If `expected_service` is provided the genesis service
// identity must match it; otherwise it is taken from the genesis entry
// (trust-on-first-use) and reported.
Result<AuditReport> AuditLedger(
    const ledger::Ledger& ledger,
    std::optional<crypto::PublicKeyBytes> expected_service = std::nullopt,
    AuditOptions options = {});

}  // namespace ccf::node

#endif  // CCF_NODE_AUDIT_H_
