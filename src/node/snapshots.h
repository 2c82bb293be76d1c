// Verified snapshot bundles (paper §4.4).
//
// "Nodes can begin from a snapshot and use the consensus layer to simply
// learn the transactions since." For that to be safe the snapshot itself
// must be verifiable: after taking a snapshot at seqno S the primary
// commits an *evidence* transaction to the public map
// "public:ccf.internal.snapshot_evidence" carrying the snapshot's content
// digest. Once the evidence commits under a signed Merkle root, an
// ordinary receipt (paper §3.5) for the evidence transaction proves — to a
// joiner, a recovering node, or an offline auditor — that the service
// committed to exactly these snapshot bytes. The bundle shipped to the
// host (and served to joiners) packages:
//
//   - the public-map state in plain text and the private-map state sealed
//     with a key derived from the ledger secret (deterministically, so
//     every node producing the snapshot produces identical bytes and the
//     content digest is well-defined without revealing private state),
//   - the Merkle leaf hashes for seqnos [1, S] so the receiver can extend
//     the tree and verify future receipts,
//   - ALL active consensus configurations at S (a snapshot taken inside a
//     reconfiguration window has two),
//   - the evidence transaction's ledger entry and its receipt.
//
// Everything that leaves the enclave is untrusted on the way back in:
// VerifyBundle re-derives the content digest and checks the receipt
// against the service identity before any install.

#ifndef CCF_NODE_SNAPSHOTS_H_
#define CCF_NODE_SNAPSHOTS_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "consensus/types.h"
#include "crypto/sha256.h"
#include "kv/encryptor.h"
#include "kv/store.h"
#include "ledger/ledger.h"
#include "merkle/receipt.h"

namespace ccf::node {

struct SnapshotBundle {
  uint64_t seqno = 0;  // snapshot covers committed state up to here
  uint64_t view = 0;
  Bytes public_data;     // plaintext kv::SerializeState of the public maps
  Bytes private_sealed;  // deterministically sealed state of private maps
  std::vector<merkle::Digest> leaves;  // Merkle leaf hashes for [1, seqno]
  std::vector<consensus::Configuration> configs;  // all active at seqno

  // Evidence binding (filled once the evidence transaction commits).
  uint64_t evidence_seqno = 0;
  Bytes evidence_entry;  // serialized ledger::Entry carrying the digest
  Bytes receipt;         // serialized merkle::Receipt for that entry

  Bytes Serialize() const;
  static Result<SnapshotBundle> Deserialize(ByteSpan data);

  // Digest committed as evidence: covers state, leaves and configs but NOT
  // the evidence fields (the evidence transaction commits after the
  // digest is computed).
  crypto::Sha256Digest ContentDigest() const;
};

// Deterministic sealing of the private half. The key is derived from the
// ledger secret via HKDF and the IV from the snapshot seqno, so two nodes
// sealing the same state at the same (view, seqno) produce identical
// ciphertext — a requirement for the content digest to be comparable
// across nodes.
Bytes SealSnapshotPrivate(const kv::LedgerSecret& secret, uint64_t view,
                          uint64_t seqno, ByteSpan plain);
Result<Bytes> OpenSnapshotPrivate(const kv::LedgerSecret& secret,
                                  uint64_t view, uint64_t seqno,
                                  ByteSpan sealed);

// Builds a bundle (without evidence fields) from a committed state.
SnapshotBundle BuildBundle(const kv::State& state, uint64_t seqno,
                           uint64_t view, const kv::LedgerSecret& secret,
                           std::vector<merkle::Digest> leaves,
                           std::vector<consensus::Configuration> configs);

// The JSON record committed to tables::kSnapshotEvidence:
//   {"digest":"<hex>","seqno":S,"view":V}
Bytes EvidenceRecord(const SnapshotBundle& bundle);

struct SnapshotEvidence {
  uint64_t seqno = 0;
  uint64_t view = 0;
  crypto::Sha256Digest digest{};
};

// Extracts the evidence record from a ledger entry's public write set.
Result<SnapshotEvidence> ParseEvidenceEntry(const ledger::Entry& entry);

// Structural verification: the bundle's evidence entry parses, matches
// the re-derived content digest, the leaf count matches the seqno, and
// the receipt is internally consistent with the evidence entry. Does NOT
// check the receipt signature chain.
Status VerifyBundleContent(const SnapshotBundle& bundle);

// Full verification: VerifyBundleContent plus the receipt verifies
// against the service identity. This MUST pass before any install.
Status VerifyBundle(const SnapshotBundle& bundle,
                    ByteSpan service_public_key);

// Reassembles KV state. RestorePublicState needs no secrets;
// RestoreState additionally opens the sealed private half and merges.
Result<kv::State> RestorePublicState(const SnapshotBundle& bundle);
Result<kv::State> RestoreState(const SnapshotBundle& bundle,
                               const kv::LedgerSecret& secret);

// Host-side persistence next to the ledger chunks: one file
// "snapshot_<seqno>" holding the serialized bundle; older snapshot files
// are removed on save. The raw form is what the host uses — it never
// interprets the bundle, it just stores bytes.
Status SaveRawBundleToDir(ByteSpan bundle, uint64_t seqno,
                          const std::string& dir);
Result<SnapshotBundle> LoadLatestBundleFromDir(const std::string& dir);

}  // namespace ccf::node

#endif  // CCF_NODE_SNAPSHOTS_H_
