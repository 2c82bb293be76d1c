// Offline ledger audit tests (paper §6.2): tampering is detected; rollback
// to a valid signed prefix is — by design — not (that is the documented
// limitation the paper discusses).

#include <gtest/gtest.h>

#include <filesystem>

#include "common/hex.h"
#include "node/audit.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

// A service with some user traffic and one governance action.
std::pair<ledger::Ledger, crypto::PublicKeyBytes> BuildAuditedLedger() {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");
  for (int i = 0; i < 12; ++i) {
    json::Object msg;
    msg["id"] = i;
    msg["msg"] = "audit-" + std::to_string(i);
    auto w = client->PostJson("/app/log", json::Value(std::move(msg)));
    EXPECT_TRUE(w.ok() && w->status == 200);
  }
  json::Object args;
  args["code_id"] = "audited-code-v2";
  EXPECT_TRUE(h.RunProposal("add_node_code", json::Value(std::move(args))));
  h.env().RunUntil([&] { return n0->commit_seqno() >= n0->last_seqno(); },
                   5000);
  return {n0->host_ledger(), n0->service_identity()};
}

TEST(LedgerAudit, CleanLedgerVerifies) {
  auto [ledger, service] = BuildAuditedLedger();
  auto report = node::AuditLedger(ledger, service);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->entries, ledger.last_seqno());
  EXPECT_GT(report->signature_transactions, 0u);
  EXPECT_GT(report->verified_seqno, 0u);
  EXPECT_GT(report->governance_entries, 0u);
  EXPECT_EQ(report->service_identity_hex,
            HexEncode(ByteSpan(service.data(), service.size())));
}

TEST(LedgerAudit, TrustOnFirstUseReportsIdentity) {
  auto [ledger, service] = BuildAuditedLedger();
  auto report = node::AuditLedger(ledger, std::nullopt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->service_identity_hex,
            HexEncode(ByteSpan(service.data(), service.size())));
}

TEST(LedgerAudit, WrongServiceIdentityRejected) {
  auto [ledger, service] = BuildAuditedLedger();
  crypto::KeyPair other = crypto::KeyPair::FromSeed(ToBytes("impostor"));
  EXPECT_FALSE(node::AuditLedger(ledger, other.public_key()).ok());
}

TEST(LedgerAudit, TamperedPublicWriteDetected) {
  auto [ledger, service] = BuildAuditedLedger();
  // Flip a byte in some mid-ledger entry's public write set: the next
  // signature transaction's root no longer matches.
  ledger::Ledger tampered;
  for (const ledger::Entry& e : ledger.entries()) {
    ledger::Entry copy = e;
    if (e.seqno == 3 && !copy.public_ws.empty()) {
      copy.public_ws[copy.public_ws.size() / 2] ^= 0x01;
    }
    ASSERT_TRUE(tampered.Append(std::move(copy)).ok());
  }
  auto report = node::AuditLedger(tampered, service);
  EXPECT_FALSE(report.ok());
}

TEST(LedgerAudit, TamperedPrivatePayloadDetected) {
  // Even though the auditor cannot DECRYPT private writes, the write-set
  // digest covers the sealed bytes, so flipping them breaks the tree.
  auto [ledger, service] = BuildAuditedLedger();
  ledger::Ledger tampered;
  bool flipped = false;
  for (const ledger::Entry& e : ledger.entries()) {
    ledger::Entry copy = e;
    if (!flipped && !copy.private_sealed.empty()) {
      copy.private_sealed[0] ^= 0x01;
      flipped = true;
    }
    ASSERT_TRUE(tampered.Append(std::move(copy)).ok());
  }
  ASSERT_TRUE(flipped);
  EXPECT_FALSE(node::AuditLedger(tampered, service).ok());
}

TEST(LedgerAudit, ForgedSignatureDetected) {
  auto [ledger, service] = BuildAuditedLedger();
  // Replace a signature entry's signer signature with garbage bytes of
  // the right length (re-serializing the SignedRoot with a bad sig).
  ledger::Ledger tampered;
  bool forged = false;
  for (const ledger::Entry& e : ledger.entries()) {
    ledger::Entry copy = e;
    if (!forged && e.type == ledger::EntryType::kSignature) {
      // The signature bytes live inside the public write set hex; flip a
      // byte near the end of the payload.
      copy.public_ws[copy.public_ws.size() - 3] ^= 0x01;
      forged = true;
    }
    ASSERT_TRUE(tampered.Append(std::move(copy)).ok());
  }
  ASSERT_TRUE(forged);
  EXPECT_FALSE(node::AuditLedger(tampered, service).ok());
}

TEST(LedgerAudit, RollbackToSignedPrefixIsUndetectable) {
  // Paper §6.2: "the ledger could be rolled back to a previously valid
  // prefix" — the audit succeeds on a truncated ledger; only the entry
  // count reveals it. This test documents the limitation.
  auto [ledger, service] = BuildAuditedLedger();
  auto full = node::AuditLedger(ledger, service);
  ASSERT_TRUE(full.ok());

  // Truncate to the first signature transaction boundary.
  uint64_t cut = 0;
  for (const ledger::Entry& e : ledger.entries()) {
    if (e.type == ledger::EntryType::kSignature) {
      cut = e.seqno;
      break;
    }
  }
  ASSERT_GT(cut, 0u);
  ledger::Ledger rolled_back = ledger;
  rolled_back.Truncate(cut);
  auto report = node::AuditLedger(rolled_back, service);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->entries, full->entries);
}

TEST(LedgerAudit, BatchedReplayMatchesSerial) {
  // The batched audit path (crypto::VerifyBatch)
  // must accept exactly what the serial baseline accepts and produce the
  // same report, only faster.
  auto [ledger, service] = BuildAuditedLedger();
  node::AuditOptions serial;
  serial.batch = false;
  node::AuditOptions batched;
  batched.batch = true;
  batched.verify_batch_width = 4;  // force several flushes on a small ledger

  auto a = node::AuditLedger(ledger, service, serial);
  auto b = node::AuditLedger(ledger, service, batched);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->entries, b->entries);
  EXPECT_EQ(a->signature_transactions, b->signature_transactions);
  EXPECT_EQ(a->verified_seqno, b->verified_seqno);
  EXPECT_EQ(a->governance_entries, b->governance_entries);
  EXPECT_EQ(a->service_identity_hex, b->service_identity_hex);
  // The batch kernels actually engaged (and only in batch mode).
  EXPECT_EQ(a->batched_verifications, 0u);
  EXPECT_GT(b->batched_verifications, 0u);
}

TEST(LedgerAudit, BatchedReplayDetectsTampering) {
  // Forged signatures must not slip through the batched path: the
  // VerifyBatch failure falls back to per-signature checks and the audit
  // still rejects.
  auto [ledger, service] = BuildAuditedLedger();
  ledger::Ledger tampered;
  bool forged = false;
  for (const ledger::Entry& e : ledger.entries()) {
    ledger::Entry copy = e;
    if (!forged && e.type == ledger::EntryType::kSignature) {
      copy.public_ws[copy.public_ws.size() - 3] ^= 0x01;
      forged = true;
    }
    ASSERT_TRUE(tampered.Append(std::move(copy)).ok());
  }
  ASSERT_TRUE(forged);
  node::AuditOptions batched;
  batched.batch = true;
  batched.verify_batch_width = 4;
  EXPECT_FALSE(node::AuditLedger(tampered, service, batched).ok());
}

TEST(LedgerAudit, SurvivesSaveLoadRoundTrip) {
  auto [ledger, service] = BuildAuditedLedger();
  std::string dir = std::filesystem::temp_directory_path() /
                    ("ccf_audit_" + std::to_string(::getpid()));
  ASSERT_TRUE(ledger::SaveToDir(ledger, dir).ok());
  auto loaded = ledger::LoadFromDir(dir);
  ASSERT_TRUE(loaded.ok());
  auto report = node::AuditLedger(*loaded, service);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ccf::testing
