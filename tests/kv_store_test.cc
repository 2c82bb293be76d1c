#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "kv/encryptor.h"
#include "kv/snapshot.h"
#include "kv/store.h"

namespace ccf::kv {
namespace {

TEST(KvStore, EmptyStore) {
  Store store;
  EXPECT_EQ(store.current_seqno(), 0u);
  EXPECT_EQ(store.committed_seqno(), 0u);
  EXPECT_FALSE(store.Get("public:m", ToBytes("k")).has_value());
}

TEST(KvStore, WriteThenRead) {
  Store store;
  Tx tx = store.BeginTx();
  tx.Handle("public:m")->PutStr("k", "v");
  auto result = store.CommitTx(&tx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seqno, 1u);
  EXPECT_FALSE(result->write_set.empty());
  EXPECT_EQ(store.GetStr("public:m", "k"), "v");
  EXPECT_EQ(store.current_seqno(), 1u);
}

TEST(KvStore, ReadOwnWrites) {
  Store store;
  Tx tx = store.BeginTx();
  MapHandle* h = tx.Handle("private:m");
  EXPECT_FALSE(h->GetStr("k").has_value());
  h->PutStr("k", "v1");
  EXPECT_EQ(h->GetStr("k"), "v1");
  h->PutStr("k", "v2");
  EXPECT_EQ(h->GetStr("k"), "v2");
  h->RemoveStr("k");
  EXPECT_FALSE(h->GetStr("k").has_value());
}

TEST(KvStore, ReadOnlyTxGetsCurrentSeqno) {
  Store store;
  Tx w = store.BeginTx();
  w.Handle("public:m")->PutStr("a", "1");
  ASSERT_TRUE(store.CommitTx(&w).ok());

  Tx r = store.BeginTx();
  EXPECT_EQ(r.Handle("public:m")->GetStr("a"), "1");
  auto result = store.CommitTx(&r);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seqno, 1u);  // no new version
  EXPECT_TRUE(result->write_set.empty());
  EXPECT_EQ(store.current_seqno(), 1u);
}

TEST(KvStore, RemoveIsRecorded) {
  Store store;
  Tx t1 = store.BeginTx();
  t1.Handle("public:m")->PutStr("k", "v");
  ASSERT_TRUE(store.CommitTx(&t1).ok());

  Tx t2 = store.BeginTx();
  t2.Handle("public:m")->RemoveStr("k");
  auto result = store.CommitTx(&t2);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(store.GetStr("public:m", "k").has_value());
  // The write set carries the removal for replication.
  const MapWrites& writes = result->write_set.maps.at("public:m");
  EXPECT_FALSE(writes.at(ToBytes("k")).has_value());
}

TEST(KvStore, ConflictingReadAborts) {
  Store store;
  Tx setup = store.BeginTx();
  setup.Handle("public:m")->PutStr("k", "0");
  ASSERT_TRUE(store.CommitTx(&setup).ok());

  // Both transactions read k then write based on it.
  Tx a = store.BeginTx();
  Tx b = store.BeginTx();
  a.Handle("public:m")->GetStr("k");
  a.Handle("public:m")->PutStr("k", "a");
  b.Handle("public:m")->GetStr("k");
  b.Handle("public:m")->PutStr("k", "b");

  ASSERT_TRUE(store.CommitTx(&a).ok());
  auto result = store.CommitTx(&b);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kAborted);
  // Re-execution against the new state succeeds.
  Tx b2 = store.BeginTx();
  b2.Handle("public:m")->GetStr("k");
  b2.Handle("public:m")->PutStr("k", "b");
  EXPECT_TRUE(store.CommitTx(&b2).ok());
}

TEST(KvStore, BlindWritesDoNotConflict) {
  Store store;
  Tx a = store.BeginTx();
  Tx b = store.BeginTx();
  a.Handle("public:m")->PutStr("x", "a");
  b.Handle("public:m")->PutStr("y", "b");
  EXPECT_TRUE(store.CommitTx(&a).ok());
  EXPECT_TRUE(store.CommitTx(&b).ok());
  EXPECT_EQ(store.GetStr("public:m", "x"), "a");
  EXPECT_EQ(store.GetStr("public:m", "y"), "b");
}

TEST(KvStore, AbsentReadConflictsWithInsert) {
  Store store;
  Tx a = store.BeginTx();
  // a checks k is absent, then acts on it.
  EXPECT_FALSE(a.Handle("public:m")->GetStr("k").has_value());
  a.Handle("public:m")->PutStr("other", "1");

  Tx b = store.BeginTx();
  b.Handle("public:m")->PutStr("k", "inserted");
  ASSERT_TRUE(store.CommitTx(&b).ok());

  auto result = store.CommitTx(&a);
  EXPECT_FALSE(result.ok());
}

TEST(KvStore, ForeachConflictsWithAnyMapWrite) {
  Store store;
  Tx setup = store.BeginTx();
  setup.Handle("public:m")->PutStr("k1", "v1");
  ASSERT_TRUE(store.CommitTx(&setup).ok());

  Tx scan = store.BeginTx();
  int n = 0;
  scan.Handle("public:m")->Foreach([&](const Bytes&, const Bytes&) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 1);
  scan.Handle("public:m")->PutStr("summary", "1");

  Tx w = store.BeginTx();
  w.Handle("public:m")->PutStr("k2", "v2");
  ASSERT_TRUE(store.CommitTx(&w).ok());

  EXPECT_FALSE(store.CommitTx(&scan).ok());
}

TEST(KvStore, ForeachMergesOverlay) {
  Store store;
  Tx setup = store.BeginTx();
  setup.Handle("public:m")->PutStr("a", "1");
  setup.Handle("public:m")->PutStr("b", "2");
  ASSERT_TRUE(store.CommitTx(&setup).ok());

  Tx tx = store.BeginTx();
  MapHandle* h = tx.Handle("public:m");
  h->PutStr("c", "3");
  h->RemoveStr("a");
  h->PutStr("b", "2x");
  std::map<std::string, std::string> seen;
  h->Foreach([&](const Bytes& k, const Bytes& v) {
    seen[ToString(k)] = ToString(v);
    return true;
  });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["b"], "2x");
  EXPECT_EQ(seen["c"], "3");
  EXPECT_EQ(h->Size(), 2u);
}

TEST(KvStore, ApplyWriteSetOnBackup) {
  // Primary commits; the serialized write set replayed on a backup yields
  // identical state.
  Store primary;
  Store backup;
  for (int i = 0; i < 10; ++i) {
    Tx tx = primary.BeginTx();
    tx.Handle("public:m")->PutStr("k" + std::to_string(i),
                                  "v" + std::to_string(i));
    tx.Handle("private:p")->PutStr("s" + std::to_string(i),
                                   std::to_string(i * i));
    auto result = primary.CommitTx(&tx);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(backup.ApplyWriteSet(result->write_set, result->seqno).ok());
  }
  EXPECT_EQ(backup.current_seqno(), primary.current_seqno());
  EXPECT_EQ(SerializeState(backup.current_state()),
            SerializeState(primary.current_state()));
}

TEST(KvStore, ApplyWriteSetRejectsGaps) {
  Store store;
  WriteSet ws;
  ws.maps["public:m"][ToBytes("k")] = ToBytes("v");
  EXPECT_FALSE(store.ApplyWriteSet(ws, 5).ok());
  EXPECT_TRUE(store.ApplyWriteSet(ws, 1).ok());
  EXPECT_FALSE(store.ApplyWriteSet(ws, 1).ok());
}

TEST(KvStore, RollbackRestoresExactState) {
  Store store;
  std::vector<Bytes> state_at;
  state_at.push_back(SerializeState(store.current_state()));
  for (int i = 1; i <= 10; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("k", std::to_string(i));
    tx.Handle("public:m")->PutStr("k" + std::to_string(i), "x");
    ASSERT_TRUE(store.CommitTx(&tx).ok());
    state_at.push_back(SerializeState(store.current_state()));
  }
  ASSERT_TRUE(store.Rollback(4).ok());
  EXPECT_EQ(store.current_seqno(), 4u);
  EXPECT_EQ(SerializeState(store.current_state()), state_at[4]);
  EXPECT_EQ(store.GetStr("public:m", "k"), "4");
  EXPECT_FALSE(store.GetStr("public:m", "k7").has_value());
  // New writes continue from seqno 5.
  Tx tx = store.BeginTx();
  tx.Handle("public:m")->PutStr("k", "new5");
  auto result = store.CommitTx(&tx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seqno, 5u);
}

TEST(KvStore, RollbackBelowCommitRejected) {
  Store store;
  for (int i = 1; i <= 5; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("k", std::to_string(i));
    ASSERT_TRUE(store.CommitTx(&tx).ok());
  }
  ASSERT_TRUE(store.Compact(3).ok());
  EXPECT_FALSE(store.Rollback(2).ok());
  EXPECT_TRUE(store.Rollback(3).ok());
  EXPECT_EQ(store.GetStr("public:m", "k"), "3");
}

TEST(KvStore, CompactDropsOldVersionsButKeepsState) {
  Store store;
  for (int i = 1; i <= 10; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("k", std::to_string(i));
    ASSERT_TRUE(store.CommitTx(&tx).ok());
  }
  ASSERT_TRUE(store.Compact(7).ok());
  EXPECT_EQ(store.committed_seqno(), 7u);
  EXPECT_EQ(store.current_seqno(), 10u);
  EXPECT_EQ(store.GetStr("public:m", "k"), "10");
  // Versions <= 7 are gone except the committed one.
  EXPECT_FALSE(store.BeginTxAt(5).ok());
  EXPECT_TRUE(store.BeginTxAt(7).ok());
  EXPECT_TRUE(store.BeginTxAt(9).ok());
  // Idempotent / stale compaction is a no-op.
  EXPECT_TRUE(store.Compact(3).ok());
  EXPECT_EQ(store.committed_seqno(), 7u);
}

TEST(KvStore, BeginTxAtReadsHistoricalVersion) {
  Store store;
  for (int i = 1; i <= 5; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("k", std::to_string(i));
    ASSERT_TRUE(store.CommitTx(&tx).ok());
  }
  auto tx3 = store.BeginTxAt(3);
  ASSERT_TRUE(tx3.ok());
  EXPECT_EQ(tx3->Handle("public:m")->GetStr("k"), "3");
}

TEST(KvStore, StaleTxWithoutConflictCommits) {
  Store store;
  Tx a = store.BeginTx();
  a.Handle("public:m")->GetStr("unrelated");
  a.Handle("public:m")->PutStr("a", "1");

  Tx b = store.BeginTx();
  b.Handle("public:other")->PutStr("b", "2");
  ASSERT_TRUE(store.CommitTx(&b).ok());

  // a's base is stale but its reads are unaffected.
  EXPECT_TRUE(store.CommitTx(&a).ok());
}

// ----------------------------------------------------------- Write sets

TEST(WriteSet, PublicPrivateSplit) {
  WriteSet ws;
  ws.maps["public:gov"][ToBytes("k1")] = ToBytes("v1");
  ws.maps["private:app"][ToBytes("k2")] = ToBytes("v2");
  ws.maps["private:app"][ToBytes("k3")] = std::nullopt;

  Bytes pub = ws.SerializePublic();
  Bytes priv = ws.SerializePrivate();
  auto parsed = WriteSet::Parse(pub, priv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->maps, ws.maps);

  // Each half alone only contains its maps.
  auto pub_only = WriteSet::Parse(pub, {});
  ASSERT_TRUE(pub_only.ok());
  EXPECT_EQ(pub_only->maps.size(), 1u);
  EXPECT_TRUE(pub_only->maps.count("public:gov"));
}

TEST(WriteSet, EmptySerializesEmpty) {
  WriteSet ws;
  auto parsed = WriteSet::Parse(ws.SerializePublic(), ws.SerializePrivate());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(WriteSet, ParseRejectsCorrupt) {
  WriteSet ws;
  ws.maps["public:m"][ToBytes("k")] = ToBytes("v");
  Bytes data = ws.SerializePublic();
  data.pop_back();
  WriteSet out;
  EXPECT_FALSE(WriteSet::ParseInto(data, &out).ok());
}

// ------------------------------------------------------------ Snapshots

TEST(KvSnapshot, RoundTrip) {
  Store store;
  for (int i = 1; i <= 20; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("k" + std::to_string(i), "v");
    tx.Handle("private:p")->PutStr("s" + std::to_string(i), "w");
    ASSERT_TRUE(store.CommitTx(&tx).ok());
  }
  ASSERT_TRUE(store.Compact(20).ok());
  Bytes data = SerializeState(store.committed_state());

  auto state = DeserializeState(data);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  Store fresh;
  fresh.InstallState(state.take(), store.committed_seqno());
  EXPECT_EQ(fresh.current_seqno(), 20u);
  EXPECT_EQ(fresh.committed_seqno(), 20u);
  EXPECT_EQ(fresh.GetStr("public:m", "k7"), "v");
  EXPECT_EQ(SerializeState(fresh.current_state()),
            SerializeState(store.committed_state()));
}

TEST(KvSnapshot, DeterministicAcrossReplicas) {
  // Two stores reaching the same state through the same write sets produce
  // byte-identical snapshots (needed for snapshot evidence digests).
  Store a, b;
  for (int i = 1; i <= 15; ++i) {
    Tx tx = a.BeginTx();
    tx.Handle("public:m")->PutStr("k" + std::to_string(i % 5),
                                  std::to_string(i));
    auto result = a.CommitTx(&tx);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(b.ApplyWriteSet(result->write_set, result->seqno).ok());
  }
  ASSERT_TRUE(a.Compact(15).ok());
  ASSERT_TRUE(b.Compact(15).ok());
  EXPECT_EQ(SerializeState(a.committed_state()),
            SerializeState(b.committed_state()));
}

TEST(KvSnapshot, ConflictDetectionSurvivesInstall) {
  // Versions are preserved through a snapshot, so optimistic validation
  // still works on the restored store.
  Store store;
  Tx tx = store.BeginTx();
  tx.Handle("public:m")->PutStr("k", "v");
  ASSERT_TRUE(store.CommitTx(&tx).ok());
  ASSERT_TRUE(store.Compact(1).ok());

  auto state = DeserializeState(SerializeState(store.committed_state()));
  ASSERT_TRUE(state.ok());
  Store restored;
  restored.InstallState(state.take(), 1);

  Tx a = restored.BeginTx();
  a.Handle("public:m")->GetStr("k");
  a.Handle("public:m")->PutStr("k", "a");
  Tx b = restored.BeginTx();
  b.Handle("public:m")->GetStr("k");
  b.Handle("public:m")->PutStr("k", "b");
  ASSERT_TRUE(restored.CommitTx(&a).ok());
  EXPECT_FALSE(restored.CommitTx(&b).ok());
}

TEST(KvSnapshot, CorruptDataRejected) {
  Store store;
  Tx tx = store.BeginTx();
  tx.Handle("public:m")->PutStr("k", "v");
  ASSERT_TRUE(store.CommitTx(&tx).ok());
  ASSERT_TRUE(store.Compact(1).ok());
  Bytes data = SerializeState(store.committed_state());
  data.pop_back();
  EXPECT_FALSE(DeserializeState(data).ok());
}

// ------------------------------------------------------------ Encryptor

TEST(TxEncryptor, SealOpenRoundTrip) {
  crypto::Drbg drbg("encryptor", 0);
  LedgerSecret secret = LedgerSecret::Generate(&drbg);
  TxEncryptor enc(secret);
  Bytes plain = ToBytes("private writes");
  Bytes aad = ToBytes("public-digest");
  Bytes sealed = enc.Seal(2, 7, plain, aad);
  auto opened = enc.Open(2, 7, sealed, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plain);
}

TEST(TxEncryptor, WrongTxIdRejected) {
  crypto::Drbg drbg("encryptor", 1);
  TxEncryptor enc(LedgerSecret::Generate(&drbg));
  Bytes sealed = enc.Seal(2, 7, ToBytes("p"), {});
  EXPECT_FALSE(enc.Open(2, 8, sealed, {}).ok());
  EXPECT_FALSE(enc.Open(3, 7, sealed, {}).ok());
  EXPECT_TRUE(enc.Open(2, 7, sealed, {}).ok());
}

TEST(TxEncryptor, AadBindsPublicHalf) {
  crypto::Drbg drbg("encryptor", 2);
  TxEncryptor enc(LedgerSecret::Generate(&drbg));
  Bytes sealed = enc.Seal(1, 1, ToBytes("p"), ToBytes("digest-a"));
  EXPECT_FALSE(enc.Open(1, 1, sealed, ToBytes("digest-b")).ok());
}

TEST(TxEncryptor, DifferentSecretsIncompatible) {
  crypto::Drbg drbg("encryptor", 3);
  TxEncryptor a(LedgerSecret::Generate(&drbg));
  TxEncryptor b(LedgerSecret::Generate(&drbg));
  Bytes sealed = a.Seal(1, 1, ToBytes("p"), {});
  EXPECT_FALSE(b.Open(1, 1, sealed, {}).ok());
}

// ------------------------------------------------ retained-root bounding

// Retained full states are bounded by the cap no matter how long the
// uncommitted window grows; historical versions stay reachable because
// write sets are replayed on demand.
TEST(KvStore, RetainedRootsStayBounded) {
  Store store;
  store.SetRetainedRootCap(8);
  for (int i = 1; i <= 200; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("k" + std::to_string(i),
                                  "v" + std::to_string(i));
    ASSERT_TRUE(store.CommitTx(&tx).ok());
    EXPECT_LE(store.retained_root_count(), 8u);
  }
  EXPECT_EQ(store.current_seqno(), 200u);
}

TEST(KvStore, EvictedVersionsReconstructedForBeginTxAt) {
  Store store;
  store.SetRetainedRootCap(4);
  for (int i = 1; i <= 50; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("last", std::to_string(i));
    ASSERT_TRUE(store.CommitTx(&tx).ok());
  }
  // Seqno 10 is far below the newest 4 retained roots.
  auto tx10 = store.BeginTxAt(10);
  ASSERT_TRUE(tx10.ok()) << tx10.status().ToString();
  EXPECT_EQ(tx10->Handle("public:m")->GetStr("last"), "10");
  auto tx49 = store.BeginTxAt(49);
  ASSERT_TRUE(tx49.ok());
  EXPECT_EQ(tx49->Handle("public:m")->GetStr("last"), "49");
}

TEST(KvStore, RollbackToEvictedVersionRestoresExactState) {
  Store store;
  store.SetRetainedRootCap(2);
  for (int i = 1; i <= 30; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("last", std::to_string(i));
    tx.Handle("public:m")->PutStr("k" + std::to_string(i), "x");
    ASSERT_TRUE(store.CommitTx(&tx).ok());
  }
  ASSERT_TRUE(store.Rollback(7).ok());
  EXPECT_EQ(store.current_seqno(), 7u);
  EXPECT_EQ(store.GetStr("public:m", "last"), "7");
  EXPECT_EQ(store.GetStr("public:m", "k7"), "x");
  EXPECT_FALSE(store.GetStr("public:m", "k8").has_value());
}

TEST(KvStore, CompactOnEvictedVersionStillWorks) {
  Store store;
  store.SetRetainedRootCap(2);
  for (int i = 1; i <= 30; ++i) {
    Tx tx = store.BeginTx();
    tx.Handle("public:m")->PutStr("last", std::to_string(i));
    ASSERT_TRUE(store.CommitTx(&tx).ok());
  }
  ASSERT_TRUE(store.Compact(12).ok());
  EXPECT_EQ(store.committed_seqno(), 12u);
  EXPECT_FALSE(store.BeginTxAt(11).ok());  // below commit
  auto tx12 = store.BeginTxAt(12);
  ASSERT_TRUE(tx12.ok());
  EXPECT_EQ(tx12->Handle("public:m")->GetStr("last"), "12");
}

}  // namespace
}  // namespace ccf::kv
