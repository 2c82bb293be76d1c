// KV snapshot serialization (paper §4.4): the serialized state is
// deterministic, so every node snapshotting the same committed state
// produces identical bytes and the content digest committed as snapshot
// evidence is well-defined. FilterState/MergeStates split a state into
// its public (plaintext) and private (sealed) halves for the bundle.

#include <gtest/gtest.h>

#include <string>

#include "crypto/sha256.h"
#include "kv/snapshot.h"
#include "kv/store.h"

namespace ccf::kv {
namespace {

void Commit(Store* store, const std::string& map, const std::string& key,
            const std::string& value) {
  Tx tx = store->BeginTx();
  tx.Handle(map)->PutStr(key, value);
  ASSERT_TRUE(store->CommitTx(&tx).ok());
}

// The property the snapshot evidence digest relies on: a primary
// committing transactions and a replica replaying the resulting write
// sets serialize to identical bytes, whatever the in-memory construction
// order (maps and keys are emitted sorted, versions included).
TEST(KvSnapshot, SerializeDeterministicAcrossReplicationPaths) {
  Store primary;
  std::vector<std::pair<WriteSet, uint64_t>> history;
  auto record = [&](const std::string& map, const std::string& key,
                    const std::string& value) {
    Tx tx = primary.BeginTx();
    tx.Handle(map)->PutStr(key, value);
    auto result = primary.CommitTx(&tx);
    ASSERT_TRUE(result.ok());
    history.emplace_back(result->write_set, result->seqno);
  };
  record("public:alpha", "k1", "v1");
  record("private:beta", "k2", "v2");
  record("public:alpha", "k0", "v0");

  Store replica;  // applies the replicated write sets, like a backup
  for (const auto& [ws, seqno] : history) {
    ASSERT_TRUE(replica.ApplyWriteSet(ws, seqno).ok());
  }

  EXPECT_EQ(SerializeState(primary.current_state()),
            SerializeState(replica.current_state()));
  EXPECT_EQ(crypto::Sha256::Hash(SerializeState(primary.current_state())),
            crypto::Sha256::Hash(SerializeState(replica.current_state())));
}

TEST(KvSnapshot, SerializeRoundTrip) {
  Store store;
  Commit(&store, "public:alpha", "k", "v");
  Commit(&store, "private:beta", "x", std::string(300, 'y'));

  Bytes ser = SerializeState(store.current_state());
  auto back = DeserializeState(ser);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeState(*back), ser);

  Store restored;
  restored.InstallState(*back, 2);
  EXPECT_EQ(restored.GetStr("public:alpha", "k"), "v");
  EXPECT_EQ(restored.GetStr("private:beta", "x"), std::string(300, 'y'));
}

TEST(KvSnapshot, DeserializeRejectsCorruption) {
  Store store;
  Commit(&store, "public:alpha", "k", "v");
  Bytes ser = SerializeState(store.current_state());
  Bytes truncated(ser.begin(), ser.end() - 1);
  EXPECT_FALSE(DeserializeState(truncated).ok());
}

TEST(KvSnapshot, FilterSplitsByVisibilityAndMergeRejoins) {
  Store store;
  Commit(&store, "public:alpha", "pk", "pv");
  Commit(&store, "public:ccf.internal.nodes", "n0", "info");
  Commit(&store, "private:beta", "sk", "sv");

  State pub = FilterState(store.current_state(), /*public_only=*/true);
  State priv = FilterState(store.current_state(), /*public_only=*/false);

  Store pub_store;
  pub_store.InstallState(pub, 1);
  EXPECT_EQ(pub_store.GetStr("public:alpha", "pk"), "pv");
  EXPECT_FALSE(pub_store.GetStr("private:beta", "sk").has_value());

  Store priv_store;
  priv_store.InstallState(priv, 1);
  EXPECT_EQ(priv_store.GetStr("private:beta", "sk"), "sv");
  EXPECT_FALSE(priv_store.GetStr("public:alpha", "pk").has_value());

  auto merged = MergeStates(pub, priv);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(SerializeState(*merged), SerializeState(store.current_state()));
}

TEST(KvSnapshot, MergeRejectsOverlappingMaps) {
  Store store;
  Commit(&store, "public:alpha", "k", "v");
  State pub = FilterState(store.current_state(), /*public_only=*/true);
  auto merged = MergeStates(pub, pub);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), Status::Code::kFailedPrecondition);
}

TEST(KvSnapshot, TakeAndInstallSnapshot) {
  Store store;
  Commit(&store, "public:alpha", "k", "v");
  Commit(&store, "private:beta", "x", "y");
  store.Compact(store.current_seqno());

  Bytes snap = SerializeState(store.committed_state());

  auto state = DeserializeState(snap);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  Store restored;
  restored.InstallState(state.take(), store.committed_seqno());
  EXPECT_EQ(restored.current_seqno(), store.committed_seqno());
  EXPECT_EQ(restored.GetStr("public:alpha", "k"), "v");
  EXPECT_EQ(restored.GetStr("private:beta", "x"), "y");

  // The bytes are a pure function of the captured state: serializing the
  // restored store again yields the same bytes, hence the same digest.
  EXPECT_EQ(SerializeState(restored.committed_state()), snap);
}

}  // namespace
}  // namespace ccf::kv
