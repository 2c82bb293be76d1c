// Verified snapshot bundles end to end (paper §4.4, §3.5): the primary
// commits snapshot evidence to a public map, ships the receipted bundle to
// the host, joiners and disaster recovery bootstrap from the verified
// bundle plus the ledger suffix, and anything forged or corrupt is
// rejected by receipt verification before any install.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hex.h"
#include "node/snapshots.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("ccf_snapshot_test_" + std::to_string(counter_++) + "_" +
            std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string path() const { return dir_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

uint64_t WriteLog(node::Client* client, const char* path, int64_t id,
                  const std::string& msg) {
  auto resp = client->PostJson(path, LogBody(id, msg));
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  auto txid = node::Client::TxIdOf(*resp);
  return txid.has_value() ? txid->second : 0;
}

// Drives the service until the host has persisted a snapshot bundle.
bool WaitForHostSnapshot(ServiceHarness* h, node::Node* n,
                         uint64_t timeout_ms = 10000) {
  return h->env().RunUntil([&] { return n->host_snapshot_seqno() > 0; },
                           timeout_ms);
}

TEST(SnapshotSeal, DeterministicRoundTripAndTamperRejection) {
  kv::LedgerSecret secret{ToBytes("0123456789abcdef0123456789abcdef")};
  Bytes plain = ToBytes("the private half of the state");

  Bytes sealed = node::SealSnapshotPrivate(secret, /*view=*/2, /*seqno=*/50,
                                           plain);
  // Determinism: same secret + position + plaintext -> identical bytes,
  // so the bundle's content digest is comparable across nodes.
  EXPECT_EQ(node::SealSnapshotPrivate(secret, 2, 50, plain), sealed);

  auto opened = node::OpenSnapshotPrivate(secret, 2, 50, sealed);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, plain);

  // Wrong position, wrong secret, or a flipped byte all fail the AEAD.
  EXPECT_FALSE(node::OpenSnapshotPrivate(secret, 2, 51, sealed).ok());
  EXPECT_FALSE(node::OpenSnapshotPrivate(secret, 3, 50, sealed).ok());
  kv::LedgerSecret other{ToBytes("fedcba9876543210fedcba9876543210")};
  EXPECT_FALSE(node::OpenSnapshotPrivate(other, 2, 50, sealed).ok());
  Bytes tampered = sealed;
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_FALSE(node::OpenSnapshotPrivate(secret, 2, 50, tampered).ok());
}

// The host-persisted bundle verifies against the service identity, and
// every forgery -- state bytes, evidence entry, receipt, or a different
// service -- is rejected before anything could be installed.
TEST(SnapshotBundle, PersistedBundleVerifiesAndForgeriesAreRejected) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  for (int i = 0; i < 60; ++i) {
    const char* path = (i % 5 == 0) ? "/app/log_public" : "/app/log";
    ASSERT_GT(WriteLog(client, path, i, "m" + std::to_string(i)), 0u);
  }
  ASSERT_TRUE(WaitForHostSnapshot(&h, n0));

  TempDir dir;
  ASSERT_TRUE(n0->SaveSnapshotToDir(dir.path()).ok());
  auto bundle = node::LoadLatestBundleFromDir(dir.path());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  EXPECT_EQ(bundle->seqno, n0->host_snapshot_seqno());
  EXPECT_EQ(bundle->leaves.size(), bundle->seqno);
  EXPECT_FALSE(bundle->configs.empty());
  EXPECT_GT(bundle->evidence_seqno, bundle->seqno);
  ASSERT_TRUE(node::VerifyBundle(*bundle, n0->service_identity()).ok());

  // The public half restores without any secrets and contains the
  // application's public writes.
  auto pub = node::RestorePublicState(*bundle);
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  kv::Store probe;
  probe.InstallState(*pub, bundle->seqno);
  EXPECT_EQ(probe.GetStr(apps::kPublicMessagesMap, "5"), "m5");
  // ...but none of the private writes, which travel sealed.
  EXPECT_FALSE(probe.GetStr(apps::kPrivateMessagesMap, "1").has_value());

  {  // Forged state bytes: content digest no longer matches the evidence.
    node::SnapshotBundle forged = *bundle;
    forged.public_data[forged.public_data.size() / 2] ^= 1;
    Status s = node::VerifyBundleContent(forged);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), Status::Code::kPermissionDenied) << s.ToString();
  }
  {  // Forged sealed half: same digest check catches it.
    node::SnapshotBundle forged = *bundle;
    forged.private_sealed[0] ^= 1;
    EXPECT_FALSE(node::VerifyBundleContent(forged).ok());
  }
  {  // Forged evidence entry: parse failure or digest mismatch.
    node::SnapshotBundle forged = *bundle;
    forged.evidence_entry[forged.evidence_entry.size() / 2] ^= 1;
    EXPECT_FALSE(node::VerifyBundleContent(forged).ok());
  }
  {  // Forged receipt bytes.
    node::SnapshotBundle forged = *bundle;
    forged.receipt[forged.receipt.size() / 2] ^= 1;
    EXPECT_FALSE(node::VerifyBundle(forged, n0->service_identity()).ok());
  }
  {  // Intact bundle, wrong service: the receipt chain must not verify.
    crypto::KeyPair other = crypto::KeyPair::FromSeed(ToBytes("not-the-svc"));
    EXPECT_TRUE(node::VerifyBundleContent(*bundle).ok());
    EXPECT_FALSE(node::VerifyBundle(*bundle, other.public_key()).ok());
  }
}

// A joiner on a long ledger bootstraps from the verified bundle: its host
// ledger starts at the snapshot horizon (no retired prefix was replayed)
// and it converges to the service state, private writes included.
TEST(SnapshotJoin, JoinerBootstrapsFromVerifiedSnapshot) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  for (int i = 0; i < 60; ++i) {
    ASSERT_GT(WriteLog(client, "/app/log", i, "m" + std::to_string(i)), 0u);
  }
  ASSERT_TRUE(WaitForHostSnapshot(&h, n0));
  uint64_t snapshot_seqno = n0->host_snapshot_seqno();
  ASSERT_GE(snapshot_seqno, 50u);

  node::Node* n1 = h.Join("n1");
  ASSERT_TRUE(h.env().RunUntil([&] { return n1->has_joined(); }, 8000));

  // The join handed over the bundle, not the full ledger: the joiner's
  // ledger starts at the snapshot horizon.
  EXPECT_GE(n1->host_ledger().base_seqno(), snapshot_seqno);
  EXPECT_GE(n1->commit_seqno(), snapshot_seqno);

  ASSERT_TRUE(h.TrustNode("n1"));
  ASSERT_TRUE(h.WaitForCommitEverywhere(n0->commit_seqno()));
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        return ServiceHarness::StateDigest(n1) ==
               ServiceHarness::StateDigest(n0);
      },
      8000));
  // Private state crossed inside the sealed half of the bundle.
  EXPECT_EQ(n1->store().GetStr(apps::kPrivateMessagesMap, "7"), "m7");
}

// A node that joined from a bundle starts its consensus log at the bundle
// seqno. Once elected, the bundle it verified and installed is the only
// way it can hand state to a joiner (the entries below the log base are
// gone), so it must keep that bundle and serve it.
TEST(SnapshotJoin, ElectedBundleJoinerServesItsRetainedBundle) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Node* n1 = h.JoinAndTrust("n1");  // before any bundle: replays
  ASSERT_NE(n1, nullptr);
  node::Client* client = h.UserClient("user0");
  for (int i = 0; i < 60; ++i) {
    ASSERT_GT(WriteLog(client, "/app/log", i, "m" + std::to_string(i)), 0u);
  }
  ASSERT_TRUE(WaitForHostSnapshot(&h, n0));

  // n2 never takes a snapshot of its own: the only bundle it can hold is
  // the one it joined from.
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->snapshot_interval_txs = 1u << 30; });
  node::Node* n2 = h.JoinAndTrust("n2");
  ASSERT_NE(n2, nullptr);
  const uint64_t bundle_seqno = n2->raft().base_seqno();
  ASSERT_GE(bundle_seqno, n0->host_snapshot_seqno());
  ASSERT_EQ(n2->raft().GetLogEntry(1), nullptr);

  // Make n2 the only electable survivor: n1 misses a few commits, then
  // the primary dies.
  h.env().Isolate("n1", true);
  for (int i = 0; i < 5; ++i) {
    ASSERT_GT(WriteLog(client, "/app/log", 100 + i, "late"), 0u);
  }
  ASSERT_TRUE(h.env().RunUntil(
      [&] { return n2->commit_seqno() >= n0->last_seqno(); }, 8000));
  h.DropClients();
  h.env().SetUp("n0", false);
  h.env().Isolate("n1", false);
  ASSERT_TRUE(h.env().RunUntil([&] { return n2->IsPrimary(); }, 8000));

  // A new node joins through n2 and gets n2's retained bundle.
  node::Node* n3 = h.Join("n3", nullptr, "n2");
  ASSERT_TRUE(h.env().RunUntil([&] { return n3->has_joined(); }, 8000));
  EXPECT_GE(n3->host_ledger().base_seqno(), bundle_seqno);
  ASSERT_TRUE(h.TrustNode("n3", 8000, "n2"));

  node::Client* via_n2 = h.UserClient("user0", "n2");
  ASSERT_GT(WriteLog(via_n2, "/app/log", 200, "after-failover"), 0u);
  ASSERT_TRUE(h.WaitForCommitEverywhere(n2->last_seqno()));
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        return ServiceHarness::StateDigest(n3) ==
               ServiceHarness::StateDigest(n2);
      },
      8000));
  EXPECT_EQ(n3->store().GetStr(apps::kPrivateMessagesMap, "7"), "m7");
  EXPECT_EQ(n3->store().GetStr(apps::kPrivateMessagesMap, "200"),
            "after-failover");
}

// Satellite regression: a node that serves a join inside a reconfiguration
// window must hand over ALL active configurations, not just the oldest --
// otherwise the joiner's consensus starts blind to the incoming config.
TEST(SnapshotJoin, JoinDuringReconfigWindowSeesAllActiveConfigs) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();

  node::Node* n1 = h.Join("n1");
  ASSERT_TRUE(h.env().RunUntil([&] { return n1->has_joined(); }, 8000));

  // Hold the joint window open: isolate n1, then trust it. The
  // reconfiguration entry appends on n0 but cannot commit (the new config
  // {n0, n1} needs n1's ack), so both configs stay active on n0.
  h.env().Isolate("n1", true);
  ASSERT_TRUE(h.RunProposal("transition_node_to_trusted", [] {
    json::Object args;
    args["node_id"] = "n1";
    return json::Value(std::move(args));
  }()));
  ASSERT_TRUE(h.env().RunUntil(
      [&] { return n0->raft().active_configs().size() == 2; }, 4000));

  // A third node joins inside the window.
  node::Node* n2 = h.Join("n2");
  ASSERT_TRUE(h.env().RunUntil([&] { return n2->has_joined(); }, 8000));

  bool saw_incoming_config = false;
  for (const auto& cfg : n2->raft().active_configs()) {
    if (cfg.nodes.count("n1") > 0) saw_incoming_config = true;
  }
  EXPECT_GE(n2->raft().active_configs().size(), 2u);
  EXPECT_TRUE(saw_incoming_config)
      << "joiner was handed only the oldest active config";

  // Heal and let the reconfiguration finish so teardown is clean.
  h.env().Isolate("n1", false);
  h.env().RunUntil(
      [&] { return n0->raft().active_configs().size() == 1; }, 8000);
}

// Historical queries below the snapshot horizon answer a terminal 404
// carrying the horizon, instead of retrying a fetch that can never
// succeed (the chunks were retired).
TEST(SnapshotCompaction, HistoricalQueryBelowHorizonIs404WithHorizon) {
  ServiceHarness h;
  h.AddUser("user0");
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->snapshot_retire_ledger = true; });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  uint64_t early = WriteLog(client, "/app/log", 99, "early-write");
  ASSERT_GT(early, 0u);
  for (int i = 0; i < 60; ++i) {
    ASSERT_GT(WriteLog(client, "/app/log", i % 3, "m" + std::to_string(i)),
              0u);
  }
  ASSERT_TRUE(WaitForHostSnapshot(&h, n0));
  // Retirement ran: the host ledger now starts at the snapshot horizon.
  ASSERT_TRUE(h.env().RunUntil(
      [&] { return n0->host_ledger().base_seqno() >= early; }, 8000));
  uint64_t horizon = n0->host_ledger().base_seqno();

  std::string path =
      "/app/log/historical?id=99&seqno=" + std::to_string(early);
  Result<http::Response> final = Status::Unavailable("none");
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        final = client->Get(path);
        return final.ok() && final->status != 202;
      },
      8000));
  ASSERT_EQ(final->status, 404) << ToString(final->body);
  auto body = json::Parse(ToString(final->body));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->GetInt("horizon"), static_cast<int64_t>(horizon));
  const json::Value* err = body->Get("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->GetString("code"), "Compacted");
  EXPECT_NE(err->GetString("message").find("compacted"), std::string::npos);
  EXPECT_GT(n0->historical().stats().compacted, 0u);

  // The verdict is sticky: an immediate repeat answers 404 from the cache
  // without another fetch.
  uint64_t fetches_before = n0->historical().stats().fetches;
  auto again = client->Get(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, 404);
  EXPECT_EQ(n0->historical().stats().fetches, fetches_before);
}

// Disaster recovery from a directory whose ledger starts past seqno 1:
// the snapshot bundle is required, verified against the evidence receipt,
// and private state below the horizon is restored from the sealed half
// once members submit their shares.
TEST(SnapshotRecovery, RecoveryFromRetiredLedgerUsesVerifiedBundle) {
  ServiceHarness h;
  h.AddUser("user0");
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->snapshot_retire_ledger = true; });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  for (int i = 0; i < 60; ++i) {
    ASSERT_GT(WriteLog(client, "/app/log", i, "pre-" + std::to_string(i)),
              0u);
  }
  ASSERT_TRUE(WaitForHostSnapshot(&h, n0));
  ASSERT_TRUE(h.env().RunUntil(
      [&] { return n0->host_ledger().base_seqno() > 0; }, 8000));
  // A write that lands in the suffix, above the snapshot horizon.
  ASSERT_GT(WriteLog(client, "/app/log", 777, "suffix-write"), 0u);
  ASSERT_TRUE(h.env().RunUntil(
      [&] { return n0->commit_seqno() >= n0->last_seqno(); }, 8000));

  TempDir dir;
  ASSERT_TRUE(n0->SaveLedgerToDir(dir.path()).ok());
  ASSERT_TRUE(n0->SaveSnapshotToDir(dir.path()).ok());
  uint64_t horizon = n0->host_ledger().base_seqno();
  h.DropClients();
  h.env().SetUp("n0", false);

  {  // A corrupted bundle is refused outright -- never installed.
    TempDir bad;
    for (const auto& de : std::filesystem::directory_iterator(dir.path())) {
      std::filesystem::copy(de.path(),
                            std::filesystem::path(bad.path()) /
                                de.path().filename());
    }
    std::filesystem::path bundle_file;
    for (const auto& de : std::filesystem::directory_iterator(bad.path())) {
      if (de.path().filename().string().rfind("snapshot_", 0) == 0) {
        bundle_file = de.path();
      }
    }
    ASSERT_FALSE(bundle_file.empty());
    std::string raw;
    {
      std::ifstream in(bundle_file, std::ios::binary);
      raw.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(raw.empty());
    raw[raw.size() / 2] ^= 1;
    {
      std::ofstream out(bundle_file, std::ios::binary | std::ios::trunc);
      out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
    }
    auto refused = node::Node::CreateRecoveryFromDir(
        FastNodeConfig("rbad", 9), bad.path(), nullptr, &h.env());
    EXPECT_FALSE(refused.ok());
  }
  {  // A retired ledger without its bundle cannot be recovered from.
    TempDir missing;
    for (const auto& de : std::filesystem::directory_iterator(dir.path())) {
      if (de.path().filename().string().rfind("snapshot_", 0) == 0) continue;
      std::filesystem::copy(de.path(),
                            std::filesystem::path(missing.path()) /
                                de.path().filename());
    }
    auto refused = node::Node::CreateRecoveryFromDir(
        FastNodeConfig("rmiss", 10), missing.path(), nullptr, &h.env());
    EXPECT_FALSE(refused.ok());
  }

  // The genuine directory recovers: bundle verified, public state restored
  // from snapshot + suffix immediately.
  auto recovered = node::Node::CreateRecoveryFromDir(
      FastNodeConfig("r0", 7), dir.path(), nullptr, &h.env());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  node::Node* r0 = recovered->get();
  EXPECT_EQ(r0->host_ledger().base_seqno(), horizon);
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        return r0->IsPrimary() &&
               r0->service_status() == gov::ServiceStatus::kRecovering;
      },
      8000));
  // Private state (both below and above the horizon) is still sealed.
  EXPECT_FALSE(
      r0->store().GetStr(apps::kPrivateMessagesMap, "3").has_value());

  // Members submit shares; private state below the horizon comes from the
  // bundle's sealed half, above it from suffix replay.
  ASSERT_GT(SubmitRecoveryShares(&h.env(), r0, h.consortium()), 0u);
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        return r0->store()
            .GetStr(apps::kPrivateMessagesMap, "3")
            .has_value();
      },
      5000));
  EXPECT_EQ(r0->store().GetStr(apps::kPrivateMessagesMap, "3"), "pre-3");
  EXPECT_EQ(r0->store().GetStr(apps::kPrivateMessagesMap, "777"),
            "suffix-write");
}

// Writes `writes` log entries on a fresh one-node service, loses the node,
// and recovers the service from its ledger on a new node r0 with the
// members' shares, so r0 holds the private state again. r0 is added to the
// harness, so clients and joins through "r0" pin the recovered identity.
node::Node* RecoverService(ServiceHarness* h, int writes) {
  h->AddUser("user0");
  node::Node* n0 = h->StartGenesis();
  node::Client* client = h->UserClient("user0");
  for (int i = 0; i < writes; ++i) {
    EXPECT_GT(WriteLog(client, "/app/log", i, "pre-" + std::to_string(i)),
              0u);
  }
  EXPECT_TRUE(h->env().RunUntil(
      [&] { return n0->commit_seqno() >= n0->last_seqno(); }, 8000));
  ledger::Ledger surviving = n0->host_ledger();
  h->DropClients();
  h->env().SetUp("n0", false);

  node::Node* r0 =
      (h->nodes()["r0"] = node::Node::CreateRecovery(
           FastNodeConfig("r0", 7), std::move(surviving), nullptr, &h->env()))
          .get();
  EXPECT_TRUE(h->env().RunUntil(
      [&] {
        return r0->IsPrimary() &&
               r0->service_status() == gov::ServiceStatus::kRecovering;
      },
      8000));
  EXPECT_GT(SubmitRecoveryShares(&h->env(), r0, h->consortium()), 0u);
  return r0;
}

// A recovered node snapshots at its first commits, while only the public
// state is restored. That capture must not become the bundle it serves
// once members restore the private state: a node joining the recovered
// service must get the private state too.
TEST(SnapshotRecovery, JoinerOfRecoveredServiceGetsPrivateState) {
  ServiceHarness h;
  node::Node* r0 = RecoverService(&h, 60);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_TRUE(h.env().RunUntil([&] { return r0->host_snapshot_seqno() > 0; },
                               8000));

  apps::LoggingApp app;
  auto j1 = node::Node::CreateJoiner(FastNodeConfig("j1", 3),
                                     r0->service_identity(), "r0", &app,
                                     &h.env());
  ASSERT_TRUE(h.env().RunUntil([&] { return j1->has_joined(); }, 8000));
  EXPECT_GT(j1->host_ledger().base_seqno(), 0u);  // joined from the bundle
  EXPECT_EQ(j1->store().GetStr(apps::kPrivateMessagesMap, "3"), "pre-3");
}

// The recovered consensus log starts at the restored ledger end, so a
// joiner can only get the state below it from a bundle. With a restored
// ledger shorter than snapshot_interval_txs, the recovered node must
// still produce one at once rather than after that many new commits: a
// quiet recovered service would otherwise never admit a node.
TEST(SnapshotRecovery, ShortRecoveredServiceAdmitsJoinerWithoutNewWrites) {
  ServiceHarness h;
  node::Node* r0 = RecoverService(&h, 10);  // well under the interval of 50
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_LT(r0->commit_seqno(), FastNodeConfig("r0", 7).snapshot_interval_txs);

  // Join at once, with no user writes to the recovered service. The joiner
  // may arrive before the bundle exists; then it starts at seqno 0 and
  // gets the bundle through snapshot catch-up once trusted.
  node::Node* j1 = h.Join("j1", nullptr, "r0");
  ASSERT_TRUE(h.env().RunUntil([&] { return j1->has_joined(); }, 8000));
  ASSERT_TRUE(h.TrustNode("j1", 8000, "r0"));
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        return j1->store().GetStr(apps::kPrivateMessagesMap, "9") == "pre-9";
      },
      8000));
  EXPECT_GT(r0->host_snapshot_seqno(), 0u);
  EXPECT_GE(j1->host_ledger().base_seqno(), r0->raft().base_seqno());
  EXPECT_EQ(j1->store().GetStr(apps::kPrivateMessagesMap, "3"), "pre-3");
}

}  // namespace
}  // namespace ccf::testing
