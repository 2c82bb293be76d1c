// End-to-end integration tests: full CCF services under simulation.

#include <gtest/gtest.h>

#include <optional>

#include "common/hex.h"
#include "merkle/receipt.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

TEST(SingleNodeService, WriteAndReadViaClient) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  ASSERT_TRUE(n0->IsPrimary());

  node::Client* client = h.UserClient("user0");
  auto write = client->PostJson("/app/log", LogBody(42, "hello ledger"));
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  EXPECT_EQ(write->status, 200);
  auto txid = node::Client::TxIdOf(*write);
  ASSERT_TRUE(txid.has_value());
  EXPECT_GT(txid->second, 0u);

  auto read = client->Get("/app/log?id=42");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->status, 200);
  auto body = json::Parse(ToString(read->body));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->GetString("msg"), "hello ledger");
}

TEST(SingleNodeService, TxStatusReachesCommitted) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  auto write = client->PostJson("/app/log", LogBody(1, "status check"));
  ASSERT_TRUE(write.ok());
  auto txid = node::Client::TxIdOf(*write);
  ASSERT_TRUE(txid.has_value());

  // Poll the built-in tx endpoint until Committed (paper §3.2).
  std::string status;
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        auto resp = client->Get("/node/tx?view=" +
                                std::to_string(txid->first) + "&seqno=" +
                                std::to_string(txid->second));
        if (!resp.ok()) return false;
        auto body = json::Parse(ToString(resp->body));
        if (!body.ok()) return false;
        status = body->GetString("status");
        return status == "Committed";
      },
      5000))
      << "last status: " << status;
}

TEST(SingleNodeService, ReceiptVerifiesOffline) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  auto write = client->PostJson("/app/log", LogBody(7, "receipt me"));
  ASSERT_TRUE(write.ok());
  auto txid = node::Client::TxIdOf(*write);
  ASSERT_TRUE(txid.has_value());

  // Wait for commit + a covering signature, then fetch the receipt.
  Result<http::Response> receipt_resp = Status::Unavailable("none");
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        receipt_resp =
            client->Get("/node/receipt?seqno=" + std::to_string(txid->second));
        return receipt_resp.ok() && receipt_resp->status == 200;
      },
      5000));

  auto body = json::Parse(ToString(receipt_resp->body));
  ASSERT_TRUE(body.ok());
  auto receipt_bytes = HexDecode(body->GetString("receipt"));
  ASSERT_TRUE(receipt_bytes.ok());
  auto receipt = merkle::Receipt::Deserialize(*receipt_bytes);
  ASSERT_TRUE(receipt.ok());
  // Full offline verification against the service identity only.
  EXPECT_TRUE(receipt->Verify(n0->service_identity()).ok());
  // And not against a different service.
  crypto::KeyPair other = crypto::KeyPair::FromSeed(ToBytes("other"));
  EXPECT_FALSE(receipt->Verify(other.public_key()).ok());
}

TEST(SingleNodeService, UnregisteredUserRejected) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();
  node::Client* anon = h.AnonymousClient();
  auto write = anon->PostJson("/app/log", LogBody(1, "sneaky"));
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->status, 401);
}

TEST(SingleNodeService, ServiceNotOpenBlocksUsers) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis(/*open_immediately=*/false);
  node::Client* client = h.UserClient("user0");
  auto write = client->PostJson("/app/log", LogBody(1, "early"));
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->status, 503);

  // Members open the service via governance (paper Table 4).
  ASSERT_TRUE(h.RunProposal("transition_service_to_open",
                            json::Value(json::Object{})));
  auto write2 = client->PostJson("/app/log", json::Value(json::Object{
                                                 {"id", json::Value(1)},
                                                 {"msg", json::Value("now")},
                                             }));
  ASSERT_TRUE(write2.ok());
  EXPECT_EQ(write2->status, 200);
}

TEST(Governance, AddUserViaProposal) {
  ServiceHarness h;
  h.StartGenesis();
  TestUser* new_user = h.AddUser("newbie");

  json::Object args;
  args["user_id"] = "newbie";
  args["cert"] = HexEncode(new_user->cert.Serialize());
  ASSERT_TRUE(h.RunProposal("set_user", json::Value(std::move(args))));

  node::Client* client = h.UserClient("newbie");
  auto write = client->PostJson("/app/log", LogBody(5, "i exist now"));
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->status, 200);
}

TEST(Governance, UnsignedGovernanceRequestRejected) {
  ServiceHarness h;
  h.StartGenesis();
  node::Client* m0 = h.MemberClient(0);
  json::Object body;
  body["proposal"] = json::Object{};
  // PostJson (unsigned) instead of PostJsonSigned.
  auto resp = m0->PostJson("/gov/propose", json::Value(std::move(body)));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 401);
}

TEST(Governance, NonMemberCannotPropose) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();
  node::Client* user = h.UserClient("user0");
  json::Object body;
  body["proposal"] = json::Object{};
  auto resp = user->PostJsonSigned("/gov/propose", json::Value(std::move(body)));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 401);
}

TEST(MultiNodeService, JoinAndTrustGrowsCluster) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Node* n1 = h.JoinAndTrust("n1");
  ASSERT_NE(n1, nullptr);
  node::Node* n2 = h.JoinAndTrust("n2");
  ASSERT_NE(n2, nullptr);

  // All three nodes are in the configuration and share the ledger.
  node::Client* client = h.UserClient("user0");
  auto write = client->PostJson("/app/log", LogBody(100, "replicated"));
  ASSERT_TRUE(write.ok());
  ASSERT_EQ(write->status, 200);
  auto txid = node::Client::TxIdOf(*write);
  ASSERT_TRUE(txid.has_value());
  ASSERT_TRUE(h.WaitForCommitEverywhere(txid->second));
  EXPECT_EQ(n0->store().GetStr("private:app.messages", "100"), "replicated");
  EXPECT_EQ(n1->store().GetStr("private:app.messages", "100"), "replicated");
  EXPECT_EQ(n2->store().GetStr("private:app.messages", "100"), "replicated");
}

TEST(MultiNodeService, ReadsServedByBackupWritesForwarded) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);

  // Write via n0 (primary), read via n1 (backup, served locally).
  node::Client* writer = h.UserClient("user0", "n0");
  ASSERT_TRUE(writer->PostJson("/app/log", LogBody(9, "from backup")).ok());
  ASSERT_TRUE(h.WaitForCommitEverywhere(h.node("n0")->last_seqno()));

  node::Client* reader = h.UserClient("user0", "n1");
  auto read = reader->Get("/app/log?id=9");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->status, 200);

  // Write via the backup: forwarded to the primary (paper §4.3).
  auto write2 = reader->PostJson("/app/log", LogBody(10, "forwarded"));
  ASSERT_TRUE(write2.ok()) << write2.status().ToString();
  EXPECT_EQ(write2->status, 200);
  EXPECT_TRUE(node::Client::TxIdOf(*write2).has_value());
}

// A write forwarded by a backup whose primary is then cut off must not
// wait out the client's timeout: the backup answers 503 at its next role
// or view change, which comes within about one election timeout.
TEST(MultiNodeService, ForwardedWriteFailsFastWhenPrimaryIsLost) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);
  ASSERT_EQ(h.Primary(), h.node("n0"));

  node::Client* client = h.UserClient("user0", "n1");
  ASSERT_TRUE(client->Get("/app/log?id=1").ok());  // session established

  std::optional<Result<http::Response>> answer;
  client->SendRequest(node::JsonPostRequest("/app/log", LogBody(5, "lost")),
                      [&](Result<http::Response> r) { answer = std::move(r); });
  h.env().Isolate("n0", true);  // n0 never sees the forward
  const uint64_t sent_ms = h.env().now_ms();
  const uint64_t client_timeout_ms = 5000;
  h.env().RunUntil([&] { return answer.has_value(); }, client_timeout_ms);

  ASSERT_TRUE(answer.has_value()) << "no answer within the client timeout";
  ASSERT_TRUE(answer->ok()) << answer->status().ToString();
  EXPECT_EQ((*answer)->status, 503);
  auto body = json::Parse(ToString((*answer)->body));
  ASSERT_TRUE(body.ok());
  const json::Value* error = body->Get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "ServiceUnavailable");
  const uint64_t election_timeout_max_ms =
      FastNodeConfig("n1").raft.election_timeout_max_ms;
  EXPECT_LE(h.env().now_ms() - sent_ms, 2 * election_timeout_max_ms);
}

TEST(MultiNodeService, FailoverContinuesService) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);

  node::Node* primary = h.Primary();
  ASSERT_NE(primary, nullptr);
  std::string dead = primary->id();
  h.env().SetUp(dead, false);

  // A new primary emerges among the remaining nodes.
  node::Node* new_primary = nullptr;
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        new_primary = h.Primary();
        return new_primary != nullptr && new_primary->id() != dead;
      },
      10000));

  // The service keeps accepting writes through the new primary.
  node::Client* client = h.UserClient("user0", new_primary->id());
  auto write = client->PostJson("/app/log", LogBody(77, "after failover"));
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  EXPECT_EQ(write->status, 200);
}

TEST(MultiNodeService, NodeRetirement) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);

  // Retire the backup n2 via governance (remove_node -> Retiring ->
  // Retired, paper §4.5 and Listing 2).
  json::Object args;
  args["node_id"] = "n2";
  ASSERT_TRUE(h.RunProposal("remove_node", json::Value(std::move(args))));
  ASSERT_TRUE(h.env().RunUntil([&] { return h.node("n2")->retired(); },
                               10000));
  // Its final recorded status is Retired.
  auto raw = h.node("n0")->store().GetStr("public:ccf.gov.nodes.info", "n2");
  ASSERT_TRUE(raw.has_value());
  auto j = json::Parse(*raw);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->GetString("status"), "Retired");
  // Remaining two nodes still serve writes.
  node::Client* client = h.UserClient("user0");
  auto write = client->PostJson("/app/log", LogBody(1, "post-retirement"));
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->status, 200);
}

TEST(MultiNodeService, JoinerStartsFromSnapshot) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");
  // Enough transactions to pass the snapshot interval (50).
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client->PostJson("/app/log", LogBody(i, "bulk")).ok());
  }
  ASSERT_TRUE(h.WaitForCommitEverywhere(n0->last_seqno()));
  // Joiners take state only from a verified bundle; wait until the
  // primary has one.
  ASSERT_TRUE(h.env().RunUntil([&] { return n0->host_snapshot_seqno() > 0; },
                               10000));

  node::Node* n1 = h.JoinAndTrust("n1");
  ASSERT_NE(n1, nullptr);
  // The joiner never held the early entries: its consensus log starts at
  // the snapshot (paper §4.4).
  EXPECT_EQ(n1->raft().GetLogEntry(1), nullptr);
  // But its application state is complete.
  ASSERT_TRUE(h.env().RunUntil(
      [&] { return n1->commit_seqno() >= n0->commit_seqno(); }, 8000));
  EXPECT_EQ(n1->store().GetStr("private:app.messages", "42"), "bulk");
}

TEST(ScriptedApp, InstallAndInvokeViaGovernance) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();

  json::Object args;
  args["module"] = apps::LoggingAppModule();
  auto endpoints = json::Parse(apps::LoggingAppEndpointsJson());
  ASSERT_TRUE(endpoints.ok());
  args["endpoints"] = *endpoints;
  ASSERT_TRUE(h.RunProposal("set_js_app", json::Value(std::move(args))));

  node::Client* client = h.UserClient("user0");
  auto write = client->PostJson("/app/jslog", LogBody(3, "scripted hello"));
  ASSERT_TRUE(write.ok());
  ASSERT_EQ(write->status, 200) << ToString(write->body);
  EXPECT_TRUE(node::Client::TxIdOf(*write).has_value());

  json::Object read_body;
  read_body["id"] = 3;
  auto read = client->PostJson("/app/jslog_read",
                               json::Value(std::move(read_body)));
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->status, 200) << ToString(read->body);
  auto body = json::Parse(ToString(read->body));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->GetString("msg"), "scripted hello");

  // Anonymous callers are still rejected by the scripted auth policy.
  auto anon = h.AnonymousClient()->PostJson(
      "/app/jslog", json::Value(json::Object{{"id", json::Value(1)},
                                             {"msg", json::Value("x")}}));
  ASSERT_TRUE(anon.ok());
  EXPECT_EQ(anon->status, 401);
}

TEST(Confidentiality, PrivateWritesAreEncryptedOnLedger) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");
  ASSERT_TRUE(client->PostJson("/app/log",
                               LogBody(1, "TOPSECRET-PAYLOAD")).ok());

  // Scan raw ledger bytes: the secret must not appear anywhere.
  std::string needle = "TOPSECRET-PAYLOAD";
  bool found = false;
  for (const ledger::Entry& e : n0->host_ledger().entries()) {
    std::string all = ToString(e.public_ws) + ToString(e.private_sealed);
    if (all.find(needle) != std::string::npos) found = true;
  }
  EXPECT_FALSE(found);

  // Whereas a public-map write is visible (audit without decryption).
  ASSERT_TRUE(
      client->PostJson("/app/log_public", LogBody(2, "PUBLIC-PAYLOAD")).ok());
  bool found_public = false;
  for (const ledger::Entry& e : n0->host_ledger().entries()) {
    if (ToString(e.public_ws).find("PUBLIC-PAYLOAD") != std::string::npos) {
      found_public = true;
    }
  }
  EXPECT_TRUE(found_public);
}

TEST(Observability, NetworkEndpointReportsTopology) {
  ServiceHarness h;
  h.AddUser("user0");
  h.StartGenesis();
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  auto resp = h.AnonymousClient()->Get("/node/network");
  ASSERT_TRUE(resp.ok());
  auto body = json::Parse(ToString(resp->body));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->GetString("service_status"), "Open");
  const json::Value* nodes = body->Get("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->GetString("n0"), "Trusted");
  EXPECT_EQ(nodes->GetString("n1"), "Trusted");
}

}  // namespace
}  // namespace ccf::testing
