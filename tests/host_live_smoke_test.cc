// Live-mode smoke test (ISSUE satellite): a real 3-node cluster over
// loopback TCP — governance-trusted joiners, client writes/reads, then a
// primary kill with wall-clock re-election and recovery of the dead node.
//
// This is the end-to-end proof that the SAME enclave node runs under the
// live host driver: everything the simulator suites exercise in virtual
// time happens here on actual sockets and threads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/live_harness.h"

namespace ccf::testing {
namespace {

// One request sequence through the simulator client and the TCP client:
// both are ClientCore, so a caller sees the same statuses and bodies.
std::vector<std::string> RunSequence(node::ClientCore* c) {
  std::vector<std::string> out;
  for (const Result<http::Response>& r :
       {c->PostJson("/app/log", LogBody(1, "one")), c->Get("/app/log?id=1"),
        c->Get("/app/log?id=2"), c->PostJson("/app/log", json::Value(7)),
        c->Get("/app/no_such_endpoint"),
        c->PostJsonSigned("/gov/propose", LogBody(3, "x"))}) {
    out.push_back(r.ok() ? std::to_string(r->status) + " " + ToString(r->body)
                         : r.status().ToString());
  }
  return out;
}

TEST(HostLiveSmoke, SimAndLiveClientsAgree) {
  ServiceHarness sim;
  sim.AddUser("alice");
  ASSERT_NE(sim.StartGenesis(), nullptr);
  LiveServiceHarness live;
  live.AddUser("alice");
  ASSERT_NE(live.StartGenesis(), nullptr);
  ASSERT_NE(live.UserClient("alice"), nullptr);

  std::vector<std::string> got = RunSequence(sim.UserClient("alice"));
  EXPECT_EQ(got, RunSequence(live.UserClient("alice")));
  std::vector<std::string> statuses;
  for (const std::string& o : got) statuses.push_back(o.substr(0, 3));
  EXPECT_EQ(statuses, (std::vector<std::string>{"200", "200", "404", "400",
                                                "404", "401"}));
}

TEST(HostLiveSmoke, ThreeNodeWriteReadKillRecover) {
  LiveServiceHarness h;
  h.AddUser("alice");
  ASSERT_NE(h.StartGenesis(), nullptr);
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);

  // Writes against the primary, replicated to everyone.
  host::LiveClient* alice = h.UserClient("alice", "n0");
  ASSERT_NE(alice, nullptr);
  uint64_t last_seqno = 0;
  for (int i = 0; i < 20; ++i) {
    auto resp = alice->PostJson("/app/log",
                                LogBody(7, "entry " + std::to_string(i)));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->status, 200) << ToString(resp->body);
    auto txid = host::LiveClient::TxIdOf(*resp);
    ASSERT_TRUE(txid.has_value());
    last_seqno = txid->second;
  }
  ASSERT_TRUE(h.WaitForCommitEverywhere(last_seqno));

  auto read = alice->Get("/app/log?id=7");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->status, 200);
  EXPECT_NE(ToString(read->body).find("entry 19"), std::string::npos);

  // Kill the primary. The survivors elect on wall-clock timeouts and keep
  // serving; the logged data survives.
  std::string old_primary = h.PrimaryId();
  ASSERT_FALSE(old_primary.empty());
  h.Kill(old_primary);
  std::string new_primary;
  ASSERT_TRUE(LiveWaitFor(
      [&] {
        new_primary = h.PrimaryId(200);
        return !new_primary.empty() && new_primary != old_primary;
      },
      10000));

  // The new primary may still be committing its term marker, or a client
  // may hit a node mid-transition: reconnect and retry until a write lands.
  Result<http::Response> resp = Status::Unavailable("not sent");
  ASSERT_TRUE(LiveWaitFor(
      [&] {
        std::string target = h.PrimaryId(200);
        if (target.empty()) return false;
        host::LiveClient* c = h.UserClient("alice", target);
        if (c == nullptr || !c->connected()) {
          h.DropClients();
          return false;
        }
        resp = c->PostJson("/app/log", LogBody(7, "after failover"), 2000);
        if (!resp.ok() || resp->status != 200) {
          h.DropClients();
          return false;
        }
        return true;
      },
      15000));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);

  std::string final_primary = h.PrimaryId();
  host::LiveClient* alice2 = h.UserClient("alice", final_primary);
  ASSERT_NE(alice2, nullptr);
  auto read2 = alice2->Get("/app/log?id=7");
  ASSERT_TRUE(read2.ok());
  ASSERT_EQ(read2->status, 200);
  EXPECT_NE(ToString(read2->body).find("after failover"), std::string::npos);

  // "Recover": grow the cluster back to three — join + trust works against
  // the post-failover configuration (governance rides forwarding to the
  // new primary).
  h.SetGovNode(final_primary);
  ASSERT_NE(h.JoinAndTrust("n3", 15000, final_primary), nullptr);
}

}  // namespace
}  // namespace ccf::testing
