// Election-criteria tests, including a direct reproduction of the paper's
// Table 2 / Figure 5 example.

#include <gtest/gtest.h>

#include "consensus/raft.h"
#include "tests/raft_harness.h"

namespace ccf::testing {
namespace {

using consensus::AppendEntriesReq;
using consensus::Message;
using consensus::RequestVoteReq;
using consensus::RequestVoteResp;

LogEntry MakeEntry(uint64_t view, uint64_t seqno, bool sig) {
  LogEntry e;
  e.view = view;
  e.seqno = seqno;
  e.is_signature = sig;
  e.data = std::make_shared<const Bytes>(
      ToBytes((sig ? "sig-" : "tx-") + std::to_string(view) + "." +
              std::to_string(seqno)));
  return e;
}

// The five ledgers of Figure 5 (left), reconstructed to match Table 2's
// vote matrix. Underlined IDs in the paper are signature transactions.
std::vector<LogEntry> LedgerOf(int node) {
  std::vector<LogEntry> base = {MakeEntry(1, 1, false), MakeEntry(1, 2, true)};
  if (node == 0) return base;
  base.push_back(MakeEntry(2, 3, false));
  base.push_back(MakeEntry(2, 4, true));
  if (node == 1) return base;
  base.push_back(MakeEntry(3, 5, false));
  base.push_back(MakeEntry(3, 6, true));
  if (node == 3 || node == 4) return base;
  // node 2: the view-3 primary, with the longest signed log.
  base.push_back(MakeEntry(3, 7, false));
  base.push_back(MakeEntry(3, 8, true));
  return base;
}

TEST(ElectionCriteria, Table2VoteMatrix) {
  // For each candidate, ask every other node for a vote in view 4 and
  // compare against the paper's Table 2.
  const bool kExpected[5][5] = {
      // voters:  n0     n1     n2     n3     n4      (candidate row)
      {true, false, false, false, false},  // n0
      {true, true, false, false, false},   // n1
      {true, true, true, true, true},      // n2
      {true, true, false, true, true},     // n3
      {true, true, false, true, true},     // n4
  };
  const bool kCouldWin[5] = {false, false, true, true, true};

  std::set<NodeId> all = {"n0", "n1", "n2", "n3", "n4"};
  for (int candidate = 0; candidate < 5; ++candidate) {
    // Candidate's last signature transaction ID.
    std::vector<LogEntry> clog = LedgerOf(candidate);
    uint64_t sig_view = 0, sig_seqno = 0;
    for (const LogEntry& e : clog) {
      if (e.is_signature) {
        sig_view = e.view;
        sig_seqno = e.seqno;
      }
    }

    int votes = 1;  // the candidate votes for itself
    for (int voter = 0; voter < 5; ++voter) {
      if (voter == candidate) continue;
      RecordingCallbacks cb;
      RaftNode node("n" + std::to_string(voter), FastRaftConfig(), all,
                    false, &cb);
      node.TestInstallLog(LedgerOf(voter), /*view=*/3);

      RequestVoteReq req;
      req.view = 4;
      req.last_sig_view = sig_view;
      req.last_sig_seqno = sig_seqno;
      node.Receive(Message{"n" + std::to_string(candidate), req}, 0);

      ASSERT_EQ(cb.sent.size(), 1u);
      const auto* resp = std::get_if<RequestVoteResp>(&cb.sent[0].second.body);
      ASSERT_NE(resp, nullptr);
      EXPECT_EQ(resp->granted, kExpected[candidate][voter])
          << "candidate n" << candidate << ", voter n" << voter;
      if (resp->granted) ++votes;
    }
    EXPECT_EQ(votes >= 3, kCouldWin[candidate])
        << "candidate n" << candidate << " got " << votes << " votes";
  }
}

TEST(ElectionCriteria, VoteComparesSignaturesNotLogLength) {
  // A node with a longer log but older last signature must lose to a node
  // with a shorter log but newer signature — the key CCF deviation from
  // vanilla Raft (§4.2).
  std::set<NodeId> all = {"a", "b"};
  RecordingCallbacks cb;
  RaftNode voter("b", FastRaftConfig(), all, false, &cb);
  // Voter: sig at (2,4) then unsigned suffix to seqno 8.
  std::vector<LogEntry> log;
  log.push_back(MakeEntry(1, 1, false));
  log.push_back(MakeEntry(1, 2, true));
  log.push_back(MakeEntry(2, 3, false));
  log.push_back(MakeEntry(2, 4, true));
  for (uint64_t s = 5; s <= 8; ++s) log.push_back(MakeEntry(2, s, false));
  voter.TestInstallLog(std::move(log), 2);

  // Candidate's last signature (3,5): newer view, shorter log.
  RequestVoteReq req;
  req.view = 4;
  req.last_sig_view = 3;
  req.last_sig_seqno = 5;
  voter.Receive(Message{"a", req}, 0);
  ASSERT_EQ(cb.sent.size(), 1u);
  EXPECT_TRUE(std::get<RequestVoteResp>(cb.sent[0].second.body).granted);

  // Candidate with same-view signature but smaller seqno: rejected.
  RecordingCallbacks cb2;
  RaftNode voter2("b", FastRaftConfig(), all, false, &cb2);
  voter2.TestInstallLog(LedgerOf(2), 3);  // last sig (3,8)
  RequestVoteReq req2;
  req2.view = 4;
  req2.last_sig_view = 3;
  req2.last_sig_seqno = 6;
  voter2.Receive(Message{"a", req2}, 0);
  EXPECT_FALSE(std::get<RequestVoteResp>(cb2.sent[0].second.body).granted);
}

TEST(ElectionCriteria, OneVotePerView) {
  std::set<NodeId> all = {"a", "b", "c"};
  RecordingCallbacks cb;
  RaftNode voter("c", FastRaftConfig(), all, false, &cb);
  RequestVoteReq req;
  req.view = 5;
  req.last_sig_view = 1;
  req.last_sig_seqno = 1;
  voter.Receive(Message{"a", req}, 0);
  voter.Receive(Message{"b", req}, 0);
  ASSERT_EQ(cb.sent.size(), 2u);
  EXPECT_TRUE(std::get<RequestVoteResp>(cb.sent[0].second.body).granted);
  EXPECT_FALSE(std::get<RequestVoteResp>(cb.sent[1].second.body).granted);
  // But the same candidate asking again (retransmit) is re-granted.
  voter.Receive(Message{"a", req}, 0);
  EXPECT_TRUE(std::get<RequestVoteResp>(cb.sent[2].second.body).granted);
}

TEST(ElectionCriteria, StaleViewRejected) {
  std::set<NodeId> all = {"a", "b"};
  RecordingCallbacks cb;
  RaftNode voter("b", FastRaftConfig(), all, false, &cb);
  voter.TestInstallLog(LedgerOf(2), /*view=*/6);
  RequestVoteReq req;
  req.view = 4;  // below the voter's view
  req.last_sig_view = 100;
  req.last_sig_seqno = 100;
  voter.Receive(Message{"a", req}, 0);
  ASSERT_EQ(cb.sent.size(), 1u);
  const auto& resp = std::get<RequestVoteResp>(cb.sent[0].second.body);
  EXPECT_FALSE(resp.granted);
  EXPECT_EQ(resp.view, 6u);  // so the candidate can update itself
}

TEST(ElectionCriteria, NewPrimaryRollsBackUnsignedSuffix) {
  // Figure 5 (right): n4 becomes primary in view 4 and first rolls back
  // its unsigned suffix (3.5 was not followed by a signature on n4... in
  // our reconstruction, an unsigned tail after (3,6)).
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  primary->set_signature_interval(1000);
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  ASSERT_TRUE(
      cluster.WaitForCommitEverywhere(primary->raft().last_seqno()));

  // Append unsigned entries, replicated everywhere but never signed.
  ASSERT_TRUE(primary->ReplicateUser("unsigned-1").ok());
  ASSERT_TRUE(primary->ReplicateUser("unsigned-2").ok());
  uint64_t unsigned_tail = primary->raft().last_seqno();
  cluster.env().Step(100);  // replicate the unsigned tail

  // Kill the primary; the new primary must discard the unsigned suffix
  // and start its view with a fresh signature transaction.
  cluster.env().SetUp(primary->id(), false);
  RaftTestNode* np = cluster.WaitForPrimary();
  ASSERT_NE(np, nullptr);
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return np->raft().commit_seqno() >= np->raft().last_seqno() &&
                   np->raft().last_seqno() > 0; },
      5000));
  EXPECT_GT(np->rollbacks(), 0u);
  // The first entry of the new view is a signature transaction.
  const LogEntry* first_new = nullptr;
  for (uint64_t s = 1; s <= np->raft().last_seqno(); ++s) {
    const LogEntry* e = np->raft().GetLogEntry(s);
    if (e != nullptr && e->view == np->raft().view()) {
      first_new = e;
      break;
    }
  }
  ASSERT_NE(first_new, nullptr);
  EXPECT_TRUE(first_new->is_signature);
  EXPECT_LT(first_new->seqno, unsigned_tail + 1);
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(ElectionCriteria, SplitVoteEventuallyResolves) {
  // With aggressive identical timeouts, candidates may split votes; the
  // randomized timer must still converge.
  sim::EnvOptions opts;
  opts.seed = 99;
  RaftCluster cluster(5, opts, /*seed=*/99);
  RaftTestNode* primary = cluster.WaitForPrimary(10000);
  ASSERT_NE(primary, nullptr);
  EXPECT_TRUE(cluster.AtMostOnePrimaryPerView());
}

}  // namespace
}  // namespace ccf::testing
