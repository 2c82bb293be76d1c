#include <gtest/gtest.h>

#include "consensus/raft.h"
#include "tests/raft_harness.h"

namespace ccf::testing {
namespace {

using consensus::TxStatus;

TEST(RaftBasics, GenesisPrimaryCommitsOwnSignature) {
  sim::Environment env;
  RaftTestNode n0("n0", FastRaftConfig(), {"n0"}, /*start_as_primary=*/true,
                  &env);
  EXPECT_TRUE(n0.raft().IsPrimary());
  EXPECT_EQ(n0.raft().view(), 1u);
  ASSERT_TRUE(n0.ReplicateUser("tx1").ok());
  ASSERT_TRUE(n0.ReplicateSignature().ok());
  // Single-node config: signature commits immediately.
  EXPECT_GE(n0.raft().commit_seqno(), 2u);
}

TEST(RaftBasics, CommitWaitsForSignature) {
  sim::Environment env;
  RaftTestNode n0("n0", FastRaftConfig(), {"n0"}, true, &env);
  n0.set_signature_interval(1000);  // no automatic signatures
  env.Step(5);                      // flush the becoming-primary signature
  uint64_t base_commit = n0.raft().commit_seqno();
  ASSERT_TRUE(n0.ReplicateUser("tx-a").ok());
  ASSERT_TRUE(n0.ReplicateUser("tx-b").ok());
  // User entries alone never advance commit (paper §3.2).
  EXPECT_EQ(n0.raft().commit_seqno(), base_commit);
  ASSERT_TRUE(n0.ReplicateSignature().ok());
  EXPECT_EQ(n0.raft().commit_seqno(), base_commit + 3);
}

TEST(RaftCluster3, ElectsExactlyOnePrimary) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  EXPECT_TRUE(cluster.AtMostOnePrimaryPerView());
  // All nodes converge on the same view and leader.
  cluster.env().Step(200);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.node(i).raft().view(), primary->raft().view());
  }
}

TEST(RaftCluster3, ReplicatesAndCommitsEverywhere) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(primary->ReplicateUser("tx" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t target = primary->raft().last_seqno();
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(target));
  EXPECT_TRUE(cluster.AllInvariantsHold());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.node(i).raft().last_seqno(), target);
  }
}

TEST(RaftCluster3, PrimaryFailureTriggersFailover) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->ReplicateUser("pre-failure").ok());
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t committed_before = primary->raft().last_seqno();
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(committed_before));

  NodeId dead = primary->id();
  cluster.env().SetUp(dead, false);
  RaftTestNode* new_primary = cluster.WaitForPrimary();
  ASSERT_NE(new_primary, nullptr);
  EXPECT_NE(new_primary->id(), dead);
  EXPECT_GT(new_primary->raft().view(), 1u);

  // Service continues accepting writes.
  ASSERT_TRUE(new_primary->ReplicateUser("post-failure").ok());
  ASSERT_TRUE(new_primary->ReplicateSignature().ok());
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] {
        return new_primary->raft().commit_seqno() >=
               new_primary->raft().last_seqno();
      },
      5000));
  // Previously committed entries survive the failover.
  EXPECT_TRUE(cluster.CommittedPrefixesAgree());
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftCluster5, ToleratesTwoFailures) {
  RaftCluster cluster(5);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  cluster.env().SetUp(RaftCluster::Name(4), false);
  ASSERT_TRUE(primary->ReplicateUser("one down").ok());
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t target = primary->raft().last_seqno();
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return cluster.GetPrimary() != nullptr &&
                   cluster.GetPrimary()->raft().commit_seqno() >= target; },
      5000));

  // Kill the primary as well (2 of 5 down): still live.
  cluster.env().SetUp(cluster.GetPrimary()->id(), false);
  RaftTestNode* p2 = cluster.WaitForPrimary();
  ASSERT_NE(p2, nullptr);
  ASSERT_TRUE(p2->ReplicateUser("two down").ok());
  ASSERT_TRUE(p2->ReplicateSignature().ok());
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return p2->raft().commit_seqno() >= p2->raft().last_seqno(); },
      5000));
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftCluster3, NoQuorumNoProgress) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  ASSERT_TRUE(
      cluster.WaitForCommitEverywhere(primary->raft().last_seqno()));
  // Kill both backups: no commit can advance.
  for (int i = 0; i < 3; ++i) {
    if (RaftCluster::Name(i) != primary->id()) {
      cluster.env().SetUp(RaftCluster::Name(i), false);
    }
  }
  uint64_t commit_before = primary->raft().commit_seqno();
  ASSERT_TRUE(primary->ReplicateUser("doomed").ok());
  Status sig_status = primary->ReplicateSignature();
  cluster.env().Step(150);
  EXPECT_EQ(primary->raft().commit_seqno(), commit_before);
  (void)sig_status;
  // And the primary eventually steps down (paper §4.2).
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return !primary->raft().IsPrimary(); }, 5000));
}

TEST(RaftCluster3, PartitionedPrimaryStepsDownAndRejoins) {
  RaftCluster cluster(3);
  RaftTestNode* old_primary = cluster.WaitForPrimary();
  ASSERT_NE(old_primary, nullptr);
  ASSERT_TRUE(old_primary->ReplicateSignature().ok());
  ASSERT_TRUE(
      cluster.WaitForCommitEverywhere(old_primary->raft().last_seqno()));

  cluster.env().Isolate(old_primary->id(), true);
  // It keeps appending into its isolated log.
  ASSERT_TRUE(old_primary->ReplicateUser("isolated-1").ok());
  ASSERT_TRUE(old_primary->ReplicateUser("isolated-2").ok());

  // The rest elect a new primary and make progress.
  RaftTestNode* new_primary = nullptr;
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] {
        for (auto& [id, node] : cluster.nodes()) {
          if (id != old_primary->id() && node->raft().IsPrimary() &&
              node->raft().view() > old_primary->raft().view()) {
            new_primary = node.get();
            return true;
          }
        }
        return false;
      },
      5000));
  ASSERT_TRUE(new_primary->ReplicateUser("majority side").ok());
  ASSERT_TRUE(new_primary->ReplicateSignature().ok());

  // Heal: the old primary steps down and adopts the new log; its
  // uncommitted isolated entries are rolled back.
  cluster.env().Isolate(old_primary->id(), false);
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] {
        return !old_primary->raft().IsPrimary() &&
               new_primary->raft().commit_seqno() >=
                   new_primary->raft().last_signature().seqno &&
               old_primary->raft().commit_seqno() ==
                   new_primary->raft().commit_seqno();
      },
      5000));
  EXPECT_GT(old_primary->rollbacks(), 0u);
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftCluster3, TxStatusLifecycle) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  primary->set_signature_interval(1000);
  cluster.env().Step(50);

  uint64_t view = primary->raft().view();
  ASSERT_TRUE(primary->ReplicateUser("status-me").ok());
  uint64_t seqno = primary->raft().last_seqno();
  EXPECT_EQ(primary->raft().GetTxStatus(view, seqno), TxStatus::kPending);

  ASSERT_TRUE(primary->ReplicateSignature().ok());
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return primary->raft().commit_seqno() >= seqno; }, 5000));
  EXPECT_EQ(primary->raft().GetTxStatus(view, seqno), TxStatus::kCommitted);

  // A transaction ID from a larger view at an earlier position is Invalid
  // once that later view exists; unknown future IDs stay Unknown.
  EXPECT_EQ(primary->raft().GetTxStatus(view, seqno + 1000),
            TxStatus::kUnknown);
  EXPECT_EQ(primary->raft().GetTxStatus(view - 1, seqno),
            TxStatus::kInvalid);
}

TEST(RaftCluster3, RolledBackTxBecomesInvalid) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  ASSERT_TRUE(
      cluster.WaitForCommitEverywhere(primary->raft().last_seqno()));

  // Isolate the primary; it appends an uncommitted suffix.
  cluster.env().Isolate(primary->id(), true);
  primary->set_signature_interval(1000);
  ASSERT_TRUE(primary->ReplicateUser("doomed").ok());
  uint64_t doomed_view = primary->raft().view();
  uint64_t doomed_seqno = primary->raft().last_seqno();

  // Majority side moves on.
  RaftTestNode* new_primary = nullptr;
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] {
        for (auto& [id, node] : cluster.nodes()) {
          if (id != primary->id() && node->raft().IsPrimary() &&
              node->raft().view() > primary->raft().view()) {
            new_primary = node.get();
            return true;
          }
        }
        return false;
      },
      5000));
  ASSERT_TRUE(new_primary->ReplicateUser("winner").ok());
  ASSERT_TRUE(new_primary->ReplicateSignature().ok());

  uint64_t winner_target = new_primary->raft().last_seqno();
  cluster.env().Isolate(primary->id(), false);
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return primary->raft().commit_seqno() >= winner_target; },
      5000));
  // The doomed transaction ID is now Invalid on the old primary: a greater
  // view started at a smaller-or-equal seqno (paper §4.3).
  EXPECT_EQ(primary->raft().GetTxStatus(doomed_view, doomed_seqno),
            TxStatus::kInvalid);
  // And the winner's ID is Committed.
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftCluster3, LaggingBackupCatchesUpViaBackoff) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  // Crash one backup, write a lot, restart it.
  NodeId lagger;
  for (int i = 0; i < 3; ++i) {
    if (RaftCluster::Name(i) != primary->id()) {
      lagger = RaftCluster::Name(i);
      break;
    }
  }
  cluster.env().SetUp(lagger, false);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(primary->ReplicateUser("bulk" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t target = primary->raft().last_seqno();
  cluster.env().SetUp(lagger, true);
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return cluster.node(lagger).raft().commit_seqno() >= target; },
      10000));
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftCluster5, MessageLossStillMakesProgress) {
  sim::EnvOptions opts;
  opts.drop_probability = 0.05;
  opts.max_latency_ms = 8;
  RaftCluster cluster(5, opts);
  RaftTestNode* primary = cluster.WaitForPrimary(20000);
  ASSERT_NE(primary, nullptr);
  for (int i = 0; i < 30; ++i) {
    primary = cluster.GetPrimary();
    if (primary != nullptr) {
      (void)primary->ReplicateUser("lossy" + std::to_string(i));
    }
    cluster.env().Step(20);
  }
  primary = cluster.WaitForPrimary(20000);
  ASSERT_NE(primary, nullptr);
  (void)primary->ReplicateSignature();
  uint64_t target = primary->raft().commit_seqno();
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] {
        RaftTestNode* p = cluster.GetPrimary();
        return p != nullptr && p->raft().commit_seqno() > target;
      },
      20000));
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

// Property test: random crash/restart/partition schedules; all safety
// invariants must hold at every checkpoint.
class RaftChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RaftChaosTest, SafetyUnderRandomFaults) {
  sim::EnvOptions opts;
  opts.seed = GetParam();
  opts.drop_probability = 0.02;
  opts.max_latency_ms = 5;
  RaftCluster cluster(5, opts, /*seed=*/GetParam() * 7);
  crypto::Drbg chaos("chaos", GetParam());

  int txs = 0;
  for (int round = 0; round < 60; ++round) {
    // Random fault action.
    uint64_t action = chaos.Uniform(10);
    int victim = static_cast<int>(chaos.Uniform(5));
    NodeId victim_id = RaftCluster::Name(victim);
    if (action < 2) {
      cluster.env().SetUp(victim_id, !cluster.env().IsUp(victim_id));
    } else if (action < 3) {
      int other = static_cast<int>(chaos.Uniform(5));
      if (other != victim) {
        cluster.env().SetPartitioned(victim_id, RaftCluster::Name(other),
                                     chaos.Uniform(2) == 0);
      }
    } else if (action < 4) {
      // Heal everything occasionally.
      for (int i = 0; i < 5; ++i) {
        for (int j = i + 1; j < 5; ++j) {
          cluster.env().SetPartitioned(RaftCluster::Name(i),
                                       RaftCluster::Name(j), false);
        }
        cluster.env().SetUp(RaftCluster::Name(i), true);
      }
    }
    // Drive load through whoever is primary.
    RaftTestNode* primary = cluster.GetPrimary();
    if (primary != nullptr && cluster.env().IsUp(primary->id())) {
      for (int i = 0; i < 3; ++i) {
        if (primary->ReplicateUser("chaos" + std::to_string(txs)).ok()) {
          ++txs;
        }
      }
    }
    cluster.env().Step(30);
    ASSERT_TRUE(cluster.CommittedPrefixesAgree()) << "round " << round;
    ASSERT_TRUE(cluster.AtMostOnePrimaryPerView()) << "round " << round;
    ASSERT_TRUE(cluster.LogsMatch()) << "round " << round;
  }

  // Heal and confirm convergence/liveness.
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      cluster.env().SetPartitioned(RaftCluster::Name(i),
                                   RaftCluster::Name(j), false);
    }
    cluster.env().SetUp(RaftCluster::Name(i), true);
  }
  // Elections may still churn right after healing, rolling back entries
  // replicated through a primary that is about to be deposed; retry until
  // a round survives.
  bool converged = false;
  for (int attempt = 0; attempt < 10 && !converged; ++attempt) {
    RaftTestNode* primary = cluster.WaitForPrimary(30000);
    ASSERT_NE(primary, nullptr);
    if (!primary->ReplicateUser("final").ok() ||
        !primary->ReplicateSignature().ok()) {
      cluster.env().Step(100);
      continue;
    }
    uint64_t target = primary->raft().last_seqno();
    converged = cluster.WaitForCommitEverywhere(target, 5000);
  }
  EXPECT_TRUE(converged);
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaftChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------------------------- log prefix compaction

// The view recorded at `seqno` per a node's public view history (the test
// mirror of the private RaftNode::ViewAt).
uint64_t ViewAtSeqno(const RaftNode& raft, uint64_t seqno) {
  uint64_t view = 1;
  for (const auto& [v, start] : raft.view_history()) {
    if (start <= seqno) view = v;
  }
  return view;
}

TEST(RaftCompaction, CompactToDropsPrefixAndClampsToCommit) {
  sim::Environment env;
  RaftTestNode n0("n0", FastRaftConfig(), {"n0"}, true, &env);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(n0.ReplicateUser("tx" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(n0.ReplicateSignature().ok());
  uint64_t commit = n0.raft().commit_seqno();
  uint64_t last = n0.raft().last_seqno();
  ASSERT_EQ(commit, last);

  // Asking past the commit point clamps: nothing uncommitted is dropped.
  n0.raft().CompactTo(commit + 100);
  EXPECT_EQ(n0.raft().base_seqno(), commit);
  EXPECT_EQ(n0.raft().last_seqno(), last);
  EXPECT_EQ(n0.raft().commit_seqno(), commit);
  // The prefix is gone from memory; the tail (empty here) is addressable.
  EXPECT_EQ(n0.raft().GetLogEntry(commit), nullptr);

  // The node keeps operating normally on the re-based log.
  ASSERT_TRUE(n0.ReplicateUser("after-compact").ok());
  ASSERT_TRUE(n0.ReplicateSignature().ok());
  EXPECT_EQ(n0.raft().commit_seqno(), last + 2);
  ASSERT_NE(n0.raft().GetLogEntry(last + 1), nullptr);

  // Compacting twice (idempotent) and to the same point is a no-op.
  uint64_t base = n0.raft().commit_seqno();
  n0.raft().CompactTo(base);
  n0.raft().CompactTo(base);
  EXPECT_EQ(n0.raft().base_seqno(), base);
}

TEST(RaftCompaction, ClusterCommitsAcrossCompactedPrimaryLog) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(primary->ReplicateUser("tx" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t target = primary->raft().last_seqno();
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(target));

  // Every peer acked, so the whole committed prefix is compactable.
  EXPECT_GE(primary->raft().MinPeerMatch(), target);
  primary->raft().CompactTo(primary->raft().MinPeerMatch());
  EXPECT_EQ(primary->raft().base_seqno(), target);
  EXPECT_TRUE(primary->raft().peers_needing_snapshot().empty());

  // Replication and commit continue from the re-based log.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(primary->ReplicateUser("post" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(primary->raft().last_seqno()));
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftCompaction, MinPeerMatchHoldsBackCompactionForLaggard) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->ReplicateUser("pre").ok());
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t acked_by_all = primary->raft().last_seqno();
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(acked_by_all));

  // One backup goes dark; the remaining quorum keeps committing.
  NodeId lagger;
  for (int i = 0; i < 3; ++i) {
    if (RaftCluster::Name(i) != primary->id()) lagger = RaftCluster::Name(i);
  }
  cluster.env().SetUp(lagger, false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(primary->ReplicateUser("quorum" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t committed = primary->raft().last_seqno();
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return primary->raft().commit_seqno() >= committed; }, 5000));

  // The dark peer pins MinPeerMatch, so compaction keeps the entries it
  // still needs even though commit is far ahead.
  EXPECT_LE(primary->raft().MinPeerMatch(), acked_by_all);
  primary->raft().CompactTo(primary->raft().MinPeerMatch());
  EXPECT_LE(primary->raft().base_seqno(), acked_by_all);

  // Back up: the laggard catches up purely from the retained log tail.
  cluster.env().SetUp(lagger, true);
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(committed, 10000));
  EXPECT_TRUE(primary->raft().peers_needing_snapshot().empty());
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftCompaction, LaggardBelowBaseNeedsSnapshotAndCatchesUpAfterInstall) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  NodeId lagger;
  for (int i = 0; i < 3; ++i) {
    if (RaftCluster::Name(i) != primary->id()) lagger = RaftCluster::Name(i);
  }
  cluster.env().SetUp(lagger, false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(primary->ReplicateUser("deep" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t committed = primary->raft().last_seqno();
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] { return primary->raft().commit_seqno() >= committed; }, 5000));

  // Compact past the laggard's match (what a primary would do after its
  // snapshot horizon moved): the log can no longer serve the laggard.
  primary->raft().CompactTo(committed);
  ASSERT_EQ(primary->raft().base_seqno(), committed);

  cluster.env().SetUp(lagger, true);
  ASSERT_TRUE(cluster.env().RunUntil(
      [&] {
        return primary->raft().peers_needing_snapshot().count(lagger) > 0;
      },
      5000));

  // The node layer ships a verified snapshot at the primary's base; the
  // laggard re-bases onto it.
  RaftNode& lraft = cluster.nodes().at(lagger)->raft();
  uint64_t snap_seqno = primary->raft().base_seqno();
  lraft.InstallSnapshot(snap_seqno,
                        ViewAtSeqno(primary->raft(), snap_seqno),
                        primary->raft().active_configs());
  EXPECT_EQ(lraft.base_seqno(), snap_seqno);
  EXPECT_EQ(lraft.commit_seqno(), snap_seqno);

  // A stale (already-covered) offer is ignored.
  lraft.InstallSnapshot(snap_seqno - 1, 1,
                        primary->raft().active_configs());
  EXPECT_EQ(lraft.base_seqno(), snap_seqno);

  // Replication resumes from the snapshot point and the flag clears.
  ASSERT_TRUE(primary->ReplicateUser("post-install").ok());
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(primary->raft().last_seqno(),
                                              10000));
  EXPECT_TRUE(cluster.env().RunUntil(
      [&] { return primary->raft().peers_needing_snapshot().empty(); },
      5000));
  EXPECT_TRUE(cluster.CommittedPrefixesAgree());
}

// ------------------------------------------------ Pipelined replication

// Appends `per_ms` user entries per simulated millisecond for `ms` ms (the
// harness adds a signature every 5), keeping many entries in flight.
void Stream(RaftCluster& cluster, RaftTestNode* primary, int ms,
            int per_ms = 10) {
  for (int t = 0; t < ms; ++t) {
    for (int i = 0; i < per_ms; ++i) {
      ASSERT_TRUE(primary->ReplicateUser("s" + std::to_string(i)).ok());
    }
    cluster.env().Step(1);
  }
}

TEST(RaftPipeline, SendsEachEntryOncePerPeer) {
  RaftCluster cluster(3);  // 1-3 ms FIFO links, no loss
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  Stream(cluster, primary, 200);
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t appended = primary->raft().last_seqno();
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(appended));
  ASSERT_EQ(cluster.GetPrimary(), primary);

  size_t sent = 0;
  size_t nacks = 0;
  for (auto& [id, node] : cluster.nodes()) {
    sent += node->entries_sent();
    nacks += node->nacks_sent();
  }
  EXPECT_EQ(sent, 2 * appended);  // once to each of the two backups
  EXPECT_EQ(nacks, 0u);
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftPipeline, DroppedAppendEntriesRewindsAndCatchesUp) {
  RaftCluster cluster(3);
  RaftTestNode* primary = cluster.WaitForPrimary();
  ASSERT_NE(primary, nullptr);
  NodeId backup;
  for (int i = 0; i < 3; ++i) {
    if (RaftCluster::Name(i) != primary->id()) backup = RaftCluster::Name(i);
  }
  Stream(cluster, primary, 50);
  primary->DropNextAppendEntriesTo(backup);
  Stream(cluster, primary, 50);
  ASSERT_TRUE(primary->ReplicateSignature().ok());
  uint64_t appended = primary->raft().last_seqno();

  // The next message after the gap NACKs, the primary rewinds to the
  // backup's hint, every log converges on the primary's, and commit
  // reaches the last entry everywhere.
  ASSERT_TRUE(cluster.WaitForCommitEverywhere(appended));
  EXPECT_GT(cluster.node(backup).nacks_sent(), 0u);
  for (auto& [id, node] : cluster.nodes()) {
    EXPECT_EQ(node->raft().last_seqno(), appended) << id;
  }
  EXPECT_TRUE(cluster.AllInvariantsHold());
}

TEST(RaftPipeline, StaleSuccessDoesNotRewind) {
  RecordingCallbacks cb;
  RaftConfig cfg = FastRaftConfig();
  RaftNode primary("n0", cfg, {"n0", "n1", "n2"}, /*start_as_primary=*/false,
                   &cb);
  primary.ForceElectionTimeout();
  primary.Tick(0);
  consensus::RequestVoteResp vote;
  vote.view = primary.view();
  vote.granted = true;
  primary.Receive(Message{"n1", vote}, 0);
  ASSERT_TRUE(primary.IsPrimary());
  cb.TakeAppendsTo("n1");  // the new view's first heartbeat
  auto replicate = [&](int n) {  // n entries, the last a signature
    for (int i = 1; i <= n; ++i) {
      auto data = std::make_shared<const Bytes>(ToBytes("e"));
      ASSERT_TRUE(
          primary.Replicate(primary.last_seqno() + 1, data, i == n).ok());
    }
  };
  auto ack = [&](uint64_t match) {
    consensus::AppendEntriesResp resp;
    resp.view = primary.view();
    resp.success = true;
    resp.match_seqno = match;
    primary.Receive(Message{"n1", resp}, 0);
  };

  // Two batches go out back to back, the second without waiting for an
  // acknowledgement of the first.
  replicate(5);
  replicate(5);
  auto sent = cb.TakeAppendsTo("n1");
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].prev_seqno, 0u);
  EXPECT_EQ(sent[0].entries.size(), 5u);
  EXPECT_EQ(sent[1].prev_seqno, 5u);
  EXPECT_EQ(sent[1].entries.size(), 5u);

  // The first batch's success, then a delayed duplicate with a lower
  // match: entries 6..10 are still in flight, so neither re-sends them.
  ack(5);
  ack(3);
  EXPECT_TRUE(cb.TakeAppendsTo("n1").empty());

  // The next heartbeat picks up after the last entry sent.
  primary.Tick(cfg.heartbeat_interval_ms);
  sent = cb.TakeAppendsTo("n1");
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].prev_seqno, 10u);
  EXPECT_TRUE(sent[0].entries.empty());
}

}  // namespace
}  // namespace ccf::testing
