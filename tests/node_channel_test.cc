// Node-to-node channel key lifecycle: AES-GCM nonces are (epoch, counter,
// direction) and the 2^64 counter space must never wrap within an epoch.
// When a channel's send counter reaches kChannelRekeyAt the node fails
// closed: it bumps the channel epoch (a fresh HKDF derivation over the
// shared ECDH secret) and resets the counter, and receivers keep a small
// cache of recent epoch keys so in-flight messages from the previous
// epoch still decrypt. These tests force a near-wrap counter and assert
// the rekey happens, is counted, and never interrupts consensus.

#include <gtest/gtest.h>

#include <string>

#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

TEST(NodeChannel, NearWrapCounterTriggersEpochRekey) {
  ServiceHarness h;
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);

  // Channels started at epoch 0 with small counters.
  ASSERT_EQ(n0->channel_send_epoch("n1"), 0u);
  uint64_t sent_so_far = n0->channel_send_counter("n1");
  ASSERT_GT(sent_so_far, 0u);  // join/consensus traffic flowed
  ASSERT_LT(sent_so_far, node::Node::kChannelRekeyAt);

  // Jump n0's counter for the n0->n1 channel to just below the limit;
  // the next couple of heartbeats push it over.
  n0->TestForceChannelCounter("n1", node::Node::kChannelRekeyAt - 2);
  h.env().Step(100);

  EXPECT_EQ(n0->channel_send_epoch("n1"), 1u);
  // Fresh epoch, fresh counter: far away from the threshold again.
  EXPECT_LT(n0->channel_send_counter("n1"), 1000u);
  EXPECT_GE(n0->metrics().ScalarValue("channel.rekeys"), 1u);
  // The unrelated channel kept its epoch.
  EXPECT_EQ(n0->channel_send_epoch("n2"), 0u);

  // Consensus across the rekeyed channel still works: a write commits on
  // every node, meaning n1 decrypted epoch-1 traffic from n0.
  node::Client* c = h.UserClient("alice");
  auto w = c->PostJson("/app/log", LogBody(1, "post-rekey"), 3000);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(w->status, 200);
  uint64_t target = n0->last_seqno();
  EXPECT_TRUE(h.WaitForCommitEverywhere(target, 5000));
  EXPECT_EQ(n0->channel_send_epoch("n1"), 1u);
}

TEST(NodeChannel, RepeatedRekeysSurviveContinuousLoad) {
  ServiceHarness h;
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);

  node::Client* c = h.UserClient("alice");
  for (int round = 0; round < 3; ++round) {
    // Near-wrap both of the primary's channels mid-load.
    n0->TestForceChannelCounter("n1", node::Node::kChannelRekeyAt - 1);
    n0->TestForceChannelCounter("n2", node::Node::kChannelRekeyAt - 1);
    auto w = c->PostJson("/app/log",
                         LogBody(round, "load-" + std::to_string(round)), 3000);
    ASSERT_TRUE(w.ok());
    ASSERT_EQ(w->status, 200);
    h.env().Step(50);
    EXPECT_EQ(n0->channel_send_epoch("n1"),
              static_cast<uint32_t>(round + 1));
    EXPECT_EQ(n0->channel_send_epoch("n2"),
              static_cast<uint32_t>(round + 1));
  }
  EXPECT_GE(n0->metrics().ScalarValue("channel.rekeys"), 6u);

  uint64_t target = n0->last_seqno();
  EXPECT_TRUE(h.WaitForCommitEverywhere(target, 5000));
}

}  // namespace
}  // namespace ccf::testing
