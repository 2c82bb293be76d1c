// Exec-batch flush policy (ISSUE satellite): with exec_batch_max /
// exec_batch_deadline_ms set, batches persist across inbox drains until
// the size or deadline trigger fires, instead of flushing unconditionally
// at every drain. Defaults (0/0) keep the historical drain-flush — the
// chaos suites assert that path stays bit-identical.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json/json.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

TEST(FlushPolicy, SizeTriggerFormsFixedBatches) {
  ServiceHarness h;
  h.AddUser("alice");
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->exec_batch_max = 4;
    cfg->exec_batch_deadline_ms = 10;
  });
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);

  node::Client* alice = h.UserClient("alice");
  constexpr int kRequests = 10;
  int responses = 0;
  for (int i = 0; i < kRequests; ++i) {
    alice->SendRequest(node::JsonPostRequest(
                           "/app/log", LogBody(1, "m" + std::to_string(i))),
                       [&](Result<http::Response> resp) {
                         ASSERT_TRUE(resp.ok());
                         EXPECT_EQ(resp->status, 200);
                         ++responses;
                       });
  }
  ASSERT_TRUE(h.env().RunUntil([&] { return responses == kRequests; }, 5000));

  // 10 pipelined requests with max=4: at least two size-triggered flushes,
  // the tail (2 requests) goes out on the deadline, and the unconditional
  // drain flush never fires under a deferred policy.
  EXPECT_GE(n0->metrics().ScalarValue("exec.flush.size"), 2u);
  EXPECT_GE(n0->metrics().ScalarValue("exec.flush.deadline"), 1u);
  EXPECT_EQ(n0->metrics().ScalarValue("exec.flush.drain"), 0u);

  auto read = alice->Get("/app/log?id=1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->status, 200);
  EXPECT_NE(ToString(read->body).find("m9"), std::string::npos);
}

TEST(FlushPolicy, DeadlineTriggerFlushesSmallBatches) {
  ServiceHarness h;
  h.AddUser("alice");
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->exec_batch_max = 100;  // never reached
    cfg->exec_batch_deadline_ms = 5;
  });
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);

  node::Client* alice = h.UserClient("alice");
  auto resp = alice->PostJson("/app/log", LogBody(2, "held"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_GE(n0->metrics().ScalarValue("exec.flush.deadline"), 1u);
  EXPECT_EQ(n0->metrics().ScalarValue("exec.flush.size"), 0u);
  EXPECT_EQ(n0->metrics().ScalarValue("exec.flush.drain"), 0u);
}

TEST(FlushPolicy, DefaultsKeepDrainFlush) {
  ServiceHarness h;
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);
  node::Client* alice = h.UserClient("alice");
  auto resp = alice->PostJson("/app/log", LogBody(3, "legacy"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_GT(n0->metrics().ScalarValue("exec.flush.drain"), 0u);
  EXPECT_EQ(n0->metrics().ScalarValue("exec.flush.size"), 0u);
  EXPECT_EQ(n0->metrics().ScalarValue("exec.flush.deadline"), 0u);
}

// The same pipelined workload produces the same application state whether
// the deferred policy is on or off — batching changes latency envelopes,
// never results.
TEST(FlushPolicy, PolicyOnAndOffConverge) {
  auto run = [](bool deferred) {
    ServiceHarness h;
    h.AddUser("alice");
    if (deferred) {
      h.SetConfigTweak([](node::NodeConfig* cfg) {
        cfg->exec_batch_max = 3;
        cfg->exec_batch_deadline_ms = 7;
      });
    }
    node::Node* n0 = h.StartGenesis();
    EXPECT_NE(n0, nullptr);
    node::Client* alice = h.UserClient("alice");
    int responses = 0;
    for (int i = 0; i < 17; ++i) {
      alice->SendRequest(
          node::JsonPostRequest(
              "/app/log", LogBody(i % 3, "payload-" + std::to_string(i))),
          [&](Result<http::Response> resp) {
            EXPECT_TRUE(resp.ok() && resp->status == 200);
            ++responses;
          });
    }
    EXPECT_TRUE(h.env().RunUntil([&] { return responses == 17; }, 5000));
    std::vector<std::string> logs;
    for (uint64_t id = 0; id < 3; ++id) {
      auto read = alice->Get("/app/log?id=" + std::to_string(id));
      EXPECT_TRUE(read.ok() && read->status == 200);
      logs.push_back(read.ok() ? ToString(read->body) : "");
    }
    return logs;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace ccf::testing
