// Batched optimistic request execution (DESIGN.md §12): pipelined client
// traffic forms multi-request batches that execute speculatively against a
// shared store snapshot; a serial commit point validates read-sets in
// submission order and re-executes losers. These tests drive the real
// node/session/HTTP stack in the simulator and assert on behavior and the
// exec.* metrics the path exports.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "json/json.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

struct Collected {
  std::vector<int> statuses;
  std::vector<std::string> bodies;
  size_t errors = 0;
};

// Fires `requests` through `c` fire-and-forget (so they pipeline into the
// node's inbox and can batch), then drives the sim until all responses
// arrive.
Collected Pipeline(ServiceHarness* h, node::Client* c,
                   std::vector<http::Request> requests,
                   uint64_t timeout_ms = 5000) {
  Collected out;
  size_t expected = requests.size();
  for (http::Request& r : requests) {
    c->SendRequest(std::move(r), [&out](Result<http::Response> resp) {
      if (!resp.ok()) {
        ++out.errors;
        out.statuses.push_back(-1);
        out.bodies.push_back(resp.status().ToString());
        return;
      }
      out.statuses.push_back(resp->status);
      out.bodies.push_back(ToString(resp->body));
    });
  }
  h->env().RunUntil(
      [&] { return out.statuses.size() + out.errors >= expected; },
      timeout_ms);
  return out;
}

// Pipelined traffic actually batches: requests parsed from the inbox in
// one drain pass execute as one batch, visible as exec.batches growing
// slower than exec.requests.
TEST(NodeExecTest, PipelinedRequestsFormBatches) {
  ServiceHarness h;
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->exec_threads = 2; });
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);
  node::Client* c = h.UserClient("alice");

  // Seed one message, then pipeline a read-heavy mix.
  auto w = c->PostJson("/app/log", LogBody(1, "hello"));
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(w->status, 200);

  uint64_t requests_before = n0->metrics().ScalarValue("exec.requests");
  uint64_t batches_before = n0->metrics().ScalarValue("exec.batches");

  const int kN = 24;
  std::vector<http::Request> reqs;
  for (int i = 0; i < kN; ++i) {
    if (i % 4 == 3) {
      json::Object msg;
      msg["id"] = 10 + i;
      msg["msg"] = "m" + std::to_string(i);
      reqs.push_back(node::JsonPostRequest("/app/log", std::move(msg)));
    } else {
      reqs.push_back(node::GetRequest("/app/log?id=1"));
    }
  }
  Collected got = Pipeline(&h, c, std::move(reqs));
  ASSERT_EQ(got.errors, 0u);
  ASSERT_EQ(got.statuses.size(), static_cast<size_t>(kN));
  for (int s : got.statuses) EXPECT_EQ(s, 200);

  uint64_t requests_after = n0->metrics().ScalarValue("exec.requests");
  uint64_t batches_after = n0->metrics().ScalarValue("exec.batches");
  EXPECT_GE(requests_after - requests_before, static_cast<uint64_t>(kN));
  EXPECT_GE(batches_after - batches_before, 1u);
  // The whole point: fewer batches than requests => real multi-request
  // batches executed on the worker pool.
  EXPECT_LT(batches_after - batches_before, requests_after - requests_before);

  // Read-only traffic never conflicts (it skips read-set validation).
  uint64_t conflicts = n0->metrics().ScalarValue("exec.conflicts");
  Collected ro = Pipeline(&h, c, {node::GetRequest("/app/log?id=1"),
                                  node::GetRequest("/app/hashread?id=1"),
                                  node::GetRequest("/app/count")});
  ASSERT_EQ(ro.errors, 0u);
  for (int s : ro.statuses) EXPECT_EQ(s, 200);
  EXPECT_EQ(n0->metrics().ScalarValue("exec.conflicts"), conflicts);
}

// Contended read-modify-writes in one batch: exactly one wins the
// speculative round, the rest re-execute serially at the commit point.
// Every request succeeds, the counter ends exact, and the conflict/retry
// counters prove OCC actually engaged.
TEST(NodeExecTest, ContendedRmwRetriesAndStaysExact) {
  ServiceHarness h;
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->exec_threads = 4; });
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);
  node::Client* c = h.UserClient("alice");
  // Establish the session outside the measured window.
  ASSERT_TRUE(c->Get("/app/count").ok());

  const int kN = 12;
  std::vector<http::Request> reqs;
  for (int i = 0; i < kN; ++i) {
    json::Object body;
    body["id"] = 7;
    reqs.push_back(node::JsonPostRequest("/app/rmw", std::move(body)));
  }
  Collected got = Pipeline(&h, c, std::move(reqs));
  ASSERT_EQ(got.errors, 0u);
  ASSERT_EQ(got.statuses.size(), static_cast<size_t>(kN));
  std::set<int64_t> values;
  for (size_t i = 0; i < got.statuses.size(); ++i) {
    ASSERT_EQ(got.statuses[i], 200) << got.bodies[i];
    auto body = json::Parse(got.bodies[i]);
    ASSERT_TRUE(body.ok());
    values.insert(body->GetInt("value"));
  }
  // No lost updates, no double counting: the kN responses carry exactly
  // the values 1..kN.
  EXPECT_EQ(values.size(), static_cast<size_t>(kN));
  EXPECT_EQ(*values.begin(), 1);
  EXPECT_EQ(*values.rbegin(), kN);

  json::Object probe;
  probe["id"] = 7;
  auto final_resp = c->PostJson("/app/rmw", json::Value(std::move(probe)));
  ASSERT_TRUE(final_resp.ok());
  ASSERT_EQ(final_resp->status, 200);
  auto final_body = json::Parse(ToString(final_resp->body));
  ASSERT_TRUE(final_body.ok());
  EXPECT_EQ(final_body->GetInt("value"), kN + 1);

  // OCC engaged: conflicts were detected and losers re-executed.
  EXPECT_GT(n0->metrics().ScalarValue("exec.conflicts"), 0u);
  EXPECT_GT(n0->metrics().ScalarValue("exec.retries"), 0u);
  // Nothing hit the bounded-retry ceiling (serial re-execution always
  // makes progress under this workload).
  EXPECT_EQ(n0->metrics().ScalarValue("exec.aborts"), 0u);
}

// The same pipelined mixed workload produces byte-identical response
// streams with the pool off (inline) and on: parallel speculation is an
// implementation detail, never an observable one.
TEST(NodeExecTest, ExecThreadsDoNotChangeResponses) {
  auto run = [](uint64_t exec_threads) {
    ServiceHarness h;
    h.SetConfigTweak([exec_threads](node::NodeConfig* cfg) {
      cfg->exec_threads = exec_threads;
    });
    h.AddUser("alice");
    ServiceHarness* hp = &h;
    if (h.StartGenesis() == nullptr) return Collected{};
    node::Client* c = h.UserClient("alice");
    auto warm = c->Get("/app/count");
    if (!warm.ok()) return Collected{};

    std::vector<http::Request> reqs;
    for (int i = 0; i < 20; ++i) {
      switch (i % 4) {
        case 0: {
          json::Object msg;
          msg["id"] = i;
          msg["msg"] = "det-" + std::to_string(i);
          reqs.push_back(node::JsonPostRequest("/app/log", std::move(msg)));
          break;
        }
        case 1: {
          json::Object body;
          body["id"] = i % 3;
          reqs.push_back(node::JsonPostRequest("/app/rmw", std::move(body)));
          break;
        }
        case 2:
          reqs.push_back(
              node::GetRequest("/app/log?id=" + std::to_string(i - 2)));
          break;
        default:
          reqs.push_back(node::GetRequest("/app/count"));
      }
    }
    return Pipeline(hp, c, std::move(reqs));
  };

  Collected inline_run = run(0);
  Collected pooled_run = run(4);
  ASSERT_EQ(inline_run.errors, 0u);
  ASSERT_EQ(pooled_run.errors, 0u);
  ASSERT_EQ(inline_run.statuses.size(), 20u);
  EXPECT_EQ(inline_run.statuses, pooled_run.statuses);
  EXPECT_EQ(inline_run.bodies, pooled_run.bodies);
}

}  // namespace
}  // namespace ccf::testing
