// The request pipeline (DESIGN.md §12): pipelined client traffic forms
// multi-request batches that execute speculatively against a shared store
// snapshot; a serial commit point validates read-sets in submission order
// and re-executes losers. Non-batchable and forwarded requests take the
// same commit step. These tests drive the real node/session/HTTP stack in
// the simulator and assert on behavior and the exec.* metrics the path
// exports.

#include <gtest/gtest.h>

#include <algorithm>
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

// ------------------------------------------------- one request pipeline

// A backup that serves no application endpoints: every /app/ request it
// gets is forwarded (a path it does not know may be a write), so whatever
// comes back was decided by the primary.
class NoEndpointsApp : public node::Application {
 public:
  void RegisterEndpoints(rpc::EndpointRegistry*,
                         const node::NodeContext&) override {}
};

// n0 (primary, logging app) and n1 (backup, NoEndpointsApp); alice is a
// registered user.
struct ForwardingService {
  ServiceHarness h;
  NoEndpointsApp backup_app;
  bool ok = false;

  ForwardingService() {
    h.AddUser("alice");
    ok = h.StartGenesis() != nullptr &&
         h.JoinAndTrust("n1", 8000, &backup_app) != nullptr;
  }
};

// A native non-batchable write (a governance proposal), a batched /app/log
// write and a write forwarded from a backup all come back stamped with a
// "view.seqno" tx id, and each id reads back Committed from GET /node/tx.
TEST(NodeExecTest, EveryPathStampsACommittedTxId) {
  ForwardingService svc;
  ASSERT_TRUE(svc.ok);
  ServiceHarness& h = svc.h;

  json::Object action{{"name", "add_node_code"},
                      {"args", json::Object{{"code_id", "pipeline-test"}}}};
  json::Object proposal{
      {"actions", json::Array{json::Value(std::move(action))}}};
  auto governance = h.MemberClient(0)->PostJsonSigned(
      "/gov/propose", json::Object{{"proposal", std::move(proposal)}});
  auto batched =
      h.UserClient("alice", "n0")->PostJson("/app/log", LogBody(1, "local"));
  auto forwarded = h.UserClient("alice", "n1")->PostJson(
      "/app/log", LogBody(2, "forwarded"));

  std::vector<std::pair<uint64_t, uint64_t>> ids;
  for (const auto* resp : {&governance, &batched, &forwarded}) {
    ASSERT_TRUE(resp->ok()) << resp->status().ToString();
    ASSERT_EQ((*resp)->status, 200) << ToString((*resp)->body);
    auto id = node::Client::TxIdOf(**resp);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ((*resp)->GetHeader(http::kTxIdHeader),
              std::to_string(id->first) + "." + std::to_string(id->second));
    ids.push_back(*id);
  }
  uint64_t last = 0;
  for (const auto& id : ids) last = std::max(last, id.second);
  ASSERT_TRUE(h.WaitForCommitEverywhere(last));

  node::Client* reader = h.UserClient("alice", "n0");
  for (const auto& [view, seqno] : ids) {
    auto status = reader->Get("/node/tx?view=" + std::to_string(view) +
                              "&seqno=" + std::to_string(seqno));
    ASSERT_TRUE(status.ok());
    auto body = json::Parse(ToString(status->body));
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(body->GetString("status"), "Committed")
        << view << "." << seqno;
  }
}

// An unknown path and a known path with the wrong method get the same 404
// and 405 answers from the primary directly and through the backup (which
// knows neither, so only the primary can have said 405).
TEST(NodeExecTest, NoEndpointAnswersMatchLocallyAndForwarded) {
  ForwardingService svc;
  ASSERT_TRUE(svc.ok);
  node::Client* local = svc.h.UserClient("alice", "n0");
  node::Client* via_backup = svc.h.UserClient("alice", "n1");

  struct Case {
    http::Request request;
    int status;
    std::string allow;
  };
  http::Request wrong_method = node::GetRequest("/app/log?id=1");
  wrong_method.method = "DELETE";
  std::vector<Case> cases;
  cases.push_back({node::GetRequest("/app/no_such_path"), 404, ""});
  cases.push_back({wrong_method, 405, "GET, POST"});
  for (const Case& c : cases) {
    auto direct = local->Call(c.request);
    auto forwarded = via_backup->Call(c.request);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(forwarded.ok());
    EXPECT_EQ(direct->status, c.status);
    EXPECT_EQ(direct->GetHeader("allow"), c.allow);
    EXPECT_EQ(forwarded->status, direct->status);
    EXPECT_EQ(forwarded->GetHeader("allow"), direct->GetHeader("allow"));
    EXPECT_EQ(ToString(forwarded->body), ToString(direct->body));
  }
}

// The backup has no schema for /app/log, so a violating body reaches the
// primary, which rejects it with the same structured 400 it gives locally.
TEST(NodeExecTest, ForwardedSchemaViolationGetsPrimary400) {
  ForwardingService svc;
  ASSERT_TRUE(svc.ok);
  json::Object bad{{"id", "not-a-number"}};
  http::Request request = node::JsonPostRequest("/app/log", bad);
  auto direct = svc.h.UserClient("alice", "n0")->Call(request);
  auto forwarded = svc.h.UserClient("alice", "n1")->Call(request);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(direct->status, 400);
  EXPECT_EQ(forwarded->status, 400);
  EXPECT_EQ(ToString(forwarded->body), ToString(direct->body));
  auto body = json::Parse(ToString(forwarded->body));
  ASSERT_TRUE(body.ok());
  const json::Value* error = body->Get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_FALSE(error->GetString("code").empty());
  EXPECT_FALSE(error->GetString("message").empty());
}

// A caller whose certificate the service does not know is re-authenticated
// on the primary and refused with the standard error envelope.
TEST(NodeExecTest, ForwardedUnknownCertificateGets401Envelope) {
  ForwardingService svc;
  ASSERT_TRUE(svc.ok);
  svc.h.AddUser("mallory");  // after genesis: never registered
  auto resp = svc.h.UserClient("mallory", "n1")->PostJson(
      "/app/log", LogBody(3, "intruder"));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 401);
  auto body = json::Parse(ToString(resp->body));
  ASSERT_TRUE(body.ok()) << ToString(resp->body);
  const json::Value* error = body->Get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "Unauthorized");
  EXPECT_FALSE(error->GetString("message").empty());
  EXPECT_FALSE(
      svc.h.node("n0")->store().GetStr("private:app.messages", "3").has_value());
}

}  // namespace
}  // namespace ccf::testing
