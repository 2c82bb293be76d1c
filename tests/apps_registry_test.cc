// Application registry, schema validation, error envelope, 405 handling
// and generated OpenAPI (DESIGN.md §14). These drive the full
// node/session/HTTP stack in the simulator: requests go through real
// dispatch, so a schema rejection observed here really did happen before
// any KV transaction was opened.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/app.h"
#include "apps/banking.h"
#include "apps/smallbank.h"
#include "json/json.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

json::Value Obj(std::initializer_list<std::pair<const char*, json::Value>> kv) {
  json::Object o;
  for (const auto& [k, v] : kv) o[k] = v;
  return json::Value(std::move(o));
}

// Parses an error response and asserts the standard envelope
// {"error": {"code": ..., "message": ...}}, returning the code.
std::string ErrorCodeOf(const http::Response& resp) {
  auto body = json::Parse(ToString(resp.body));
  if (!body.ok()) return "<unparseable: " + ToString(resp.body) + ">";
  const json::Value* err = body->Get("error");
  if (err == nullptr || !err->is_object()) {
    return "<no error object: " + ToString(resp.body) + ">";
  }
  if (err->GetString("message").empty()) return "<empty message>";
  return err->GetString("code");
}

// ------------------------------------------------------ schema validation

TEST(SchemaGate, MalformedJsonRejected400WithoutTx) {
  ServiceHarness h;
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  node::Client* c = h.UserClient("alice");
  uint64_t seqno_before = n0->last_seqno();

  http::Request r;
  r.method = "POST";
  r.path = "/app/log";
  r.body = ToBytes("{\"id\": 1, \"msg\": ");  // truncated JSON
  r.headers["content-type"] = "application/json";
  auto resp = c->Call(std::move(r));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(ErrorCodeOf(*resp), "InvalidRequestBody");
  // Rejected before any transaction was opened: nothing was appended.
  EXPECT_EQ(n0->last_seqno(), seqno_before);
}

TEST(SchemaGate, MissingFieldAndWrongTypeRejected400WithoutTx) {
  ServiceHarness h;
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  node::Client* c = h.UserClient("alice");
  uint64_t seqno_before = n0->last_seqno();

  // Missing required field.
  auto missing = c->PostJson("/app/log", Obj({{"id", json::Value(1)}}));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);
  EXPECT_EQ(ErrorCodeOf(*missing), "InvalidInput");

  // Wrong type for a declared field.
  auto wrong_type = c->PostJson(
      "/app/log", Obj({{"id", json::Value("one")},
                       {"msg", json::Value("hello")}}));
  ASSERT_TRUE(wrong_type.ok());
  EXPECT_EQ(wrong_type->status, 400);
  EXPECT_EQ(ErrorCodeOf(*wrong_type), "InvalidInput");
  auto body = json::Parse(ToString(wrong_type->body));
  ASSERT_TRUE(body.ok());
  // The message pinpoints the offending field.
  EXPECT_NE(body->Get("error")->GetString("message").find("$.id"),
            std::string::npos);

  // Unknown extra field (schemas close their objects).
  auto extra = c->PostJson(
      "/app/log", Obj({{"id", json::Value(1)},
                       {"msg", json::Value("hi")},
                       {"mgs", json::Value("typo")}}));
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(extra->status, 400);
  EXPECT_EQ(ErrorCodeOf(*extra), "InvalidInput");

  // None of the rejects opened a transaction.
  EXPECT_EQ(n0->last_seqno(), seqno_before);

  // A conforming body still lands.
  auto good = c->PostJson("/app/log", Obj({{"id", json::Value(1)},
                                           {"msg", json::Value("hello")}}));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->status, 200);
  EXPECT_GT(n0->last_seqno(), seqno_before);
}

TEST(SchemaGate, RejectionPreservesPipelinedResponseOrder) {
  // A schema rejection answered directly from dispatch must not overtake
  // responses for requests queued in the exec batch ahead of it.
  ServiceHarness h;
  h.SetConfigTweak([](node::NodeConfig* cfg) { cfg->exec_threads = 2; });
  h.AddUser("alice");
  h.StartGenesis();
  node::Client* c = h.UserClient("alice");

  std::vector<int> statuses;
  std::vector<std::string> markers;
  for (int i = 0; i < 9; ++i) {
    http::Request r;
    r.method = "POST";
    r.path = "/app/log";
    if (i % 3 == 2) {
      r.body = ToBytes("{\"id\": \"bad\", \"msg\": \"x\"}");
    } else {
      r.body = ToBytes("{\"id\": " + std::to_string(i) +
                       ", \"msg\": \"m" + std::to_string(i) + "\"}");
    }
    r.headers["content-type"] = "application/json";
    c->SendRequest(std::move(r), [&, i](Result<http::Response> resp) {
      ASSERT_TRUE(resp.ok());
      statuses.push_back(resp->status);
      markers.push_back(std::to_string(i));
    });
  }
  ASSERT_TRUE(h.env().RunUntil([&] { return statuses.size() == 9; }, 5000));
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(markers[i], std::to_string(i)) << "responses out of order";
    EXPECT_EQ(statuses[i], i % 3 == 2 ? 400 : 200) << "request " << i;
  }
}

// ----------------------------------------------------------- 405 handling

TEST(MethodNotAllowed, KnownPathWrongMethodGets405WithAllow) {
  ServiceHarness h;
  h.AddUser("alice");
  h.StartGenesis();
  node::Client* c = h.UserClient("alice");

  // /app/log supports GET and POST; DELETE is not registered.
  http::Request r;
  r.method = "DELETE";
  r.path = "/app/log";
  auto resp = c->Call(std::move(r));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 405);
  EXPECT_EQ(ErrorCodeOf(*resp), "MethodNotAllowed");
  std::string allow = resp->GetHeader("allow");
  EXPECT_NE(allow.find("GET"), std::string::npos) << allow;
  EXPECT_NE(allow.find("POST"), std::string::npos) << allow;

  // An unknown path is still a plain 404.
  auto missing = c->Get("/app/definitely-not-here");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_EQ(ErrorCodeOf(*missing), "ResourceNotFound");
  EXPECT_TRUE(missing->GetHeader("allow").empty());
}

// Installs the scripted (CCL) logging app via governance, as members
// would (paper Table 4's set_js_app action).
void InstallScriptedApp(ServiceHarness* h) {
  json::Object args;
  args["module"] = apps::LoggingAppModule();
  auto endpoints = json::Parse(apps::LoggingAppEndpointsJson());
  ASSERT_TRUE(endpoints.ok());
  args["endpoints"] = *endpoints;
  ASSERT_TRUE(h->RunProposal("set_js_app", json::Value(std::move(args))));
}

TEST(MethodNotAllowed, ScriptedEndpointMethodsCountTowardAllow) {
  ServiceHarness h;
  h.AddUser("alice");
  h.StartGenesis();
  InstallScriptedApp(&h);
  node::Client* c = h.UserClient("alice");

  // /app/jslog is installed by governance as a scripted POST endpoint.
  http::Request r;
  r.method = "GET";
  r.path = "/app/jslog";
  auto resp = c->Call(std::move(r));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 405);
  EXPECT_NE(resp->GetHeader("allow").find("POST"), std::string::npos)
      << resp->GetHeader("allow");
}

// --------------------------------------------------------- error envelope

TEST(ErrorEnvelope, NativeAndScriptedErrorsShareTheShape) {
  ServiceHarness h;
  h.AddUser("alice");
  h.StartGenesis();
  InstallScriptedApp(&h);
  node::Client* c = h.UserClient("alice");

  // Native handler error: GET of a message that does not exist.
  auto native = c->Get("/app/log?id=999");
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(native->status, 404);
  EXPECT_EQ(ErrorCodeOf(*native), "ResourceNotFound");

  // Scripted handler error (CCL /app/jslog_read of a missing id) is
  // rewrapped into the same envelope.
  auto scripted = c->PostJson("/app/jslog_read",
                              Obj({{"id", json::Value(31337)}}));
  ASSERT_TRUE(scripted.ok());
  EXPECT_EQ(scripted->status, 404);
  EXPECT_EQ(ErrorCodeOf(*scripted), "ResourceNotFound");

  // Unauthenticated request.
  node::Client* anon = h.AnonymousClient();
  auto unauthed = anon->PostJson("/app/log", Obj({{"id", json::Value(1)},
                                                  {"msg", json::Value("x")}}));
  ASSERT_TRUE(unauthed.ok());
  EXPECT_EQ(unauthed->status, 401);
  EXPECT_EQ(ErrorCodeOf(*unauthed), "Unauthorized");
}

// ---------------------------------------------------------------- OpenAPI

class OpenApiServedTest : public ::testing::Test {
 protected:
  // One node serving logging + banking + SmallBank through the registry.
  json::Value FetchApi(ServiceHarness* h) {
    node::Client* c = h->AnonymousClient();
    auto resp = c->Get("/app/api");
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->GetHeader("content-type"), "application/json");
    auto parsed = json::Parse(ToString(resp->body));
    EXPECT_TRUE(parsed.ok()) << ToString(resp->body).substr(0, 200);
    return parsed.ok() ? *parsed : json::Value();
  }
};

TEST_F(OpenApiServedTest, CoversEveryRegisteredAppEndpoint) {
  apps::LoggingApp logging;
  apps::BankingApp banking;
  apps::SmallBankApp smallbank;
  apps::AppRegistry registry;
  registry.Add(&logging).Add(&banking).Add(&smallbank);

  ServiceHarness h;
  h.AddUser("alice");
  ASSERT_NE(h.StartGenesis(true, &registry), nullptr);
  json::Value doc = FetchApi(&h);

  EXPECT_EQ(doc.GetString("openapi"), "3.0.3");
  const json::Value* info = doc.Get("info");
  ASSERT_NE(info, nullptr);
  EXPECT_FALSE(info->GetString("title").empty());
  const json::Value* paths = doc.Get("paths");
  ASSERT_NE(paths, nullptr);
  ASSERT_TRUE(paths->is_object());

  // Every native /app endpoint from all three apps must be present.
  const struct { const char* method; const char* path; } expected[] = {
      {"post", "/app/log"},          {"get", "/app/log"},
      {"post", "/app/log_public"},   {"get", "/app/log_public"},
      {"post", "/app/rmw"},          {"get", "/app/count"},
      {"get", "/app/hashread"},      {"get", "/app/log/historical"},
      {"get", "/app/log/historical/range"},
      {"post", "/app/open_account"}, {"post", "/app/credit"},
      {"post", "/app/debit"},        {"post", "/app/transfer"},
      {"post", "/app/apply_interest"}, {"get", "/app/balance"},
      {"get", "/app/audit"},         {"get", "/app/statement"},
      {"post", "/app/sb/create_accounts"},
      {"post", "/app/sb/transact_savings"},
      {"post", "/app/sb/deposit_checking"},
      {"post", "/app/sb/send_payment"},
      {"post", "/app/sb/write_check"},
      {"post", "/app/sb/amalgamate"},
      {"get", "/app/sb/balance"},
  };
  for (const auto& e : expected) {
    const json::Value* path_item = paths->Get(e.path);
    ASSERT_NE(path_item, nullptr) << e.path << " missing from OpenAPI";
    EXPECT_NE(path_item->Get(e.method), nullptr)
        << e.method << " " << e.path << " missing from OpenAPI";
  }

  // Schema'd write endpoints document their request bodies.
  const json::Value* log_post = paths->Get("/app/log")->Get("post");
  ASSERT_NE(log_post, nullptr);
  const json::Value* req_body = log_post->Get("requestBody");
  ASSERT_NE(req_body, nullptr);
  const json::Value* schema =
      req_body->Get("content")->Get("application/json")->Get("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->GetString("type"), "object");
  ASSERT_NE(schema->Get("properties"), nullptr);
  EXPECT_NE(schema->Get("properties")->Get("id"), nullptr);

  // The shared error envelope is declared once under components.
  const json::Value* components = doc.Get("components");
  ASSERT_NE(components, nullptr);
  ASSERT_NE(components->Get("schemas"), nullptr);
  EXPECT_NE(components->Get("schemas")->Get("Error"), nullptr);

  // Every operation routes failures to it via the default response.
  const json::Value* dflt = log_post->Get("responses")->Get("default");
  ASSERT_NE(dflt, nullptr);
  EXPECT_EQ(dflt->Get("content")
                ->Get("application/json")
                ->Get("schema")
                ->GetString("$ref"),
            "#/components/schemas/Error");
}

TEST_F(OpenApiServedTest, DocumentIsStableAcrossRunsAndFetches) {
  std::string first_run;
  for (int run = 0; run < 2; ++run) {
    apps::LoggingApp logging;
    apps::BankingApp banking;
    apps::SmallBankApp smallbank;
    apps::AppRegistry registry;
    registry.Add(&logging).Add(&banking).Add(&smallbank);
    ServiceHarness h;
    h.AddUser("alice");
    ASSERT_NE(h.StartGenesis(true, &registry), nullptr);
    std::string a = FetchApi(&h).Dump();
    std::string b = FetchApi(&h).Dump();
    EXPECT_EQ(a, b) << "same node returned different documents";
    ASSERT_FALSE(a.empty());
    if (run == 0) {
      first_run = a;
    } else {
      EXPECT_EQ(a, first_run) << "fresh service returned different document";
    }
  }
}

// --------------------------------------------------- SmallBank semantics

class SmallBankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    h_.AddUser("alice");
    n0_ = h_.StartGenesis(true, &app_);
    ASSERT_NE(n0_, nullptr);
    c_ = h_.UserClient("alice");
    auto created = c_->PostJson(
        "/app/sb/create_accounts",
        Obj({{"from", json::Value(0)}, {"to", json::Value(4)},
             {"savings", json::Value(100)}, {"checking", json::Value(50)}}));
    ASSERT_TRUE(created.ok());
    ASSERT_EQ(created->status, 200) << ToString(created->body);
  }

  int64_t Balance(int account) {
    auto resp = c_->Get("/app/sb/balance?account=" + std::to_string(account));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200) << ToString(resp->body);
    auto body = json::Parse(ToString(resp->body));
    EXPECT_TRUE(body.ok());
    return body->GetInt("balance");
  }

  apps::SmallBankApp app_;
  ServiceHarness h_;
  node::Node* n0_ = nullptr;
  node::Client* c_ = nullptr;
};

TEST_F(SmallBankTest, OperationsFollowSmallBankSemantics) {
  // transact_savings accepts negative amounts but never overdraws.
  auto ts = c_->PostJson("/app/sb/transact_savings",
                         Obj({{"account", json::Value(0)},
                              {"amount", json::Value(-60)}}));
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(ts->status, 200);
  EXPECT_EQ(Balance(0), 90);  // 40 savings + 50 checking

  auto overdraw = c_->PostJson("/app/sb/transact_savings",
                               Obj({{"account", json::Value(0)},
                                    {"amount", json::Value(-41)}}));
  ASSERT_TRUE(overdraw.ok());
  EXPECT_EQ(overdraw->status, 409);
  EXPECT_EQ(ErrorCodeOf(*overdraw), "Conflict");
  EXPECT_EQ(Balance(0), 90);

  // send_payment moves checking funds; insufficient funds is a 409.
  auto pay = c_->PostJson("/app/sb/send_payment",
                          Obj({{"from", json::Value(1)},
                               {"to", json::Value(2)},
                               {"amount", json::Value(30)}}));
  ASSERT_TRUE(pay.ok());
  EXPECT_EQ(pay->status, 200);
  EXPECT_EQ(Balance(1), 120);
  EXPECT_EQ(Balance(2), 180);
  auto broke = c_->PostJson("/app/sb/send_payment",
                            Obj({{"from", json::Value(1)},
                                 {"to", json::Value(2)},
                                 {"amount", json::Value(1000)}}));
  ASSERT_TRUE(broke.ok());
  EXPECT_EQ(broke->status, 409);

  // write_check: covered check debits exactly; overdraft costs 1 extra.
  auto check = c_->PostJson("/app/sb/write_check",
                            Obj({{"account", json::Value(3)},
                                 {"amount", json::Value(120)}}));
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->status, 200);
  EXPECT_EQ(Balance(3), 30);  // 100 + 50 - 120
  auto bounce = c_->PostJson("/app/sb/write_check",
                             Obj({{"account", json::Value(3)},
                                  {"amount", json::Value(100)}}));
  ASSERT_TRUE(bounce.ok());
  EXPECT_EQ(bounce->status, 200);
  EXPECT_EQ(Balance(3), -71);  // 30 - (100 + 1) overdraft penalty

  // amalgamate drains savings+checking into the target's checking.
  auto am = c_->PostJson("/app/sb/amalgamate",
                         Obj({{"from", json::Value(2)},
                              {"to", json::Value(1)}}));
  ASSERT_TRUE(am.ok());
  EXPECT_EQ(am->status, 200);
  auto am_body = json::Parse(ToString(am->body));
  ASSERT_TRUE(am_body.ok());
  EXPECT_EQ(am_body->GetInt("moved"), 180);
  EXPECT_EQ(Balance(2), 0);
  EXPECT_EQ(Balance(1), 300);

  // Unknown accounts are 404s everywhere.
  auto missing = c_->PostJson("/app/sb/deposit_checking",
                              Obj({{"account", json::Value(99)},
                                   {"amount", json::Value(5)}}));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_EQ(ErrorCodeOf(*missing), "ResourceNotFound");
}

// send_payment(a, a, x) and amalgamate(a, a) must not create money: the
// destination is read after the source is written.
TEST_F(SmallBankTest, SameAccountCallsConserveTotal) {
  auto total = [&] {
    int64_t sum = 0;
    for (int account = 0; account < 4; ++account) sum += Balance(account);
    return sum;
  };
  ASSERT_EQ(total(), 600);  // 4 accounts x (100 savings + 50 checking)

  auto pay = c_->PostJson("/app/sb/send_payment",
                          Obj({{"from", json::Value(1)},
                               {"to", json::Value(1)},
                               {"amount", json::Value(30)}}));
  ASSERT_TRUE(pay.ok());
  EXPECT_EQ(pay->status, 200) << ToString(pay->body);
  EXPECT_EQ(Balance(1), 150);

  auto am = c_->PostJson("/app/sb/amalgamate",
                         Obj({{"from", json::Value(2)},
                              {"to", json::Value(2)}}));
  ASSERT_TRUE(am.ok());
  EXPECT_EQ(am->status, 200) << ToString(am->body);
  EXPECT_EQ(Balance(2), 150);  // savings moved into checking
  // Savings are now empty: withdrawing from them is refused.
  auto drained = c_->PostJson("/app/sb/transact_savings",
                              Obj({{"account", json::Value(2)},
                                   {"amount", json::Value(-1)}}));
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->status, 409);

  EXPECT_EQ(total(), 600);
}

TEST_F(SmallBankTest, SchemaRejectsNegativeDepositsBeforeExecution) {
  uint64_t seqno_before = n0_->last_seqno();
  // deposit_checking declares amount as uint64 (minimum 0): a negative
  // deposit is a schema violation, not a handler branch.
  auto neg = c_->PostJson("/app/sb/deposit_checking",
                          Obj({{"account", json::Value(0)},
                               {"amount", json::Value(-5)}}));
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->status, 400);
  EXPECT_EQ(ErrorCodeOf(*neg), "InvalidInput");
  EXPECT_EQ(n0_->last_seqno(), seqno_before);
}

}  // namespace
}  // namespace ccf::testing
