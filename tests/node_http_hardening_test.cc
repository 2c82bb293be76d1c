// HTTP session hardening (ISSUE satellite): keep-alive semantics,
// connection teardown on parse errors, and the per-connection pipelining
// cap. Driven through the simulator, where the enclave behavior is
// identical to live mode (the kCloseSession control message is simply
// ignored by the simulated host).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json/json.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

TEST(HttpHardening, ConnectionCloseHeaderHonoured) {
  ServiceHarness h;
  h.AddUser("alice");
  ASSERT_NE(h.StartGenesis(), nullptr);
  node::Client* alice = h.UserClient("alice");

  http::Request req =
      node::JsonPostRequest("/app/log", LogBody(1, "final word"));
  req.headers["connection"] = "close";
  auto resp = alice->Call(std::move(req));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  // The response announces the close.
  EXPECT_EQ(resp->GetHeader("connection"), "close");

  // The client dropped the session with the announced close: a further
  // request on it fails at once instead of waiting out its timeout.
  const uint64_t before_ms = h.env().now_ms();
  auto after = alice->Get("/app/log?id=1", 500);
  EXPECT_FALSE(after.ok());
  EXPECT_LT(h.env().now_ms() - before_ms, 1u);

  // A fresh session works (and sees the committed write).
  alice->Connect("n0");
  auto read = alice->Get("/app/log?id=1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->status, 200);
  EXPECT_NE(ToString(read->body).find("final word"), std::string::npos);
}

TEST(HttpHardening, PipelineCapRejectsAndCloses) {
  ServiceHarness h;
  h.AddUser("alice");
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->http_max_pipeline = 2; });
  ASSERT_NE(h.StartGenesis(), nullptr);
  node::Client* alice = h.UserClient("alice");

  std::vector<http::Response> got;
  constexpr int kBurst = 5;
  for (int i = 0; i < kBurst; ++i) {
    alice->SendRequest(
        node::JsonPostRequest("/app/log", LogBody(2, "b" + std::to_string(i))),
        [&](Result<http::Response> resp) {
          if (resp.ok()) got.push_back(std::move(*resp));
        });
  }
  // The first two complete; the third exceeds the cap and is rejected
  // with 503 + connection: close; the rest die with the connection.
  ASSERT_TRUE(h.env().RunUntil([&] { return got.size() >= 3; }, 5000));
  h.env().Step(200);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].status, 200);
  EXPECT_EQ(got[1].status, 200);
  EXPECT_EQ(got[2].status, 503);
  EXPECT_EQ(got[2].GetHeader("connection"), "close");
}

TEST(HttpHardening, ParseErrorGets400AndClose) {
  ServiceHarness h;
  ASSERT_NE(h.StartGenesis(), nullptr);
  node::Client* client = h.AnonymousClient();

  // A method that ends the request head early: the node sees the request
  // line "definitely-not-http", which fails HTTP request parsing.
  http::Request garbage;
  garbage.method = "definitely-not-http\r\n\r\n";
  auto resp = client->Call(std::move(garbage));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(resp->GetHeader("connection"), "close");

  // The session is dead: a valid request after the parse error gets
  // nothing back, and fails at once.
  const uint64_t before_ms = h.env().now_ms();
  EXPECT_FALSE(client->Get("/app/log?id=1", 500).ok());
  EXPECT_LT(h.env().now_ms() - before_ms, 1u);
  EXPECT_EQ(client->responses_received(), 1u);
}

}  // namespace
}  // namespace ccf::testing
