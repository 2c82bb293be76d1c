// Session-manager stress (ISSUE satellite): many client threads hammer a
// single live node with connect / pipelined-request / disconnect churn,
// including abrupt disconnects with responses still in flight. Exercises
// the IO thread's session bookkeeping, the enclave's kSessionClosed /
// kCloseSession paths, and the ticker/transport shutdown order.
//
// Built like any other test; run it under `-DCCF_SANITIZE=thread` for the
// TSan variant (the host subsystem is the only multi-threaded producer in
// the tree).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tests/live_harness.h"

namespace ccf::testing {
namespace {

TEST(HostStress, ConnectRequestDisconnectChurn) {
  LiveServiceHarness h;
  h.AddUser("alice");
  host::LiveNodeHost* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);
  const uint16_t port = n0->rpc_port();
  const auto identity =
      n0->WithNode([](node::Node* n) { return n->service_identity(); });

  TestUser alice("alice");
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::atomic<uint64_t> ok_responses{0};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        host::LiveClient client(
            "stress-" + std::to_string(t) + "-" + std::to_string(round),
            identity, &alice.key, alice.cert);
        if (!client.Connect("127.0.0.1", port, 5000).ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Pipeline a burst, then either drain it or hang up on it.
        const bool abandon = (t + round) % 3 == 0;
        constexpr int kBurst = 5;
        std::atomic<int> got{0};
        for (int i = 0; i < kBurst; ++i) {
          std::string msg =
              "r" + std::to_string(round) + "i" + std::to_string(i);
          client.SendRequest(node::JsonPostRequest("/app/log",
                                                   LogBody(100 + t, msg)),
                             [&](const Result<http::Response>& resp) {
                               if (resp.ok() && resp->status == 200) {
                                 ok_responses.fetch_add(1);
                                 got.fetch_add(1);
                               }
                             });
        }
        if (abandon) continue;  // destructor closes with requests in flight
        uint64_t deadline = host::SteadyNowMs() + 5000;
        while (got.load() < kBurst && host::SteadyNowMs() < deadline) {
          if (!client.PollOnce(10)) break;
        }
        if (got.load() < kBurst) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(ok_responses.load(), 0u);

  // The node is still healthy: a fresh client reads back data, and the
  // enclave no longer tracks any of the churned sessions.
  host::LiveClient* check = h.UserClient("alice");
  ASSERT_NE(check, nullptr);
  auto read = check->Get("/app/log?id=100");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->status, 200);
  // All abandoned connections eventually tear down host-side.
  EXPECT_TRUE(LiveWaitFor(
      [&] { return n0->transport().live_connections() <= 2; }, 5000));
}

}  // namespace
}  // namespace ccf::testing
