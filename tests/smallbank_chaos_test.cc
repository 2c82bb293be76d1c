// SmallBank determinism under batched optimistic execution (DESIGN.md
// §12, §14): a seeded Zipfian workload hammers a handful of hot accounts
// with pipelined read-modify-writes, so exec batches carry genuine OCC
// conflicts. A service configured with exec_threads=4 must replay
// bit-identically to the inline exec_threads=0 baseline: same per-request
// statuses and bodies in order, same commit seqno, same Merkle root and
// committed KV state. 20 batches x 10 seeds = 200 seeded workloads, each
// run both ways.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/smallbank.h"
#include "apps/workload.h"
#include "crypto/hmac.h"
#include "json/json.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

constexpr size_t kAccounts = 16;
constexpr double kSkew = 0.99;
constexpr int kRequests = 64;
constexpr int kPipelineDepth = 8;

struct SbOutcome {
  std::string failure;
  // One line per response, in submission order: "<status> <body>".
  std::string trace;
  Bytes final_state;
};

// Draws the classic SmallBank transaction mix with Zipfian-hot accounts.
// Consuming the DRBG identically on every run makes the request sequence
// a pure function of the seed.
http::Request DrawRequest(crypto::Drbg* drbg,
                          const apps::ZipfianSampler& zipf) {
  int64_t a = static_cast<int64_t>(zipf.Sample(drbg));
  int64_t b = static_cast<int64_t>(zipf.Sample(drbg));
  int64_t amount = static_cast<int64_t>(drbg->Uniform(40)) + 1;
  switch (drbg->Uniform(6)) {
    case 0: {
      json::Object body;
      body["account"] = a;
      body["amount"] = (drbg->Uniform(2) == 0) ? amount : -amount;
      return node::JsonPostRequest("/app/sb/transact_savings", std::move(body));
    }
    case 1: {
      json::Object body;
      body["account"] = a;
      body["amount"] = amount;
      return node::JsonPostRequest("/app/sb/deposit_checking", std::move(body));
    }
    case 2: {
      json::Object body;
      body["from"] = a;
      body["to"] = b;
      body["amount"] = amount;
      return node::JsonPostRequest("/app/sb/send_payment", std::move(body));
    }
    case 3: {
      json::Object body;
      body["account"] = a;
      body["amount"] = amount;
      return node::JsonPostRequest("/app/sb/write_check", std::move(body));
    }
    case 4: {
      json::Object body;
      body["from"] = a;
      body["to"] = b;
      return node::JsonPostRequest("/app/sb/amalgamate", std::move(body));
    }
    default:
      return node::GetRequest("/app/sb/balance?account=" + std::to_string(a));
  }
}

SbOutcome RunSmallBankChaos(uint64_t seed, uint64_t exec_threads) {
  SbOutcome out;
  apps::SmallBankApp app;
  ServiceHarness h;
  h.SetConfigTweak([exec_threads](node::NodeConfig* cfg) {
    cfg->exec_threads = exec_threads;
  });
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis(true, &app);
  if (n0 == nullptr) {
    out.failure = "genesis failed";
    return out;
  }
  node::Client* c = h.UserClient("alice");

  json::Object setup;
  setup["from"] = 0;
  setup["to"] = static_cast<int64_t>(kAccounts);
  setup["savings"] = 100;
  setup["checking"] = 100;
  auto created = c->Call(
      node::JsonPostRequest("/app/sb/create_accounts", std::move(setup)));
  if (!created.ok() || created->status != 200) {
    out.failure = "account setup failed";
    return out;
  }

  crypto::Drbg drbg("smallbank-chaos", seed);
  apps::ZipfianSampler zipf(kAccounts, kSkew);
  std::vector<std::string> responses;
  size_t sent = 0;
  size_t errors = 0;
  // Fire-and-forget in windows of kPipelineDepth so requests pipeline into
  // the node's inbox and form real exec batches.
  while (sent < kRequests) {
    size_t window = std::min<size_t>(kPipelineDepth, kRequests - sent);
    for (size_t i = 0; i < window; ++i) {
      c->SendRequest(DrawRequest(&drbg, zipf),
                     [&responses, &errors](Result<http::Response> resp) {
                       if (!resp.ok()) {
                         ++errors;
                         responses.push_back("transport-error");
                         return;
                       }
                       responses.push_back(std::to_string(resp->status) +
                                           " " + ToString(resp->body));
                     });
    }
    sent += window;
    if (!h.env().RunUntil([&] { return responses.size() >= sent; }, 5000)) {
      out.failure = "window timed out";
      return out;
    }
  }
  if (errors != 0) {
    out.failure = "transport errors";
    return out;
  }

  if (!h.env().RunUntil(
          [&] { return n0->commit_seqno() >= n0->last_seqno(); }, 5000)) {
    out.failure = "commit did not converge";
    return out;
  }
  for (const std::string& line : responses) {
    out.trace += line;
    out.trace += '\n';
  }
  out.final_state = ServiceHarness::StateDigest(n0);
  return out;
}

class SmallBankChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmallBankChaosTest, ExecThreadsPreserveDeterminismAcrossSeedBatch) {
  for (uint64_t i = 0; i < 10; ++i) {
    uint64_t seed = GetParam() * 10 + i;
    SbOutcome inline_exec = RunSmallBankChaos(seed, /*exec_threads=*/0);
    SbOutcome pooled_exec = RunSmallBankChaos(seed, /*exec_threads=*/4);
    ASSERT_EQ(inline_exec.failure, pooled_exec.failure) << "seed " << seed;
    ASSERT_TRUE(inline_exec.failure.empty())
        << "seed " << seed << ": " << inline_exec.failure;
    EXPECT_EQ(inline_exec.trace, pooled_exec.trace) << "seed " << seed;
    EXPECT_EQ(inline_exec.final_state, pooled_exec.final_state)
        << "seed " << seed;
    ASSERT_FALSE(inline_exec.final_state.empty()) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedBatches, SmallBankChaosTest,
                         ::testing::Range<uint64_t>(0, 20));

// A pooled run also replays bit-for-bit against itself: worker wall-clock
// finish order varies, but retirement is by submission order.
TEST(SmallBankChaosDeterminism, PooledRunReplaysBitForBit) {
  SbOutcome a = RunSmallBankChaos(7, /*exec_threads=*/4);
  SbOutcome b = RunSmallBankChaos(7, /*exec_threads=*/4);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.final_state, b.final_state);
}

}  // namespace
}  // namespace ccf::testing
