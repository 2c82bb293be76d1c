// Seeded chaos over the historical fetch path (paper §3.4 / §5): the
// untrusted host drops, corrupts, delays and reorders ledger-fetch
// responses mid-query. The enclave must either complete the query with
// every entry re-verified against a signed Merkle root, or fail cleanly
// with a timeout -- never serve an unverified entry and never poison the
// cache. Each seed replays bit-for-bit.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/hex.h"
#include "merkle/receipt.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

struct ChaosResult {
  std::string failure;  // empty = all invariants held
  uint64_t completed = 0;
  uint64_t timed_out = 0;
  std::string trace;  // per-query outcome fingerprint (determinism)
};

ChaosResult RunHistoricalChaos(uint64_t seed) {
  ChaosResult out;
  std::ostringstream trace;

  sim::EnvOptions opts;
  opts.seed = seed;
  ServiceHarness h(opts);
  h.AddUser("user0");
  // Short fetch timeout so lossy schedules fail fast instead of retrying
  // past the query deadline.
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->historical.fetch_timeout_ms = 300;
    cfg->historical.retry_interval_ms = 15;
    cfg->historical.cache_max_requests = 4;
  });
  node::Node* n0 = h.StartGenesis();
  h.EnableInvariantChecker();
  node::Client* client = h.UserClient("user0");

  // Some committed history to query.
  uint64_t last = 0;
  for (int i = 0; i < 15; ++i) {
    auto resp = client->PostJson("/app/log",
                                 LogBody(i % 3, "m" + std::to_string(i)));
    if (!resp.ok() || resp->status != 200) {
      out.failure = "setup write failed";
      return out;
    }
    auto txid = node::Client::TxIdOf(*resp);
    if (txid.has_value()) last = txid->second;
  }
  if (!h.env().RunUntil([&] { return n0->ReceiptableUpto() >= last; },
                        8000)) {
    out.failure = "setup never became receiptable";
    return out;
  }
  uint64_t upto = n0->ReceiptableUpto();

  crypto::Drbg chaos("historical-chaos", seed);

  // Queries under shifting host-fault regimes. Fault parameters are drawn
  // per round, including mid-query changes (the fault policy is re-read by
  // the host on every fetch it serves).
  for (int round = 0; round < 6; ++round) {
    sim::HostFaults faults;
    faults.drop = static_cast<double>(chaos.Uniform(40)) / 100.0;     // 0-39%
    faults.corrupt = static_cast<double>(chaos.Uniform(30)) / 100.0;  // 0-29%
    faults.reorder = static_cast<double>(chaos.Uniform(50)) / 100.0;
    faults.extra_delay_max_ms = chaos.Uniform(40);
    h.env().SetHostFaults("n0", faults);

    uint64_t lo = 1 + chaos.Uniform(upto);
    uint64_t hi = lo + chaos.Uniform(8);
    if (hi > upto) hi = upto;
    std::string path = "/app/log/historical/range?id=" +
                       std::to_string(chaos.Uniform(3)) +
                       "&from=" + std::to_string(lo) +
                       "&to=" + std::to_string(hi);

    // Poll until a terminal answer. 503 (clean timeout under faults) is
    // acceptable; anything else but 200 is a bug.
    Result<http::Response> final = Status::Unavailable("none");
    h.env().RunUntil(
        [&] {
          final = client->Get(path, 2000);
          return final.ok() && final->status != 202;
        },
        4000);
    if (!final.ok()) {
      out.failure = "round " + std::to_string(round) +
                    ": no terminal response: " + final.status().ToString();
      return out;
    }
    if (final->status == 200) {
      ++out.completed;
      // Every served entry carries a receipt that verifies offline.
      auto body = json::Parse(ToString(final->body));
      if (!body.ok()) {
        out.failure = "round " + std::to_string(round) + ": bad json";
        return out;
      }
      const json::Value* entries = body->Get("entries");
      for (const json::Value& e :
           entries != nullptr ? entries->AsArray() : json::Array{}) {
        auto receipt_bytes = HexDecode(e.GetString("receipt"));
        if (!receipt_bytes.ok()) {
          out.failure = "round " + std::to_string(round) + ": bad receipt hex";
          return out;
        }
        auto receipt = merkle::Receipt::Deserialize(*receipt_bytes);
        if (!receipt.ok() ||
            !receipt->Verify(n0->service_identity()).ok()) {
          out.failure = "round " + std::to_string(round) +
                        ": served entry with unverifiable receipt";
          return out;
        }
      }
    } else if (final->status == 503) {
      ++out.timed_out;
    } else {
      out.failure = "round " + std::to_string(round) +
                    ": unexpected status " + std::to_string(final->status);
      return out;
    }
    trace << "r" << round << ":" << final->status << ";";

    // The cache never holds an unverified entry, faults or not.
    Status audit = n0->historical().AuditCache(n0->service_identity());
    if (!audit.ok()) {
      out.failure = "round " + std::to_string(round) +
                    ": poisoned cache: " + audit.ToString();
      return out;
    }
  }

  // Heal: with faults cleared, a full-prefix query must complete verified.
  h.env().ClearHostFaults();
  std::string full = "/app/log/historical/range?id=0&from=1&to=" +
                     std::to_string(upto);
  Result<http::Response> healed = Status::Unavailable("none");
  if (!h.env().RunUntil(
          [&] {
            healed = client->Get(full, 2000);
            return healed.ok() && healed->status == 200;
          },
          8000)) {
    out.failure = "query did not complete after healing";
    return out;
  }
  if (!n0->historical().AuditCache(n0->service_identity()).ok()) {
    out.failure = "poisoned cache after healing";
    return out;
  }
  // Fault injection actually exercised the path (over all rounds some
  // fault fired, except for pathological all-zero draws).
  const auto& hc = n0->historical_counters();
  trace << "fetches:" << hc.host_fetch_requests
        << ";verified:" << hc.entries_verified;
  out.trace = trace.str();
  return out;
}

class HistoricalChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistoricalChaos, FaultyHostFetchesNeverPoisonTheCache) {
  const uint64_t base = GetParam() * 10;
  for (uint64_t i = 0; i < 10; ++i) {
    uint64_t seed = base + i;
    ChaosResult r = RunHistoricalChaos(seed);
    ASSERT_TRUE(r.failure.empty())
        << "seed " << seed << ": " << r.failure << "\ntrace: " << r.trace;
    // Each run resolves every query one way or the other.
    EXPECT_EQ(r.completed + r.timed_out, 6u) << "seed " << seed;
  }
}

// 20 params x 10 seeds = 200 distinct seeds.
INSTANTIATE_TEST_SUITE_P(Seeds, HistoricalChaos,
                         ::testing::Range<uint64_t>(0, 20));

// Same seed, same run: the fault schedule and every outcome replay
// bit-for-bit (the host draws faults from a dedicated seeded DRBG).
TEST(HistoricalChaosDeterminism, SameSeedSameTrace) {
  ChaosResult a = RunHistoricalChaos(7);
  ChaosResult b = RunHistoricalChaos(7);
  ASSERT_TRUE(a.failure.empty()) << a.failure;
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
}

}  // namespace
}  // namespace ccf::testing
