// Historical queries and asynchronous indexing (paper §3.4): the enclave
// fetches committed entries back from the untrusted host ledger over the
// ringbuffer boundary, re-verifies them against signed Merkle roots, and
// serves point-in-time reads from a bounded cache; an in-enclave indexer
// feeds committed entries to application strategies under a per-tick
// budget.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hex.h"
#include "merkle/receipt.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

// Writes `msg` under `id` via /app/log and returns the assigned seqno.
uint64_t WriteLog(node::Client* client, int64_t id, const std::string& msg) {
  auto resp = client->PostJson("/app/log", LogBody(id, msg));
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  auto txid = node::Client::TxIdOf(*resp);
  EXPECT_TRUE(txid.has_value());
  return txid.has_value() ? txid->second : 0;
}

// Polls a historical endpoint until it stops answering 202 Accepted.
Result<http::Response> PollHistorical(ServiceHarness* h, node::Client* client,
                                      const std::string& path,
                                      uint64_t timeout_ms = 8000) {
  Result<http::Response> last = Status::Unavailable("no response yet");
  h->env().RunUntil(
      [&] {
        last = client->Get(path);
        return last.ok() && last->status != 202;
      },
      timeout_ms);
  return last;
}

// Waits until everything appended so far is committed and covered by a
// signed root (so receipts exist for the full prefix).
bool WaitReceiptable(ServiceHarness* h, node::Node* n, uint64_t seqno,
                     uint64_t timeout_ms = 8000) {
  return h->env().RunUntil([&] { return n->ReceiptableUpto() >= seqno; },
                           timeout_ms);
}

void ExpectReceiptVerifies(const json::Value& obj,
                           const crypto::PublicKeyBytes& service_identity) {
  auto receipt_bytes = HexDecode(obj.GetString("receipt"));
  ASSERT_TRUE(receipt_bytes.ok());
  auto receipt = merkle::Receipt::Deserialize(*receipt_bytes);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(receipt->Verify(service_identity).ok());
}

TEST(HistoricalQuery, PointInTimeReadOfOverwrittenKey) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  uint64_t s1 = WriteLog(client, 5, "v1");
  ASSERT_GT(s1, 0u);
  // Pad with writes to other ids, then overwrite.
  WriteLog(client, 6, "other");
  uint64_t s2 = WriteLog(client, 5, "v2");
  ASSERT_GT(s2, s1);
  ASSERT_TRUE(WaitReceiptable(&h, n0, s2));

  // As-of s1: the original value, with a verifiable receipt.
  auto old_resp = PollHistorical(
      &h, client, "/app/log/historical?id=5&seqno=" + std::to_string(s1));
  ASSERT_TRUE(old_resp.ok()) << old_resp.status().ToString();
  ASSERT_EQ(old_resp->status, 200) << ToString(old_resp->body);
  auto old_body = json::Parse(ToString(old_resp->body));
  ASSERT_TRUE(old_body.ok());
  EXPECT_EQ(old_body->GetString("msg"), "v1");
  EXPECT_EQ(old_body->GetInt("seqno"), static_cast<int64_t>(s1));
  ExpectReceiptVerifies(*old_body, n0->service_identity());

  // Without a seqno: the latest receiptable write.
  auto new_resp = PollHistorical(&h, client, "/app/log/historical?id=5");
  ASSERT_TRUE(new_resp.ok());
  ASSERT_EQ(new_resp->status, 200) << ToString(new_resp->body);
  auto new_body = json::Parse(ToString(new_resp->body));
  ASSERT_TRUE(new_body.ok());
  EXPECT_EQ(new_body->GetString("msg"), "v2");
  ExpectReceiptVerifies(*new_body, n0->service_identity());

  // The data actually crossed the host boundary and was re-verified.
  EXPECT_GT(n0->historical_counters().host_fetch_requests, 0u);
  EXPECT_GT(n0->historical_counters().entries_verified, 0u);
  EXPECT_TRUE(n0->historical().AuditCache(n0->service_identity()).ok());
}

// The acceptance scenario: a range query reaching far outside the
// enclave's retained-roots window is served by fetching entries back from
// the host and re-verifying each against a signed Merkle root.
TEST(HistoricalQuery, RangeOutsideRetainedRootsWindow) {
  ServiceHarness h;
  h.AddUser("user0");
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->kv_retained_root_cap = 2;  // in-enclave window: ~2 recent roots
  });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  std::vector<uint64_t> writes;
  uint64_t last = 0;
  for (int i = 0; i < 12; ++i) {
    writes.push_back(WriteLog(client, 7, "msg-" + std::to_string(i)));
    last = WriteLog(client, 1000 + i, "padding");  // other ids interleave
  }
  ASSERT_TRUE(WaitReceiptable(&h, n0, last));
  uint64_t upto = n0->ReceiptableUpto();

  auto resp = PollHistorical(&h, client,
                             "/app/log/historical/range?id=7&from=1&to=" +
                                 std::to_string(upto));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, 200) << ToString(resp->body);
  auto body = json::Parse(ToString(resp->body));
  ASSERT_TRUE(body.ok());
  const json::Value* entries = body->Get("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->AsArray().size(), writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    const json::Value& e = entries->AsArray()[i];
    EXPECT_EQ(e.GetInt("seqno"), static_cast<int64_t>(writes[i]));
    EXPECT_EQ(e.GetString("msg"), "msg-" + std::to_string(i));
    ExpectReceiptVerifies(e, n0->service_identity());
  }

  // The whole range crossed the host boundary: every fetched entry was
  // re-verified in the enclave, none rejected.
  EXPECT_GT(n0->historical_counters().host_fetch_requests, 0u);
  EXPECT_GE(n0->historical_counters().entries_verified, upto);
  EXPECT_EQ(n0->historical_counters().entries_rejected, 0u);
  EXPECT_TRUE(n0->historical().AuditCache(n0->service_identity()).ok());
}

TEST(HistoricalQuery, CacheIsLruBoundedAndRefetches) {
  ServiceHarness h;
  h.AddUser("user0");
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->historical.cache_max_requests = 2;
  });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  uint64_t last = 0;
  for (int i = 0; i < 12; ++i) last = WriteLog(client, 7, "m");
  ASSERT_TRUE(WaitReceiptable(&h, n0, last));
  uint64_t upto = n0->ReceiptableUpto();
  ASSERT_GE(upto, 9u);

  // Three distinct ranges: the third completion must evict the oldest.
  std::vector<std::string> paths = {
      "/app/log/historical/range?id=7&from=1&to=3",
      "/app/log/historical/range?id=7&from=4&to=6",
      "/app/log/historical/range?id=7&from=7&to=9",
  };
  for (const std::string& p : paths) {
    auto resp = PollHistorical(&h, client, p);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->status, 200) << ToString(resp->body);
  }
  EXPECT_LE(n0->historical().cached_requests(), 2u);
  EXPECT_GE(n0->historical().stats().evictions, 1u);

  // The evicted range is gone from the cache but transparently refetched.
  uint64_t fetches_before = n0->historical().stats().fetches;
  auto again = PollHistorical(&h, client, paths[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, 200);
  EXPECT_GT(n0->historical().stats().fetches, fetches_before);
  EXPECT_TRUE(n0->historical().AuditCache(n0->service_identity()).ok());
}

TEST(HistoricalQuery, OverwideRangeFailsFast) {
  ServiceHarness h;
  h.AddUser("user0");
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->historical.max_range = 4; });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  uint64_t last = 0;
  for (int i = 0; i < 10; ++i) last = WriteLog(client, 7, "m");
  ASSERT_TRUE(WaitReceiptable(&h, n0, last));

  auto resp = PollHistorical(&h, client,
                             "/app/log/historical/range?id=7&from=1&to=" +
                                 std::to_string(n0->ReceiptableUpto()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 503);  // rejected immediately, nothing cached
  EXPECT_EQ(n0->historical().cached_requests(), 0u);
}

TEST(AsyncIndexer, BackpressureBudgetAndCatchUp) {
  ServiceHarness h;
  h.AddUser("user0");
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->historical.index_entries_per_tick = 2;
  });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  uint64_t last = 0;
  for (int i = 0; i < 30; ++i) last = WriteLog(client, i % 3, "m");
  ASSERT_TRUE(h.env().RunUntil([&] { return n0->commit_seqno() >= last; },
                               8000));
  // The indexer drains its backlog and catches up with commit.
  ASSERT_TRUE(h.env().RunUntil(
      [&] { return n0->indexer().Lag(n0->commit_seqno()) == 0; }, 8000));
  EXPECT_GE(n0->indexer().indexed_upto(), last);
  // The per-tick budget was respected throughout.
  EXPECT_LE(n0->indexer().stats().max_fed_per_tick, 2u);
  EXPECT_GE(n0->indexer().stats().entries_fed, 30u);
  EXPECT_EQ(n0->indexer().stats().decode_failures, 0u);
}

// Receipt edge cases around signed-root boundaries (satellite of the
// historical subsystem: fetched entries are verified with these receipts).
TEST(ReceiptEdgeCases, EverySeqnoUpToBoundaryVerifies) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  uint64_t last = 0;
  for (int i = 0; i < 12; ++i) last = WriteLog(client, i, "m");
  ASSERT_TRUE(WaitReceiptable(&h, n0, last));
  uint64_t upto = n0->ReceiptableUpto();
  ASSERT_GE(upto, last);

  // Receipts exist and verify for the entire receiptable prefix -- in
  // particular for signature-carrying entries and for the entry exactly at
  // the signed-root boundary (seqno == root.seqno - 1).
  for (uint64_t s = 1; s <= upto; ++s) {
    auto resp = client->Get("/node/receipt?seqno=" + std::to_string(s));
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->status, 200) << "seqno " << s << ": "
                                 << ToString(resp->body);
    auto body = json::Parse(ToString(resp->body));
    ASSERT_TRUE(body.ok());
    EXPECT_GT(body->GetInt("root_seqno"), static_cast<int64_t>(s));
    ExpectReceiptVerifies(*body, n0->service_identity());
  }
}

TEST(ReceiptEdgeCases, SeqnoAheadOfLastSignedRootIs404) {
  ServiceHarness h;
  h.AddUser("user0");
  // Only the genesis-view signature will ever fire: push the periodic
  // intervals out of reach so no later root appears mid-test.
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->signature_interval_txs = 100000;
    cfg->signature_interval_ms = 100000000;
  });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  // Commit points are signature transactions only (paper §4.1), and a
  // signed root covers the prefix *below* the signature entry -- so the
  // last committed seqno (the signature tx itself) is always ahead of the
  // last signed root.
  uint64_t commit = n0->commit_seqno();
  ASSERT_GT(commit, 0u);
  uint64_t upto = n0->ReceiptableUpto();
  ASSERT_LT(upto, commit);

  // Committed but not yet covered by a signed root: clean 404, not a
  // crash or a bogus receipt.
  auto resp = client->Get("/node/receipt?seqno=" + std::to_string(commit));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 404);

  // An appended-but-uncommitted write behaves the same.
  uint64_t last = WriteLog(client, 1, "m");
  ASSERT_GT(last, commit);
  auto uncommitted =
      client->Get("/node/receipt?seqno=" + std::to_string(last));
  ASSERT_TRUE(uncommitted.ok());
  EXPECT_EQ(uncommitted->status, 404);

  // Entirely out of range behaves the same.
  auto beyond = client->Get("/node/receipt?seqno=" +
                            std::to_string(n0->last_seqno() + 100));
  ASSERT_TRUE(beyond.ok());
  EXPECT_EQ(beyond->status, 404);

  // And the boundary itself still works: the largest receiptable seqno
  // has a verifying receipt.
  if (upto > 0) {
    auto ok_resp = client->Get("/node/receipt?seqno=" + std::to_string(upto));
    ASSERT_TRUE(ok_resp.ok());
    ASSERT_EQ(ok_resp->status, 200) << ToString(ok_resp->body);
    auto body = json::Parse(ToString(ok_resp->body));
    ASSERT_TRUE(body.ok());
    ExpectReceiptVerifies(*body, n0->service_identity());
  }
}

TEST(HistoricalTelemetry, NodeEndpointExposesCounters) {
  ServiceHarness h;
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  uint64_t last = 0;
  for (int i = 0; i < 6; ++i) last = WriteLog(client, 7, "m");
  ASSERT_TRUE(WaitReceiptable(&h, n0, last));
  auto hist = PollHistorical(&h, client, "/app/log/historical?id=7");
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist->status, 200);

  // A tick publishes the gauges; then read them through the endpoint.
  h.env().Step(5);
  auto resp = h.AnonymousClient()->Get("/node/metrics");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  auto body = json::Parse(ToString(resp->body));
  ASSERT_TRUE(body.ok());
  const json::Value* metrics = body->Get("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* counters = metrics->Get("counters");
  const json::Value* gauges = metrics->Get("gauges");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  auto gauge = [&](const char* name) -> int64_t {
    const json::Value* g = gauges->Get(name);
    return g != nullptr ? g->GetInt("value") : -1;
  };
  EXPECT_GE(gauge("historical.cache.requests"), 1);
  EXPECT_GE(gauge("historical.cache.fetches"), 1);
  EXPECT_GE(gauge("historical.cache.cached_requests"), 1);
  EXPECT_GE(counters->GetInt("historical.host_fetch_requests"), 1);
  EXPECT_GE(counters->GetInt("historical.entries_verified"), 1);
  EXPECT_GE(gauge("receipt.receiptable_upto"), static_cast<int64_t>(last));
  EXPECT_EQ(gauge("index.lag"), 0);
  EXPECT_GE(gauge("index.upto"), static_cast<int64_t>(last));
  EXPECT_GE(gauge("index.entries_fed"), 1);
}

// TTL: an untouched cached range expires and is dropped, freeing space.
TEST(HistoricalQuery, CacheEntryExpiresAfterTtl) {
  ServiceHarness h;
  h.AddUser("user0");
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->historical.cache_ttl_ms = 200; });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  uint64_t last = 0;
  for (int i = 0; i < 6; ++i) last = WriteLog(client, 7, "m");
  ASSERT_TRUE(WaitReceiptable(&h, n0, last));
  auto resp = PollHistorical(&h, client, "/app/log/historical?id=7");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  ASSERT_GE(n0->historical().cached_requests(), 1u);

  h.env().Step(500);  // well past the TTL, no touches
  EXPECT_EQ(n0->historical().cached_requests(), 0u);
  EXPECT_GE(n0->historical().stats().expired, 1u);
}

}  // namespace
}  // namespace ccf::testing
