// bench_net: closed-loop load against a LIVE 3-node cluster (ISSUE
// tentpole). Unlike every other bench in this directory, nothing here is
// simulated: real TCP over loopback, real epoll IO threads, wall-clock
// ticks. Each client connection keeps a fixed pipeline of requests in
// flight and immediately replaces every completed one, so the cluster is
// measured at sustained closed-loop load, not burst.
//
// Output: per-(connections, pipeline) rows of throughput and latency
// percentiles, written to BENCH_net.json (first argument overrides the
// path) for scripts/bench_diff.py. CCF_BENCH_SMOKE=1 or --smoke shrinks
// the sweep and duration for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"
#include "tests/live_harness.h"

namespace ccf::bench {
namespace {

using testing::LiveServiceHarness;
using testing::TestUser;

bool SmokeMode(int argc, char** argv) {
  const char* env = std::getenv("CCF_BENCH_SMOKE");
  if (env != nullptr && std::strcmp(env, "0") != 0) return true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct NetRow {
  uint64_t connections = 0;
  uint64_t pipeline = 0;
  double tx_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

double Percentile(std::vector<uint64_t>* lat, double p) {
  if (lat->empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(lat->size() - 1));
  std::nth_element(lat->begin(), lat->begin() + static_cast<ptrdiff_t>(idx),
                   lat->end());
  return static_cast<double>((*lat)[idx]);
}

// Why a reply ended a connection's run: its HTTP status with the error
// envelope's code and message, or the client's own error (for example the
// connection closing).
std::string FailureReason(const Result<http::Response>& resp) {
  if (!resp.ok()) return resp.status().ToString();
  std::string reason = "HTTP " + std::to_string(resp->status);
  auto body = json::Parse(ToString(resp->body));
  const json::Value* error = body.ok() ? body->Get("error") : nullptr;
  if (error != nullptr && error->is_object()) {
    reason += " " + error->GetString("code") + ": " +
              error->GetString("message");
  }
  return reason;
}

// One closed-loop connection: `pipeline` requests always in flight.
// Returns the first failure it sees; any non-200 reply is one.
Status RunConnection(const crypto::PublicKeyBytes& identity, TestUser* user,
                     uint16_t port, int conn_idx, uint64_t pipeline,
                     uint64_t duration_ms, std::vector<uint64_t>* latencies,
                     std::atomic<uint64_t>* completed) {
  const std::string name = "bench-c" + std::to_string(conn_idx);
  host::LiveClient client(name, identity, &user->key, user->cert);
  if (Status s = client.Connect("127.0.0.1", port, 5000); !s.ok()) {
    return Status::Unavailable(name + " connect: " + s.ToString());
  }
  const uint64_t key = 1000 + static_cast<uint64_t>(conn_idx);
  uint64_t seq = 0;
  std::optional<std::string> failure;

  // Self-replacing request: the completion callback issues the successor,
  // keeping the pipeline depth constant without a scheduler.
  std::function<void()> issue = [&] {
    json::Object body;
    body["id"] = key;
    body["msg"] = "p" + std::to_string(seq++);
    http::Request req;
    req.method = "POST";
    req.path = "/app/log";
    req.headers["content-type"] = "application/json";
    req.body = ToBytes(json::Value(std::move(body)).Dump());
    uint64_t sent_us = NowUs();
    client.SendRequest(std::move(req), [&, sent_us](
                                           Result<http::Response> resp) {
      if (failure.has_value()) return;
      if (!resp.ok() || resp->status != 200) {
        failure = FailureReason(resp);
        return;
      }
      latencies->push_back(NowUs() - sent_us);
      completed->fetch_add(1, std::memory_order_relaxed);
      issue();
    });
  };
  for (uint64_t i = 0; i < pipeline; ++i) issue();

  uint64_t deadline = host::SteadyNowMs() + duration_ms;
  while (host::SteadyNowMs() < deadline && !failure.has_value()) {
    if (!client.PollOnce(5)) break;
  }
  if (!failure.has_value() && !client.connected()) {
    failure = "connection closed";
  }
  Status outcome = failure.has_value()
                       ? Status::Unavailable(name + ": " + *failure)
                       : Status::Ok();
  // Drain callbacks that would otherwise fire into destroyed state; the
  // failures this reports are the run's end, not a reason.
  failure = "closed by the bench";
  client.Close();
  return outcome;
}

Result<NetRow> Measure(LiveServiceHarness* h, TestUser* user,
                       uint64_t connections, uint64_t pipeline,
                       uint64_t duration_ms) {
  const auto identity = h->host("n0")->WithNode(
      [](node::Node* n) { return n->service_identity(); });
  const uint16_t port = h->host("n0")->rpc_port();

  std::vector<std::vector<uint64_t>> lat(connections);
  std::vector<Status> outcome(connections);
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(connections);
  uint64_t t0 = NowUs();
  for (uint64_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      outcome[c] = RunConnection(identity, user, port, static_cast<int>(c),
                                 pipeline, duration_ms, &lat[c], &completed);
    });
  }
  for (auto& t : threads) t.join();
  uint64_t elapsed_us = NowUs() - t0;
  for (const Status& s : outcome) {
    if (!s.ok()) return s;
  }
  if (completed.load() == 0) return Status::Unavailable("no completions");

  std::vector<uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  NetRow row;
  row.connections = connections;
  row.pipeline = pipeline;
  row.tx_per_s = static_cast<double>(completed.load()) * 1e6 /
                 static_cast<double>(elapsed_us);
  row.p50_us = Percentile(&all, 0.50);
  row.p99_us = Percentile(&all, 0.99);
  return row;
}

int Run(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  std::string json_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') json_path = argv[i];
  }

  std::printf("Live 3-node cluster, closed-loop client load (wall clock)\n");
  LiveServiceHarness h;
  TestUser* user = h.AddUser("bench");
  if (h.StartGenesis() == nullptr || h.JoinAndTrust("n1") == nullptr ||
      h.JoinAndTrust("n2") == nullptr) {
    std::fprintf(stderr, "live cluster bring-up failed\n");
    return 1;
  }

  struct Config {
    uint64_t connections, pipeline;
  };
  std::vector<Config> configs =
      smoke ? std::vector<Config>{{1, 1}, {4, 8}}
            : std::vector<Config>{{1, 1}, {1, 8}, {4, 8}, {8, 16}};
  const uint64_t duration_ms = smoke ? 400 : 3000;

  std::printf("%-12s %-10s %12s %10s %10s\n", "connections", "pipeline",
              "tx/s", "p50 us", "p99 us");
  std::vector<NetRow> rows;
  for (const Config& cfg : configs) {
    auto row = Measure(&h, user, cfg.connections, cfg.pipeline, duration_ms);
    if (!row.ok()) {
      std::fprintf(stderr, "measurement failed: %s\n",
                   row.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12llu %-10llu %12.0f %10.0f %10.0f\n",
                static_cast<unsigned long long>(row->connections),
                static_cast<unsigned long long>(row->pipeline),
                row->tx_per_s, row->p50_us, row->p99_us);
    std::fflush(stdout);
    rows.push_back(*row);
  }

  json::Array out_rows;
  for (const NetRow& row : rows) {
    json::Object o;
    o["connections"] = row.connections;
    o["pipeline"] = row.pipeline;
    o["tx_per_s"] = row.tx_per_s;
    o["p50_us"] = row.p50_us;
    o["p99_us"] = row.p99_us;
    out_rows.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root["smoke"] = smoke;
  root["net"] = json::Value(std::move(out_rows));
  std::ofstream f(json_path);
  f << json::Value(std::move(root)).DumpPretty() << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ccf::bench

int main(int argc, char** argv) { return ccf::bench::Run(argc, argv); }
