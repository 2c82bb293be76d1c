// The simulator workloads: log-write-sgx3, log-read-sgx3 and
// smallbank-zipf-1. One thread drives a ServiceHarness through
// node::Client sessions: 4 user sessions, each keeping 16 requests in
// flight (closed loop, paper §7), over a fixed number of requests per
// episode. Nodes run the shipped NodeConfig{} defaults except for the TEE
// mode and execution threads each workload names.
//
// A run repeats identical episodes (same seed, same requests) until its
// time is up and reports the median of each metric. Simulated time is
// free; every figure is wall-clock time spent in the service's code.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>

#include "apps/smallbank.h"
#include "common.h"
#include "layers.h"
#include "tests/service_harness.h"
#include "trace.h"
#include "workload.h"
#include "workloads.h"

namespace perfbench {

using namespace ccf;
using ccf::testing::ServiceHarness;

namespace {

constexpr int kSessions = 4;
constexpr int kInFlight = 16;
constexpr size_t kReplaySamples = 256;
// A run stops starting episodes once this much wall time has passed, so
// that it ends well inside its 180 s limit.
constexpr double kRunBudgetS = 120;

struct SimSpec {
  Kind kind;
  int nodes;
  tee::TeeMode mode;
  uint64_t requests;  // per episode
  size_t exec_threads;
};

bool SpecFor(const std::string& workload, SimSpec* spec) {
  // 10 000 writes is the length over which the replication amplification
  // shows (NOTES.md); do not shorten it to steady the figures.
  if (workload == "log-write-sgx3") {
    *spec = {Kind::kLogWrite, 3, tee::TeeMode::kSgxSim, 10000, 0};
  } else if (workload == "log-read-sgx3") {
    *spec = {Kind::kLogRead, 3, tee::TeeMode::kSgxSim, 30000, 0};
  } else if (workload == "smallbank-zipf-1") {
    // A worker pool of 4 execution threads runs the OCC batches.
    *spec = {Kind::kSmallBank, 1, tee::TeeMode::kVirtual, 10000, 4};
  } else {
    return false;
  }
  return true;
}

std::string UserId(int u) { return "user" + std::to_string(u); }

class SimEpisode {
 public:
  SimEpisode(const SimSpec& spec, uint64_t seed)
      : spec_(spec), seed_(seed), h_(sim::EnvOptions{.seed = seed}) {}

  bool Setup(std::string* err);
  // Drives the closed loop; request spans go to `tracer` when non-null.
  void Run(Tracer* tracer, uint64_t deadline_ns);
  // Correctness checks after the window; appends to out->errors.
  void Check(RunResult* out);
  // Fetches the endpoint schemas from the service's OpenAPI document.
  std::map<std::string, json::Value> Schemas();
  std::vector<KvAccess> Preload() const;

  void AddEndToEnd(EpisodeSamples* s) const;
  // Signatures a backup verified per batch in the window (at least 1).
  size_t VerifyBatchSize() const {
    double batches = after_.counters.verify_batches - before_.counters.verify_batches;
    double sigs = after_.counters.verifies - before_.counters.verifies;
    return std::max<size_t>(1, static_cast<size_t>(Ratio(sigs, batches) + 0.5));
  }
  double FirstOverLastTput() const {
    return FirstOverLastTenthTput(done_ns_, window_start_ns_);
  }
  // Count metrics, the sim layer times and the replay accounting.
  void AddPerLayer(const std::map<std::string, std::vector<double>>& self_us,
                   RunResult* out) const;

  uint64_t attempted = 0, failed = 0;
  double setup_s = 0, window_s = 0;
  std::vector<Sample> samples;

 private:
  struct Snapshot {
    ClusterCounters counters;
    double merkle_hashes = 0;
    double messages_sent = 0;
    uint64_t primary_last = 0;
  };
  Snapshot Take();
  node::Node* Primary() { return h_.node("n0"); }
  std::string SessionNode(int u) const {
    return spec_.kind == Kind::kLogRead
               ? "n" + std::to_string(u % spec_.nodes)
               : "n0";
  }
  void Issue(int u, Tracer* tracer);
  void ResolveCommits();
  bool DrainCommit();

  SimSpec spec_;
  uint64_t seed_;
  ServiceHarness h_;
  apps::SmallBankApp smallbank_;
  std::vector<node::Client*> clients_;
  std::vector<std::unique_ptr<RequestGen>> gens_;
  Oracle oracle_;

  uint64_t issued_ = 0, completed_ = 0, ok_ = 0;
  std::vector<std::pair<int, uint64_t>> reissue_;  // session, completed at
  std::vector<double> lat_us_, commit_us_, late_us_;
  std::vector<uint64_t> done_ns_;  // completion time of every response
  std::deque<std::pair<uint64_t, uint64_t>> commit_waits_;  // seqno, sent
  uint64_t step_ns_ = 0, callback_ns_ = 0, client_ns_ = 0;
  uint64_t lag_max_ = 0;
  double cpu_s_ = 0, rss_mb_ = 0;
  uint64_t window_start_ns_ = 0;
  uint64_t bodies_ = 0;
  Snapshot before_, after_;
  double ledger_bytes_ = 0;
};

bool SimEpisode::Setup(std::string* err) {
  uint64_t t0 = NowNs();
  for (int u = 0; u < kSessions; ++u) h_.AddUser(UserId(u));
  const tee::TeeMode mode = spec_.mode;
  const size_t exec_threads = spec_.exec_threads;
  h_.SetConfigTweak([mode, exec_threads](node::NodeConfig* cfg) {
    // Shipped defaults, not the harness's test timings.
    node::NodeConfig shipped;
    shipped.node_id = cfg->node_id;
    shipped.seed = cfg->seed;
    shipped.raft.seed = cfg->raft.seed;
    shipped.tee_mode = mode;
    shipped.exec_threads = exec_threads;
    *cfg = shipped;
  });
  node::Application* app =
      spec_.kind == Kind::kSmallBank ? &smallbank_ : nullptr;
  if (h_.StartGenesis(true, app) == nullptr) {
    *err = "genesis failed";
    return false;
  }
  for (int i = 1; i < spec_.nodes; ++i) {
    std::string id = "n" + std::to_string(i);
    if (h_.JoinAndTrust(id, 30000, app) == nullptr) {
      *err = "join of " + id + " failed";
      return false;
    }
  }
  h_.env().RunUntil([&] { return Primary()->IsPrimary(); }, 10000);

  node::Client* setup = h_.UserClient(UserId(0), "n0");
  if (spec_.kind == Kind::kLogRead) {
    uint64_t next = 0, done = 0, bad = 0;
    std::function<void()> issue = [&] {
      uint64_t id = next++;
      setup->SendRequest(LogWriteRequest(id, PreloadMsg(id)),
                         [&](Result<http::Response> r) {
                           if (!r.ok() || r->status != 200) ++bad;
                           ++done;
                           if (next < kLogIds) issue();
                         });
    };
    for (int i = 0; i < 64; ++i) issue();
    h_.env().RunUntil([&] { return done == kLogIds; }, 60000);
    if (done != kLogIds || bad != 0) {
      *err = "preload failed";
      return false;
    }
  } else if (spec_.kind == Kind::kSmallBank) {
    json::Object init;
    init["from"] = 0;
    init["to"] = kAccounts;
    init["savings"] = kInitialBalance;
    init["checking"] = kInitialBalance;
    auto r = setup->PostJson("/app/sb/create_accounts",
                             json::Value(std::move(init)), 10000);
    if (!r.ok() || r->status != 200) {
      *err = "account creation failed";
      return false;
    }
  }
  if (!DrainCommit()) {
    *err = "setup did not commit";
    return false;
  }

  // Client handshakes: each session connects to its node.
  for (int u = 0; u < kSessions; ++u) {
    clients_.push_back(h_.UserClient(UserId(u), SessionNode(u)));
    gens_.push_back(std::make_unique<RequestGen>(spec_.kind, seed_, u));
  }
  auto all_up = [&] {
    for (node::Client* c : clients_) {
      if (!c->connected()) return false;
    }
    return true;
  };
  if (!h_.env().RunUntil(all_up, 10000)) {
    *err = "client handshakes did not complete";
    return false;
  }
  setup_s = (NowNs() - t0) / 1e9;
  return true;
}

// Steps until every node has committed the primary's whole log.
bool SimEpisode::DrainCommit() {
  for (int i = 0; i < 20; ++i) {
    uint64_t target = Primary()->last_seqno();
    if (!h_.WaitForCommitEverywhere(target, 30000)) return false;
    h_.env().Step(50);
    if (Primary()->last_seqno() == target) return true;
  }
  return false;
}

SimEpisode::Snapshot SimEpisode::Take() {
  Snapshot s;
  for (auto& [id, n] : h_.nodes()) {
    s.counters.AddNode(n->metrics().ToJson());
    const auto& st = n->tree().stats();
    s.merkle_hashes += static_cast<double>(st.leaf_hashes + st.interior_hashes);
  }
  s.messages_sent = static_cast<double>(h_.env().messages_sent());
  s.primary_last = Primary()->last_seqno();
  return s;
}

void SimEpisode::Issue(int u, Tracer* tracer) {
  auto req = std::make_shared<Req>(gens_[u]->Next());
  if (!req->http.body.empty()) ++bodies_;
  ++issued_;
  ++attempted;
  uint64_t span = tracer != nullptr ? tracer->Begin("request") : 0;
  uint64_t sent = NowNs();
  clients_[u]->SendRequest(req->http, [this, u, req, sent, span,
                                       tracer](Result<http::Response> r) {
    uint64_t t = NowNs();
    if (tracer != nullptr) tracer->End(span);
    lat_us_.push_back((t - sent) / 1000.0);
    done_ns_.push_back(t);
    Outcome outcome = Classify(*req, r);
    if (outcome == Outcome::kFailed) {
      ++failed;
      if (r.ok()) oracle_.OnResponse(*req, *r, outcome);
      else oracle_.OnUnknown(*req);
    } else {
      ++ok_;
      oracle_.OnResponse(*req, *r, outcome);
      // Commit is observed from outside: the primary's last seqno at
      // response time must become committed.
      commit_waits_.emplace_back(Primary()->last_seqno(), sent);
      size_t stride = std::max<uint64_t>(1, spec_.requests / kReplaySamples);
      if (completed_ % stride == 0 && samples.size() < kReplaySamples) {
        Sample s{req->http, *r, {}};
        switch (req->op) {
          case Op::kLogWrite:
            s.kv.push_back({apps::kPrivateMessagesMap, std::to_string(req->a),
                            req->msg, true});
            break;
          case Op::kLogRead:
            s.kv.push_back({apps::kPrivateMessagesMap, std::to_string(req->a),
                            PreloadMsg(static_cast<uint64_t>(req->a)), false});
            break;
          default: {
            bool write = req->op != Op::kBalance;
            std::string bal = std::to_string(kInitialBalance);
            for (int64_t acct : {req->a, req->b}) {
              s.kv.push_back({apps::kSbSavingsMap, std::to_string(acct), bal, write});
              s.kv.push_back({apps::kSbCheckingMap, std::to_string(acct), bal, write});
            }
          }
        }
        samples.push_back(std::move(s));
      }
    }
    ++completed_;
    reissue_.emplace_back(u, t);
    callback_ns_ += NowNs() - t;
  });
  client_ns_ += NowNs() - sent;
}

// Acknowledged requests whose seqno the primary has now committed.
void SimEpisode::ResolveCommits() {
  uint64_t commit = Primary()->commit_seqno();
  uint64_t now = NowNs();
  while (!commit_waits_.empty() && commit_waits_.front().first <= commit) {
    commit_us_.push_back((now - commit_waits_.front().second) / 1000.0);
    commit_waits_.pop_front();
  }
}

void SimEpisode::Run(Tracer* tracer, uint64_t deadline_ns) {
  before_ = Take();
  double cpu0 = ProcessCpuSeconds();
  uint64_t start = NowNs();
  window_start_ns_ = start;
  for (int u = 0; u < kSessions; ++u) {
    for (int i = 0; i < kInFlight && issued_ < spec_.requests; ++i) {
      Issue(u, tracer);
    }
  }
  uint64_t last_progress_ms = h_.env().now_ms();
  uint64_t last_completed = 0;
  while (completed_ < issued_) {
    uint64_t t = NowNs();
    uint64_t cb0 = callback_ns_;
    h_.env().Step(1);
    step_ns_ += (NowNs() - t) - (callback_ns_ - cb0);
    node::Node* p = Primary();
    lag_max_ = std::max(lag_max_, p->last_seqno() - p->commit_seqno());
    ResolveCommits();
    std::vector<std::pair<int, uint64_t>> todo;
    todo.swap(reissue_);
    for (auto [u, done_at] : todo) {
      if (issued_ >= spec_.requests) break;
      late_us_.push_back((NowNs() - done_at) / 1000.0);
      Issue(u, tracer);
    }
    if (completed_ != last_completed) {
      last_completed = completed_;
      last_progress_ms = h_.env().now_ms();
    }
    // A service that stops answering for 30 simulated seconds, or a run
    // past its wall-clock limit, ends the window: the requests still
    // outstanding count as failed (timeouts).
    if (h_.env().now_ms() - last_progress_ms > 30000 || NowNs() > deadline_ns) {
      failed += issued_ - completed_;
      break;
    }
  }
  window_s = (NowNs() - start) / 1e9;
  cpu_s_ = ProcessCpuSeconds() - cpu0;
  rss_mb_ = PeakRssMb();
  // Let commit catch up with the acknowledged writes (outside the window).
  uint64_t drain_until = h_.env().now_ms() + 30000;
  while (!commit_waits_.empty() && h_.env().now_ms() < drain_until) {
    h_.env().Step(1);
    ResolveCommits();
  }
  after_ = Take();
  node::Node* p = Primary();
  for (uint64_t s = before_.primary_last + 1; s <= after_.primary_last; ++s) {
    auto e = p->host_ledger().Get(s);
    if (e.ok()) ledger_bytes_ += static_cast<double>((*e)->Serialize().size());
  }
}

void SimEpisode::Check(RunResult* out) {
  if (!commit_waits_.empty()) {
    out->Fail(std::to_string(commit_waits_.size()) +
              " acknowledged requests never committed");
  }
  if (!DrainCommit()) {
    out->Fail("nodes did not converge on one commit");
    return;
  }
  Bytes digest;
  for (auto& [id, n] : h_.nodes()) {
    if (n->commit_seqno() < oracle_.max_acked_seqno()) {
      out->Fail(id + " commit " + std::to_string(n->commit_seqno()) +
                " below acknowledged seqno " +
                std::to_string(oracle_.max_acked_seqno()));
    }
    Bytes d = ServiceHarness::StateDigest(n.get());
    if (digest.empty()) digest = d;
    if (d != digest) out->Fail("state digest of " + id + " differs from n0");
  }
  if (!oracle_.first_error().empty()) out->Fail(oracle_.first_error());

  // Read back from a backup where there is one.
  std::string reader = spec_.nodes > 1 ? "n1" : "n0";
  node::Client* c = h_.UserClient(UserId(0), reader);
  if (spec_.kind == Kind::kSmallBank) {
    Oracle::SmallBankState expected = oracle_.ExpectedSmallBank();
    int64_t total = 0;
    for (int64_t a = 0; a < kAccounts; ++a) {
      auto v = JsonBody(c->Get("/app/sb/balance?account=" + std::to_string(a), 10000));
      if (!v.ok()) {
        out->Fail("balance read of account " + std::to_string(a) + " failed");
        return;
      }
      int64_t got = v->GetInt("balance");
      total += got;
      if (got != expected.balances[a]) {
        out->Fail("account " + std::to_string(a) + " holds " +
                  std::to_string(got) + ", expected " +
                  std::to_string(expected.balances[a]));
      }
    }
    int64_t want = 2 * kInitialBalance * kAccounts + expected.net;
    if (total != want) {
      out->Fail("balances sum to " + std::to_string(total) + ", expected " +
                std::to_string(want));
    }
    return;
  }
  std::map<uint64_t, std::string> expected;
  for (const auto& [id, w] : oracle_.ExpectedLog()) expected[id] = w.msg;
  if (spec_.kind == Kind::kLogRead) {
    for (uint64_t id = 0; id < kLogIds; ++id) expected[id] = PreloadMsg(id);
  }
  size_t stride = std::max<size_t>(1, expected.size() / 64);
  size_t i = 0;
  for (const auto& [id, msg] : expected) {
    if (i++ % stride != 0) continue;
    auto v = JsonBody(c->Get("/app/log?id=" + std::to_string(id), 10000));
    if (!v.ok() || v->GetString("msg") != msg) {
      out->Fail("id " + std::to_string(id) + " does not read back from " +
                reader);
      return;
    }
  }
}

std::map<std::string, json::Value> SimEpisode::Schemas() {
  return EndpointSchemas(
      JsonBody(h_.UserClient(UserId(0), "n0")->Get("/app/api", 10000)));
}

std::vector<KvAccess> SimEpisode::Preload() const {
  std::vector<KvAccess> out;
  if (spec_.kind == Kind::kSmallBank) {
    for (int64_t a = 0; a < kAccounts; ++a) {
      std::string bal = std::to_string(kInitialBalance);
      out.push_back({apps::kSbSavingsMap, std::to_string(a), bal, true});
      out.push_back({apps::kSbCheckingMap, std::to_string(a), bal, true});
    }
  } else {
    for (uint64_t id = 0; id < kLogIds; ++id) {
      out.push_back({apps::kPrivateMessagesMap, std::to_string(id), PreloadMsg(id), true});
    }
  }
  return out;
}

void SimEpisode::AddEndToEnd(EpisodeSamples* s) const {
  double tx = static_cast<double>(ok_);
  s->Add("tx_per_s", Ratio(tx, window_s), "tx/s");
  s->Add("lat_p50_us", Quantile(lat_us_, 0.50), "us");
  s->Add("lat_p99_us", Quantile(lat_us_, 0.99), "us");
  s->Add("commit_p50_us", Quantile(commit_us_, 0.50), "us");
  s->Add("commit_p99_us", Quantile(commit_us_, 0.99), "us");
  s->Add("cpu_us_per_tx", 1e6 * Ratio(cpu_s_, tx), "us");
  s->Add("setup_s", setup_s, "s");
  s->Add("peak_rss_mb", rss_mb_, "MB");
}

void SimEpisode::AddPerLayer(
    const std::map<std::string, std::vector<double>>& self_us,
    RunResult* out) const {
  LayerContext ctx;
  ctx.tx = static_cast<double>(ok_);
  ctx.body_share = Ratio(static_cast<double>(bodies_), static_cast<double>(attempted));
  ctx.primary_entries =
      static_cast<double>(after_.primary_last - before_.primary_last);
  AddCountMetrics(before_.counters, after_.counters, ctx, out);
  out->Set("merkle.hashes_per_tx",
           Ratio(after_.merkle_hashes - before_.merkle_hashes, ctx.tx), "1/tx");
  out->Set("consensus.msgs_per_tx",
           Ratio(after_.messages_sent - before_.messages_sent, ctx.tx), "1/tx");
  out->Set("ledger.bytes_per_tx", Ratio(ledger_bytes_, ctx.tx), "B/tx");
  out->Set("consensus.commit_lag_max", static_cast<double>(lag_max_), "tx");
  double step_us = Ratio(step_ns_ / 1000.0, ctx.tx);
  out->Set("sim.step_us_per_tx", step_us, "us/tx");
  out->Set("node.client_us_per_tx",
           Ratio((client_ns_ + callback_ns_) / 1000.0, ctx.tx), "us/tx");
  out->Set("bench.gen_late_p99_us", Quantile(late_us_, 0.99), "us");
  out->Set("bench.tput_first_over_last", FirstOverLastTput(), "ratio");
  out->Set("failed_share", Ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)), "ratio");
  AddLayerTimes(self_us, before_.counters, after_.counters, ctx, step_us, out);
}

// Sets up, runs and checks one episode; false when set-up failed.
bool RunEpisode(SimEpisode* ep, Tracer* tracer, uint64_t deadline_ns,
                RunResult* out) {
  std::string err;
  if (!ep->Setup(&err)) {
    out->Fail(err);
    return false;
  }
  ep->Run(tracer, deadline_ns);
  ep->Check(out);
  out->attempted += ep->attempted;
  out->failed += ep->failed;
  return true;
}

}  // namespace

bool IsSimWorkload(const std::string& workload) {
  SimSpec spec;
  return SpecFor(workload, &spec);
}

RunResult RunSimWorkload(const Options& opt) {
  RunResult out;
  SimSpec spec;
  SpecFor(opt.workload, &spec);
  const uint64_t run_start = NowNs();
  const uint64_t deadline = run_start + static_cast<uint64_t>(kRunBudgetS * 1e9);

  if (opt.trace) {
    // Episodes A untraced (counts, step time) and B with request spans,
    // run A B B A so that warm-up and drift cancel in the tracing
    // overhead, then the layer replay over A's sampled requests.
    SimEpisode a(spec, opt.seed), b(spec, opt.seed), b2(spec, opt.seed),
        a2(spec, opt.seed);
    Tracer request_spans;
    if (!RunEpisode(&a, nullptr, deadline, &out) ||
        !RunEpisode(&b, &request_spans, deadline, &out) ||
        !RunEpisode(&b2, &request_spans, deadline, &out) ||
        !RunEpisode(&a2, nullptr, deadline, &out)) {
      return out;
    }

    ReplayInput in;
    in.tee_mode = spec.mode;
    in.samples = a.samples;
    in.schemas = a.Schemas();
    in.preload = a.Preload();
    in.verify_batch_size = a.VerifyBatchSize();
    Tracer replay;
    ReplayLayers(in, 4, &replay);
    a.AddPerLayer(replay.SelfTimesUs(), &out);
    double untraced_s = a.window_s + a2.window_s;
    out.Set("bench.trace_overhead_pct",
            100.0 * Ratio(b.window_s + b2.window_s - untraced_s, untraced_s), "%");
    if (!opt.out_dir.empty()) {
      request_spans.WriteJson(opt.out_dir + "/spans-requests.json");
      replay.WriteJson(opt.out_dir + "/spans-replay.json");
    }
    return out;
  }

  EpisodeSamples samples;
  int episodes = 0;
  double longest_s = 0;
  for (;;) {
    uint64_t t0 = NowNs();
    SimEpisode ep(spec, opt.seed);
    if (!RunEpisode(&ep, nullptr, deadline, &out)) return out;
    ep.AddEndToEnd(&samples);
    char line[128];
    std::snprintf(line, sizeof(line),
                  "episode %d: %.0f tx/s, first/last tenth throughput %.3f",
                  episodes, Ratio(static_cast<double>(ep.attempted - ep.failed), ep.window_s),
                  ep.FirstOverLastTput());
    out.notes.push_back(line);
    ++episodes;
    longest_s = std::max(longest_s, (NowNs() - t0) / 1e9);
    double elapsed = (NowNs() - run_start) / 1e9;
    // Another episode only if it fits in the run's time.
    if (elapsed + longest_s > opt.seconds || !out.correct()) break;
  }
  // Set-up is cheap next to a long episode: take at least three samples.
  for (int extra = episodes; extra < 3 && out.correct(); ++extra) {
    SimEpisode ep(spec, opt.seed);
    std::string err;
    if (!ep.Setup(&err)) {
      out.Fail(err);
      return out;
    }
    samples.Add("setup_s", ep.setup_s, "s");
  }
  out.notes.push_back("episodes: " + std::to_string(episodes));
  samples.MediansInto(&out);
  return out;
}

}  // namespace perfbench
