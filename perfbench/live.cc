// The live workloads: three `ccf_host --mode=live` child processes on
// loopback with shipped defaults. The benchmark joins n1 and n2 and trusts
// them through governance with the demo member0 key, then one load process
// (this one) drives 4 connections on 4 threads with POST /app/log:
//
//   log-write-live3         open loop at a fixed 1000 tx/s. Latency is
//                           timed from each request's due time, so a stall
//                           counts against every request due during it.
//   log-write-live3-closed  closed loop, 8 requests in flight per
//                           connection (bench_net's 4x8 row), which keeps
//                           the service busy. Latency is timed from send.
//
// The generator never aborts: a 503, a reset or a dead connection is
// recorded, the connection is re-established (to the next node if its
// node is gone) and every request due while disconnected counts as
// failed. Only this process ignores SIGPIPE; the nodes run unmodified, so
// a node that dies shows up as host.nodes_lost and failed requests.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "apps/logging.h"
#include "common/hex.h"
#include "crypto/cert.h"
#include "host/live_client.h"
#include "layers.h"
#include "trace.h"
#include "workload.h"
#include "workloads.h"

namespace perfbench {

using namespace ccf;

namespace {

constexpr int kConnections = 4;
constexpr uint64_t kRequestTimeoutNs = 2'000'000'000;
constexpr uint64_t kCommitPollNs = 10'000'000;
constexpr size_t kReplaySamples = 256;
constexpr int kNodes = 3;

struct Identity {
  crypto::KeyPair key;
  crypto::Certificate cert;
  Identity(const std::string& seed, const std::string& id,
           const std::string& role)
      : key(crypto::KeyPair::FromSeed(ToBytes(seed))),
        cert(crypto::IssueCertificate(id, role, key.public_key(), key, "")) {}
};

// One ccf_host child process.
struct NodeProcess {
  std::string id;
  pid_t pid = -1;
  uint16_t rpc_port = 0;
  uint16_t node_port = 0;
  std::string identity_hex;
  std::string out_path;
  bool exited = false;
};

bool Spawn(const std::string& binary, const std::vector<std::string>& args,
           const std::string& dir, NodeProcess* p) {
  p->out_path = dir + "/" + p->id + ".out";
  std::string err_path = dir + "/" + p->id + ".err";
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  // No stale banner from an earlier run may be read before the child
  // writes its own.
  unlink(p->out_path.c_str());
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // The node runs with default signal dispositions (this process ignores
    // SIGPIPE; ignored signals survive exec) and dies with its parent.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    signal(SIGPIPE, SIG_DFL);
    int out = open(p->out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || chdir(dir.c_str()) != 0) _exit(127);
    dup2(out, 1);
    dup2(err, 2);
    execv(argv[0], argv.data());
    _exit(127);
  }
  p->pid = pid;
  return true;
}

// Parses "<id> live: rpc=<port> node=<port> service-identity=<hex>".
bool WaitForBanner(NodeProcess* p, uint64_t timeout_ns) {
  uint64_t deadline = NowNs() + timeout_ns;
  while (NowNs() < deadline) {
    std::ifstream f(p->out_path);
    std::string line;
    while (std::getline(f, line)) {
      unsigned rpc = 0, node = 0;
      char hex[129] = {0};
      std::string pattern = p->id + " live: rpc=%u node=%u service-identity=%128s";
      if (std::sscanf(line.c_str(), pattern.c_str(), &rpc, &node, hex) == 3) {
        p->rpc_port = static_cast<uint16_t>(rpc);
        p->node_port = static_cast<uint16_t>(node);
        p->identity_hex = hex;
        return true;
      }
    }
    if (waitpid(p->pid, nullptr, WNOHANG) == p->pid) {
      p->exited = true;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// utime + stime of a live process, in seconds.
double ProcCpuSeconds(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)), {});
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Peak resident set (VmHWM) of a live process, in MB.
double ProcPeakRssMb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

// What one generator connection saw.
struct ConnStats {
  uint64_t attempted = 0, failed = 0, ok = 0, reconnects = 0;
  std::vector<double> lat_us, late_us, connect_us;
  std::vector<uint64_t> done_ns;
  std::vector<std::pair<Req, http::Response>> acked;  // bodies dropped
  std::vector<Req> unknown;                           // outcome unknown
  std::vector<std::pair<uint64_t, uint64_t>> commit_waits;  // seqno, due
  std::vector<Sample> samples;
};

class LiveCluster {
 public:
  LiveCluster(const std::string& ccf_host, const std::string& dir)
      : ccf_host_(ccf_host), dir_(dir),
        member_("member-key-0", "member0", "member"),
        user_("user-key-user0", "user0", "user") {}
  ~LiveCluster() { Stop(); }

  bool Start(std::string* err);
  void Stop();
  // Nodes that exited on their own since Start.
  int LostNodes();

  std::unique_ptr<host::LiveClient> UserClient(const std::string& name) {
    return std::make_unique<host::LiveClient>(name, identity_, &user_.key,
                                              user_.cert);
  }
  std::unique_ptr<host::LiveClient> AnonClient(const std::string& name) {
    return std::make_unique<host::LiveClient>(name, identity_);
  }
  uint16_t RpcPort(int i) const { return nodes_[i].rpc_port; }
  bool Alive(int i) const { return !nodes_[i].exited; }  // after LostNodes

  ClusterCounters Counters();
  double NodeCpuSeconds();
  double NodePeakRssMb();
  // Committed seqno of node i, 0 if it does not answer.
  uint64_t Commit(int i);
  // GET `path` on node i (anonymous client), parsed as JSON.
  Result<json::Value> GetJson(int node, const std::string& path);

 private:
  bool Trust(const std::string& id, std::string* err);

  std::string ccf_host_;
  std::string dir_;
  Identity member_, user_;
  crypto::PublicKeyBytes identity_{};
  std::vector<NodeProcess> nodes_;
  std::map<int, std::unique_ptr<host::LiveClient>> probes_;
};

bool LiveCluster::Start(std::string* err) {
  for (int i = 0; i < kNodes; ++i) {
    NodeProcess p;
    p.id = "n" + std::to_string(i);
    std::vector<std::string> args = {"--mode=live", "--node-id=" + p.id};
    if (i == 0) {
      args.push_back("--genesis");
    } else {
      for (int j = 0; j < i; ++j) {
        args.push_back("--peer");
        args.push_back(nodes_[j].id + "=127.0.0.1:" +
                       std::to_string(nodes_[j].node_port));
      }
      args.push_back("--join=n0");
      args.push_back("--service-identity=" + nodes_[0].identity_hex);
    }
    if (!Spawn(ccf_host_, args, dir_, &p)) {
      *err = "could not start " + p.id;
      return false;
    }
    nodes_.push_back(p);
    if (!WaitForBanner(&nodes_.back(), 10'000'000'000)) {
      *err = p.id + " did not come up (see " + p.out_path + ")";
      return false;
    }
    if (i == 0) {
      auto raw = HexDecode(nodes_[0].identity_hex);
      if (!raw.ok() || raw->size() != identity_.size()) {
        *err = "bad service identity from n0";
        return false;
      }
      std::copy(raw->begin(), raw->end(), identity_.begin());
    } else if (!Trust(nodes_[i].id, err)) {
      return false;
    }
  }
  return true;
}

Result<json::Value> LiveCluster::GetJson(int node, const std::string& path) {
  auto& c = probes_[node];
  if (c == nullptr || !c->connected()) {
    c = AnonClient("perfbench-probe-" + std::to_string(node));
    Status s = c->Connect("127.0.0.1", nodes_[node].rpc_port, 2000);
    if (!s.ok()) return s;
  }
  return JsonBody(c->Get(path, 2000));
}

// Waits for the joiner to register, has member0 propose (and vote for) its
// transition to trusted, then waits until every node sees it trusted.
bool LiveCluster::Trust(const std::string& id, std::string* err) {
  auto status_on = [&](int node, const std::string& who) {
    auto net = GetJson(node, "/node/network");
    const json::Value* nodes = net.ok() ? net->Get("nodes") : nullptr;
    return nodes != nullptr ? nodes->GetString(who) : std::string();
  };
  auto wait = [&](const std::function<bool()>& pred) {
    uint64_t deadline = NowNs() + 20'000'000'000;
    while (NowNs() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };
  if (!wait([&] { return !status_on(0, id).empty(); })) {
    *err = id + " never registered with n0";
    return false;
  }
  host::LiveClient m0("perfbench-member0", identity_, &member_.key, member_.cert);
  if (!m0.Connect("127.0.0.1", nodes_[0].rpc_port, 5000).ok()) {
    *err = "member client could not connect";
    return false;
  }
  json::Object args;
  args["node_id"] = id;
  json::Object act;
  act["name"] = "transition_node_to_trusted";
  act["args"] = std::move(args);
  json::Object proposal;
  proposal["actions"] = json::Array{json::Value(std::move(act))};
  json::Object body;
  body["proposal"] = std::move(proposal);
  auto parsed = JsonBody(m0.PostJsonSigned("/gov/propose", json::Value(std::move(body)), 10000));
  if (!parsed.ok()) {
    *err = "proposal to trust " + id + " failed";
    return false;
  }
  if (parsed->GetString("state") == "Open") {
    json::Object ballot;
    ballot["proposal_id"] = parsed->GetString("proposal_id");
    ballot["ballot"] = "function vote(proposal, proposer_id) { return true; }";
    auto vp = JsonBody(m0.PostJsonSigned("/gov/vote", json::Value(std::move(ballot)), 10000));
    if (!vp.ok() || vp->GetString("state") != "Accepted") {
      *err = "vote to trust " + id + " failed";
      return false;
    }
  } else if (parsed->GetString("state") != "Accepted") {
    *err = "proposal to trust " + id + " not accepted";
    return false;
  }
  m0.Close();
  if (!wait([&] {
        for (size_t i = 0; i < nodes_.size(); ++i) {
          if (status_on(static_cast<int>(i), id) != "Trusted") return false;
        }
        return true;
      })) {
    *err = id + " not trusted everywhere:";
    for (size_t i = 0; i < nodes_.size(); ++i) {
      *err += " " + nodes_[i].id + "=" + status_on(static_cast<int>(i), id);
    }
    return false;
  }
  return true;
}

void LiveCluster::Stop() {
  probes_.clear();
  for (NodeProcess& p : nodes_) {
    if (p.pid > 0 && !p.exited) kill(p.pid, SIGTERM);
  }
  for (NodeProcess& p : nodes_) {
    if (p.pid <= 0 || p.exited) continue;
    uint64_t deadline = NowNs() + 5'000'000'000;
    while (waitpid(p.pid, nullptr, WNOHANG) != p.pid) {
      if (NowNs() > deadline) {
        kill(p.pid, SIGKILL);
        waitpid(p.pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    p.exited = true;
  }
  nodes_.clear();
}

int LiveCluster::LostNodes() {
  int lost = 0;
  for (NodeProcess& p : nodes_) {
    if (!p.exited && waitpid(p.pid, nullptr, WNOHANG) == p.pid) p.exited = true;
    if (p.exited) ++lost;
  }
  return lost;
}

ClusterCounters LiveCluster::Counters() {
  ClusterCounters c;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    auto m = GetJson(static_cast<int>(i), "/node/metrics");
    if (m.ok() && m->Get("metrics") != nullptr) c.AddNode(*m->Get("metrics"));
  }
  return c;
}

double LiveCluster::NodeCpuSeconds() {
  double s = 0;
  for (const NodeProcess& p : nodes_) {
    if (!p.exited) s += ProcCpuSeconds(p.pid);
  }
  return s;
}

double LiveCluster::NodePeakRssMb() {
  double mb = 0;
  for (const NodeProcess& p : nodes_) {
    if (!p.exited) mb += ProcPeakRssMb(p.pid);
  }
  return mb;
}

uint64_t LiveCluster::Commit(int i) {
  auto c = GetJson(i, "/node/commit");
  return c.ok() ? static_cast<uint64_t>(c->GetInt("seqno")) : 0;
}

// Open loop (`offered_tx_per_s` over all connections) or closed loop
// (`depth` requests in flight per connection).
struct LoadSpec {
  double offered_tx_per_s = 0;
  size_t depth = 0;
  bool closed() const { return depth > 0; }
};

bool LoadFor(const std::string& workload, LoadSpec* spec) {
  if (workload == "log-write-live3") {
    spec->offered_tx_per_s = 1000;
  } else if (workload == "log-write-live3-closed") {
    spec->depth = 8;
  } else {
    return false;
  }
  return true;
}

// One connection. Open loop: requests due every kConnections/offered
// seconds, staggered across connections. Closed loop: a reply's slot is
// refilled at once. Connects, reports ready, and starts sending once
// `start_ns` is set.
void RunConnection(LiveCluster* cluster, const LoadSpec& load, int conn,
                   uint64_t seed, std::atomic<int>* ready,
                   std::atomic<uint64_t>* start_ns, double load_s,
                   Tracer* tracer, ConnStats* st) {
  RequestGen gen(Kind::kLogWrite, seed, conn);
  const uint64_t interval =
      load.closed() ? 0
                    : static_cast<uint64_t>(1e9 * kConnections / load.offered_tx_per_s);
  std::unique_ptr<host::LiveClient> client;
  int node = 0;
  std::deque<uint64_t> in_flight;  // due times of requests awaiting a reply
  auto connect = [&](bool first) {
    // A node that is gone refuses at once; try the next one.
    for (int tries = 0; tries < kNodes; ++tries) {
      client = cluster->UserClient("perfbench-c" + std::to_string(conn));
      uint64_t t = NowNs();
      if (client->Connect("127.0.0.1", cluster->RpcPort(node), 1000).ok()) {
        st->connect_us.push_back((NowNs() - t) / 1000.0);
        if (!first) ++st->reconnects;
        return true;
      }
      node = (node + 1) % kNodes;
    }
    client.reset();
    return false;
  };
  connect(true);
  ready->fetch_add(1);
  while (start_ns->load() == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  const uint64_t end_ns = start_ns->load() + static_cast<uint64_t>(load_s * 1e9);
  uint64_t next_due = start_ns->load() + interval * static_cast<uint64_t>(conn) / kConnections;
  size_t stride = 0;
  while (load.closed() ? NowNs() < end_ns : next_due < end_ns) {
    uint64_t now = NowNs();
    if (client == nullptr || !client->connected()) {
      if (client != nullptr) client->Close();  // fails what is pending
      in_flight.clear();
      if (!connect(false)) {
        // Nothing to talk to: on the open loop every request due
        // meanwhile fails.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        for (now = NowNs(); !load.closed() && next_due <= now && next_due < end_ns;
             next_due += interval) {
          ++st->attempted;
          ++st->failed;
        }
        continue;
      }
      // Requests that fell due while reconnecting failed.
      for (now = NowNs(); !load.closed() && next_due + interval <= now && next_due < end_ns;
           next_due += interval) {
        ++st->attempted;
        ++st->failed;
      }
    }
    while (load.closed() ? in_flight.size() < load.depth
                         : next_due <= now && next_due < end_ns) {
      auto req = std::make_shared<Req>(gen.Next());
      uint64_t due = load.closed() ? NowNs() : next_due;
      next_due += interval;
      ++st->attempted;
      if (!load.closed()) st->late_us.push_back((now - due) / 1000.0);
      uint64_t span = tracer != nullptr ? tracer->Begin("request") : 0;
      in_flight.push_back(due);
      bool sample = stride++ % 16 == 0;
      client->SendRequest(req->http, [st, req, due, span, tracer, sample,
                                      &in_flight](Result<http::Response> r) {
        uint64_t t = NowNs();
        if (tracer != nullptr) tracer->End(span);
        if (!in_flight.empty()) in_flight.pop_front();
        Outcome outcome = Classify(*req, r);
        if (outcome != Outcome::kOk) {
          ++st->failed;
          st->unknown.push_back(*req);
          return;
        }
        ++st->ok;
        st->lat_us.push_back((t - due) / 1000.0);
        st->done_ns.push_back(t);
        auto txid = host::LiveClient::TxIdOf(*r);
        st->commit_waits.emplace_back(txid.has_value() ? txid->second : 0, due);
        if (sample && st->samples.size() < kReplaySamples) {
          Sample s{req->http, *r, {}};
          s.kv.push_back({apps::kPrivateMessagesMap, std::to_string(req->a), req->msg, true});
          st->samples.push_back(std::move(s));
        }
        Req kept = *req;
        kept.http = {};
        st->acked.emplace_back(std::move(kept), *r);
      });
    }
    // A reply overdue by the timeout means the connection is stuck: drop
    // it (failing everything on it) and reconnect.
    if (!in_flight.empty() && NowNs() - in_flight.front() > kRequestTimeoutNs) {
      client->Close();
      continue;
    }
    // Block in poll while the next request is a millisecond or more
    // away (closed loop: until a reply frees a slot); closer than that,
    // nap in short slices instead of spinning.
    uint64_t wait_ns = load.closed() ? 5'000'000 : next_due > NowNs() ? next_due - NowNs() : 0;
    int wait_ms = static_cast<int>(std::min<uint64_t>(wait_ns / 1'000'000, 5));
    if (!client->PollOnce(wait_ms)) {
      client->Close();
    } else if (wait_ms == 0 && wait_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<uint64_t>(wait_ns, 100'000)));
    }
  }
  // Replies to the last requests, up to the timeout.
  uint64_t drain_until = NowNs() + kRequestTimeoutNs;
  while (client != nullptr && client->connected() && client->pending() > 0 &&
         NowNs() < drain_until) {
    client->PollOnce(5);
  }
  if (client != nullptr) client->Close();
}

struct LiveEpisode {
  bool ok = false;
  uint64_t start_ns = 0;  // the load window's start
  double setup_s = 0, window_s = 0;
  double node_cpu_s = 0, gen_cpu_s = 0, rss_mb = 0;
  int lost = 0;
  ClusterCounters before, after;
  std::vector<ConnStats> conns;
  std::vector<std::pair<uint64_t, uint64_t>> commit_timeline;  // t, seqno
  uint64_t lag_max = 0;
  int rolled_back = 0;  // sampled acknowledged writes a view change undid
  std::map<std::string, json::Value> schemas;
};

// Brings a cluster up, offers load for `load_s` seconds, checks it.
LiveEpisode RunEpisode(const Options& opt, const LoadSpec& load, int index,
                       double load_s, Tracer* tracer, RunResult* out) {
  LiveEpisode ep;
  std::string dir = opt.out_dir + "/live-" + std::to_string(index);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    out->Fail("cannot create " + dir);
    return ep;
  }
  uint64_t t0 = NowNs();
  LiveCluster cluster(opt.ccf_host, dir);
  std::string err;
  if (!cluster.Start(&err)) {
    out->Fail("live setup: " + err);
    return ep;
  }
  // Set-up ends once every generator connection has its handshake done.
  ep.before = cluster.Counters();
  double node_cpu0 = cluster.NodeCpuSeconds();
  double gen_cpu0 = ProcessCpuSeconds();
  ep.conns.resize(kConnections);
  std::atomic<int> ready{0};
  std::atomic<uint64_t> start_ns{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunConnection, &cluster, std::cref(load), c, opt.seed, &ready,
                         &start_ns, load_s, c == 0 ? tracer : nullptr,
                         &ep.conns[c]);
  }
  while (ready.load() < kConnections) std::this_thread::sleep_for(std::chrono::microseconds(200));
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(load_s * 1e9);
  ep.setup_s = (start - t0) / 1e9;
  ep.start_ns = start;
  start_ns.store(start);
  // The primary's commit, polled from outside while the load runs.
  int poll_node = 0;
  while (NowNs() < end) {
    uint64_t c = cluster.Commit(poll_node);
    if (c == 0 && cluster.LostNodes() > 0) poll_node = (poll_node + 1) % kNodes;
    if (c > 0) ep.commit_timeline.emplace_back(NowNs(), c);
    std::this_thread::sleep_for(std::chrono::nanoseconds(kCommitPollNs));
  }
  for (auto& t : threads) t.join();
  // The window closes with the last reply.
  uint64_t last = end;
  for (const ConnStats& st : ep.conns) {
    if (!st.done_ns.empty()) last = std::max(last, st.done_ns.back());
  }
  ep.window_s = (last - start) / 1e9;
  ep.gen_cpu_s = ProcessCpuSeconds() - gen_cpu0;
  ep.node_cpu_s = cluster.NodeCpuSeconds() - node_cpu0;
  ep.rss_mb = cluster.NodePeakRssMb();
  ep.lost = cluster.LostNodes();
  ep.after = cluster.Counters();

  // Correctness. An undisturbed run (no node lost, no election) must
  // commit every acknowledged write on every node. A sample of written ids
  // must read back from a backup once their transaction is committed;
  // after a leader loss CCF may roll back acknowledged but uncommitted
  // transactions, which then report Invalid.
  Oracle oracle;
  for (ConnStats& st : ep.conns) {
    for (auto& [req, resp] : st.acked) oracle.OnResponse(req, resp, Outcome::kOk);
    for (Req& req : st.unknown) oracle.OnUnknown(req);
  }
  if (!oracle.first_error().empty()) out->Fail(oracle.first_error());
  const bool disturbed = ep.lost > 0 || ep.after.elections > ep.before.elections;
  uint64_t deadline = NowNs() + 10'000'000'000;
  for (int i = 0; i < kNodes && !disturbed; ++i) {
    while (cluster.Commit(i) < oracle.max_acked_seqno() && NowNs() < deadline) {
      uint64_t c = cluster.Commit(0);
      if (c > 0) ep.commit_timeline.emplace_back(NowNs(), c);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (cluster.Commit(i) < oracle.max_acked_seqno()) {
      out->Fail("n" + std::to_string(i) + " commit " + std::to_string(cluster.Commit(i)) +
                " below acknowledged seqno " + std::to_string(oracle.max_acked_seqno()));
    }
  }
  int reader = cluster.Alive(1) ? 1 : cluster.Alive(2) ? 2 : 0;
  auto client = cluster.UserClient("perfbench-reader");
  if (!client->Connect("127.0.0.1", cluster.RpcPort(reader), 2000).ok()) {
    out->Fail("cannot connect to n" + std::to_string(reader) + " for read-back");
  } else {
    auto expected = oracle.ExpectedLog();
    size_t stride = std::max<size_t>(1, expected.size() / 64);
    size_t i = 0;
    for (const auto& [id, w] : expected) {
      if (i++ % stride != 0) continue;
      std::string tx = "/node/tx?view=" + std::to_string(w.view) +
                       "&seqno=" + std::to_string(w.seqno);
      std::string status;
      while (NowNs() < deadline) {
        auto s = cluster.GetJson(reader, tx);
        status = s.ok() ? s->GetString("status") : "";
        if (status == "Committed" || status == "Invalid") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (status == "Invalid" && disturbed) {
        ++ep.rolled_back;
        continue;
      }
      if (status != "Committed") {
        out->Fail("write " + std::to_string(w.view) + "." + std::to_string(w.seqno) +
                  " is " + (status.empty() ? "unknown" : status) + " on n" +
                  std::to_string(reader));
        break;
      }
      auto v = JsonBody(client->Get("/app/log?id=" + std::to_string(id), 2000));
      if (!v.ok() || v->GetString("msg") != w.msg) {
        out->Fail("id " + std::to_string(id) + " reads back '" +
                  (v.ok() ? v->GetString("msg") : std::string("?")) + "' from n" +
                  std::to_string(reader) + ", expected '" + w.msg + "' of " +
                  std::to_string(w.view) + "." + std::to_string(w.seqno));
        break;
      }
    }
    ep.schemas = EndpointSchemas(JsonBody(client->Get("/app/api", 2000)));
    client->Close();
  }
  // Commit lag seen from outside: highest acknowledged seqno so far minus
  // the polled commit.
  std::vector<std::pair<uint64_t, uint64_t>> acks;  // time, seqno
  for (const ConnStats& st : ep.conns) {
    for (size_t i = 0; i < st.done_ns.size() && i < st.commit_waits.size(); ++i) {
      acks.emplace_back(st.done_ns[i], st.commit_waits[i].first);
    }
  }
  std::sort(acks.begin(), acks.end());
  size_t ai = 0;
  uint64_t acked_max = 0;
  for (const auto& [t, commit] : ep.commit_timeline) {
    while (ai < acks.size() && acks[ai].first <= t) acked_max = std::max(acked_max, acks[ai++].second);
    if (acked_max > commit) ep.lag_max = std::max(ep.lag_max, acked_max - commit);
  }
  cluster.Stop();
  ep.ok = true;
  return ep;
}

void CountRequests(const LiveEpisode& ep, RunResult* out) {
  for (const ConnStats& st : ep.conns) {
    out->attempted += st.attempted;
    out->failed += st.failed;
  }
}

void AddEndToEnd(const LiveEpisode& ep, EpisodeSamples* s) {
  std::vector<double> lat, commit;
  double ok = 0;
  for (const ConnStats& st : ep.conns) {
    lat.insert(lat.end(), st.lat_us.begin(), st.lat_us.end());
    ok += static_cast<double>(st.ok);
    // Commit time: the first poll at which the commit covered the write.
    for (const auto& [seqno, due] : st.commit_waits) {
      auto it = std::find_if(ep.commit_timeline.begin(), ep.commit_timeline.end(),
                             [&](const auto& p) { return p.second >= seqno && p.first >= due; });
      if (it != ep.commit_timeline.end()) commit.push_back((it->first - due) / 1000.0);
    }
  }
  s->Add("tx_per_s", Ratio(ok, ep.window_s), "tx/s");
  s->Add("lat_p50_us", Quantile(lat, 0.50), "us");
  s->Add("lat_p99_us", Quantile(lat, 0.99), "us");
  s->Add("commit_p50_us", Quantile(commit, 0.50), "us");
  s->Add("commit_p99_us", Quantile(commit, 0.99), "us");
  s->Add("cpu_us_per_tx", 1e6 * Ratio(ep.node_cpu_s + ep.gen_cpu_s, ok), "us");
  s->Add("setup_s", ep.setup_s, "s");
  s->Add("peak_rss_mb", ep.rss_mb, "MB");
}

}  // namespace

bool IsLiveWorkload(const std::string& workload) {
  LoadSpec load;
  return LoadFor(workload, &load);
}

RunResult RunLiveWorkload(const Options& opt) {
  signal(SIGPIPE, SIG_IGN);
  RunResult out;
  LoadSpec load;
  LoadFor(opt.workload, &load);
  if (opt.ccf_host.empty() || access(opt.ccf_host.c_str(), X_OK) != 0) {
    out.Fail("ccf_host binary not found: '" + opt.ccf_host + "'");
    return out;
  }
  if (!opt.trace) {
    // Three clusters per run: three set-up samples, three load windows.
    constexpr int kEpisodes = 3;
    EpisodeSamples samples;
    for (int i = 0; i < kEpisodes && out.correct(); ++i) {
      LiveEpisode ep = RunEpisode(opt, load, i, opt.seconds / kEpisodes, nullptr, &out);
      if (!ep.ok) break;
      CountRequests(ep, &out);
      AddEndToEnd(ep, &samples);
      EpisodeSamples one;
      RunResult counts;
      AddEndToEnd(ep, &one);
      one.MediansInto(&counts);
      char line[200];
      std::snprintf(line, sizeof(line),
                    "episode %d: p50 %.0f us, p99 %.0f us, cpu %.0f us/tx, "
                    "nodes lost %d, elections %.0f, sampled writes rolled back %d",
                    i, counts.metrics["lat_p50_us"].value,
                    counts.metrics["lat_p99_us"].value,
                    counts.metrics["cpu_us_per_tx"].value, ep.lost,
                    ep.after.elections - ep.before.elections, ep.rolled_back);
      out.notes.push_back(line);
    }
    samples.MediansInto(&out);
    return out;
  }

  // Traced: episode A untraced (counts), episode B with request spans on
  // one connection (tracing overhead), replay of A's sampled requests.
  LiveEpisode a = RunEpisode(opt, load, 0, opt.seconds / 2, nullptr, &out);
  Tracer request_spans;
  LiveEpisode b = RunEpisode(opt, load, 1, opt.seconds / 2, &request_spans, &out);
  if (!a.ok || !b.ok) return out;
  CountRequests(a, &out);
  out.Set("failed_share", Ratio(static_cast<double>(out.failed),
                                static_cast<double>(out.attempted)), "ratio");
  CountRequests(b, &out);

  double ok = 0, ok_b = 0;
  ConnStats all;
  for (const ConnStats& st : a.conns) {
    ok += static_cast<double>(st.ok);
    all.reconnects += st.reconnects;
    all.connect_us.insert(all.connect_us.end(), st.connect_us.begin(), st.connect_us.end());
    all.late_us.insert(all.late_us.end(), st.late_us.begin(), st.late_us.end());
    all.done_ns.insert(all.done_ns.end(), st.done_ns.begin(), st.done_ns.end());
    for (const Sample& s : st.samples) {
      if (all.samples.size() < kReplaySamples) all.samples.push_back(s);
    }
  }
  for (const ConnStats& st : b.conns) ok_b += static_cast<double>(st.ok);
  LayerContext ctx;
  ctx.tx = ok;
  ctx.body_share = 1;
  // Entries the primary appended: the nodes' ledger gauges, per node.
  ctx.primary_entries = (a.after.ledger_entries - a.before.ledger_entries) / kNodes;
  AddCountMetrics(a.before, a.after, ctx, &out);
  out.Set("consensus.commit_lag_max", static_cast<double>(a.lag_max), "tx");
  // Not exported by GET /node/metrics: reported as 0 on the live cluster.
  out.Set("merkle.hashes_per_tx", 0, "1/tx");
  out.Set("consensus.msgs_per_tx", 0, "1/tx");
  out.Set("ledger.bytes_per_tx", 0, "B/tx");
  double service_us = 1e6 * Ratio(a.node_cpu_s, ok);
  out.Set("sim.step_us_per_tx", service_us, "us/tx");
  out.Set("node.client_us_per_tx", 1e6 * Ratio(a.gen_cpu_s, ok), "us/tx");
  out.Set("host.connect_us", Median(all.connect_us), "us");
  out.Set("host.reconnects", static_cast<double>(all.reconnects), "count");
  out.Set("host.nodes_lost", static_cast<double>(a.lost + b.lost), "count");
  out.Set("bench.gen_late_p99_us", Quantile(all.late_us, 0.99), "us");
  out.Set("bench.tput_first_over_last",
          FirstOverLastTenthTput(all.done_ns, a.start_ns), "ratio");
  double gen_a = Ratio(a.gen_cpu_s, ok), gen_b = Ratio(b.gen_cpu_s, ok_b);
  out.Set("bench.trace_overhead_pct", 100.0 * Ratio(gen_b - gen_a, gen_a), "%");

  ReplayInput in;
  in.tee_mode = tee::TeeMode::kVirtual;
  in.verify_batch_size = std::max<size_t>(
      1, static_cast<size_t>(Ratio(a.after.verifies - a.before.verifies,
                                   a.after.verify_batches - a.before.verify_batches) + 0.5));
  in.samples = all.samples;
  in.schemas = a.schemas;
  for (uint64_t id = 0; id < kLogIds; ++id) {
    in.preload.push_back({apps::kPrivateMessagesMap, std::to_string(id), PreloadMsg(id), true});
  }
  Tracer replay;
  ReplayLayers(in, 4, &replay);
  AddLayerTimes(replay.SelfTimesUs(), a.before, a.after, ctx, service_us, &out);
  if (!opt.out_dir.empty()) {
    request_spans.WriteJson(opt.out_dir + "/spans-requests.json");
    replay.WriteJson(opt.out_dir + "/spans-replay.json");
  }
  return out;
}

}  // namespace perfbench
