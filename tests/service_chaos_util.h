// Shared seeded-chaos runner over full services (paper §5): a three-node
// service with real STLS sessions, governance, signatures, snapshots and
// ledgers, driven through seeded link faults, partitions and crashes while
// sim::InvariantChecker observes every node after every simulated
// millisecond. Convergence is checked down to byte-identical Merkle roots
// and committed KV state. Used by service_chaos_test.cc (worker-pool
// offload determinism) and exec_chaos_test.cc (batched optimistic
// execution determinism).

#ifndef CCF_TESTS_SERVICE_CHAOS_UTIL_H_
#define CCF_TESTS_SERVICE_CHAOS_UTIL_H_

#include <sstream>
#include <string>
#include <vector>

#include "common/hex.h"
#include "sim/aggregator.h"
#include "tests/service_harness.h"

namespace ccf::testing {

inline const std::vector<std::string> kChaosNodeIds = {"n0", "n1", "n2"};

struct ChaosOutcome {
  std::string failure;   // empty = invariants held and the service converged
  std::string schedule;  // human-readable, replayable fault schedule
  std::string trace;     // per-round state fingerprint (determinism checks)
  // Post-convergence per-node digest (commit seqno, Merkle root, committed
  // KV state) -- compared across worker_threads / exec_threads settings.
  std::string final_state;
  // End-of-run metrics report (sim::MetricsAggregator JSON) when requested.
  // Reading metrics must not perturb the run: schedule/trace/final_state
  // are asserted identical with and without it.
  std::string report;
};

inline void HealEverything(ServiceHarness* h) {
  for (const std::string& a : kChaosNodeIds) {
    for (const std::string& b : kChaosNodeIds) {
      if (a == b) continue;
      h->env().SetBlockedOneWay(a, b, false);
      h->env().SetPartitioned(a, b, false);
    }
    h->env().SetUp(a, true);
  }
  h->env().ClearLinkFaults();
}

inline bool Quiesced(ServiceHarness* h) {
  uint64_t last = 0;
  bool first = true;
  for (const std::string& id : kChaosNodeIds) {
    node::Node* n = h->node(id);
    if (n == nullptr || !n->has_joined() || !n->raft().InActiveConfig()) {
      return false;
    }
    if (first) {
      last = n->last_seqno();
      first = false;
    }
    if (n->last_seqno() != last || n->commit_seqno() != last) return false;
  }
  return last > 0;
}

inline ChaosOutcome RunServiceChaos(uint64_t seed, uint64_t worker_threads = 0,
                                    bool with_metrics_report = false,
                                    uint64_t exec_threads = 0) {
  ChaosOutcome out;
  std::ostringstream schedule;
  std::ostringstream trace;

  sim::EnvOptions opts;
  opts.seed = seed;
  ServiceHarness h(opts);
  // Blocking offload (worker_async=false) and batched request execution
  // must be indistinguishable from the sync baseline in virtual time:
  // everything below -- the trace, the fault schedule and the final state
  // digests -- is asserted identical across worker_threads settings by
  // WorkerThreadsPreserveDeterminism and across exec_threads settings by
  // ExecThreadsPreserveDeterminism.
  h.SetConfigTweak([worker_threads, exec_threads](node::NodeConfig* cfg) {
    cfg->worker_threads = worker_threads;
    cfg->exec_threads = exec_threads;
  });
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  if (n0 == nullptr) {
    out.failure = "genesis failed";
    return out;
  }
  // Joins and governance need a clean network (STLS is order-sensitive).
  if (h.JoinAndTrust("n1") == nullptr || h.JoinAndTrust("n2") == nullptr) {
    out.failure = "join failed on clean network";
    return out;
  }
  sim::InvariantChecker& checker = h.EnableInvariantChecker();

  // Optional metrics aggregation riding alongside the invariant checker
  // (both are Environment step observers). Strictly read-only over each
  // node's registry, so attaching it must not change the run.
  sim::MetricsAggregator aggregator;
  if (with_metrics_report) {
    for (const std::string& id : kChaosNodeIds) {
      aggregator.Track(id, &h.node(id)->metrics());
    }
    aggregator.Watch("consensus.commit_seqno");
    aggregator.Watch("tee.e2h.ring_used_bytes");
    aggregator.Attach(&h.env(), /*sample_every_ms=*/20);
  }

  // Committed baseline data before the faults start.
  {
    node::Client* c = h.UserClient("alice");
    for (int i = 0; i < 4; ++i) {
      auto w = c->PostJson(
          "/app/log", LogBody(i, "pre-chaos-" + std::to_string(i)), 3000);
      if (!w.ok() || w->status != 200) {
        out.failure = "baseline write failed";
        return out;
      }
    }
  }

  crypto::Drbg chaos("service-chaos", seed);

  sim::LinkFaults faults;
  faults.drop = static_cast<double>(1 + chaos.Uniform(5)) / 100.0;
  faults.duplicate = static_cast<double>(chaos.Uniform(6)) / 100.0;
  faults.reorder = static_cast<double>(chaos.Uniform(6)) / 100.0;
  faults.extra_delay_max_ms = chaos.Uniform(3);
  h.env().SetFaultsAmong(kChaosNodeIds, faults);
  schedule << "seed " << seed << " link faults: drop=" << faults.drop
           << " dup=" << faults.duplicate << " reorder=" << faults.reorder
           << " delay<=" << faults.extra_delay_max_ms << "ms\n";

  int written = 0;
  for (int round = 0; round < 12; ++round) {
    uint64_t now = h.env().now_ms();
    uint64_t action = chaos.Uniform(10);
    const std::string& victim =
        kChaosNodeIds[chaos.Uniform(kChaosNodeIds.size())];
    const std::string& other =
        kChaosNodeIds[chaos.Uniform(kChaosNodeIds.size())];
    if (action < 2 && victim != other) {
      bool on = chaos.Uniform(2) == 0;
      h.env().SetPartitioned(victim, other, on);
      schedule << "t=" << now << " partition " << victim << "<->" << other
               << (on ? " on" : " off") << "\n";
    } else if (action < 4 && victim != other) {
      bool on = chaos.Uniform(2) == 0;
      h.env().SetBlockedOneWay(victim, other, on);
      schedule << "t=" << now << " one-way block " << victim << "->" << other
               << (on ? " on" : " off") << "\n";
    } else if (action < 6) {
      // Crash with a scheduled restart; volatile network state is lost
      // while the node object (its enclave "memory") pauses.
      uint64_t restart_at = now + 30 + chaos.Uniform(120);
      h.env().SetUp(victim, false);
      std::string v = victim;
      sim::Environment* env = &h.env();
      h.env().At(restart_at, [env, v] { env->SetUp(v, true); });
      schedule << "t=" << now << " crash " << victim << " until t="
               << restart_at << "\n";
    } else if (action < 7) {
      uint64_t heal_at = now + 20 + chaos.Uniform(80);
      ServiceHarness* hp = &h;
      h.env().At(heal_at, [hp] {
        for (const std::string& a : kChaosNodeIds) {
          for (const std::string& b : kChaosNodeIds) {
            if (a == b) continue;
            hp->env().SetBlockedOneWay(a, b, false);
            hp->env().SetPartitioned(a, b, false);
          }
          hp->env().SetUp(a, true);
        }
      });
      schedule << "t=" << now << " heal scheduled at t=" << heal_at << "\n";
    }

    // Offer load; failures under faults are expected and ignored.
    if (h.env().IsUp("n0") && h.Primary() != nullptr) {
      node::Client* c = h.UserClient("alice");
      auto w = c->PostJson(
          "/app/log",
          LogBody(100 + written, "chaos-" + std::to_string(written)), 300);
      if (w.ok() && w->status == 200) ++written;
    }
    h.env().Step(40);

    trace << "r" << round << " t=" << h.env().now_ms()
          << " sent=" << h.env().messages_sent()
          << " dropped=" << h.env().messages_dropped()
          << " dup=" << h.env().messages_duplicated()
          << " reord=" << h.env().messages_reordered();
    for (const std::string& id : kChaosNodeIds) {
      node::Node* n = h.node(id);
      trace << " " << id << "=(" << n->view() << "," << n->last_seqno()
            << "," << n->commit_seqno() << ")";
    }
    trace << "\n";

    if (!checker.ok()) break;
  }

  out.schedule = schedule.str();
  out.trace = trace.str();
  if (!checker.ok()) {
    out.failure = "invariant violation:\n" + checker.Report();
    return out;
  }

  // Heal, then require full convergence: a fresh committed write, equal
  // logs, and byte-identical Merkle roots + committed KV state.
  HealEverything(&h);
  bool converged = false;
  for (int attempt = 0; attempt < 8 && !converged; ++attempt) {
    // Chaos may have corrupted client record streams; reconnect fresh.
    h.DropClients();
    if (!h.env().RunUntil([&] { return h.Primary() != nullptr; }, 10000)) {
      continue;
    }
    node::Client* c = h.UserClient("alice");
    auto w = c->PostJson("/app/log", LogBody(1000 + attempt, "converge"), 3000);
    if (!w.ok() || w->status != 200) {
      h.env().Step(200);
      continue;
    }
    converged = h.env().RunUntil([&] { return Quiesced(&h); }, 5000);
  }
  if (!converged) {
    out.failure = "service failed to converge after heal";
    return out;
  }

  std::string why;
  if (!checker.CheckConverged([](const std::string&) { return true; },
                              &why)) {
    out.failure = "state convergence violated: " + why;
    return out;
  }
  if (!checker.ok()) {
    out.failure =
        "invariant violation during convergence:\n" + checker.Report();
    return out;
  }
  std::ostringstream fs;
  for (const std::string& id : kChaosNodeIds) {
    fs << id << "=" << HexEncode(ServiceHarness::StateDigest(h.node(id)))
       << "\n";
  }
  out.final_state = fs.str();
  if (with_metrics_report) out.report = aggregator.Report().Dump();
  return out;
}

}  // namespace ccf::testing

#endif  // CCF_TESTS_SERVICE_CHAOS_UTIL_H_
