// Per-layer accounting shared by the simulated and the live workloads:
// counter snapshots read from each node's metrics registry (the JSON that
// Node::metrics().ToJson() returns and GET /node/metrics serves), the
// count metrics derived from two snapshots, and the per-tx self time of
// each layer from the traced replay.

#ifndef CCF_PERFBENCH_LAYERS_H_
#define CCF_PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "json/json.h"

namespace perfbench {

// Counters summed over every node of a cluster.
struct ClusterCounters {
  double tee_messages = 0;     // tee.h2e.messages + tee.e2h.messages
  double ring_full = 0;        // tee.ring_full
  double h2e_ring_max = 0;     // max over nodes of tee.h2e.ring_used_bytes max
  double signs = 0;            // crypto.signs
  double verifies = 0;         // crypto.verifies_single + verifies_batched
  double verify_batches = 0;   // crypto.verify_batches
  double exec_requests = 0;
  double exec_conflicts = 0;
  double exec_retries = 0;
  double exec_batch_count = 0;  // exec.batch_size histogram count / sum
  double exec_batch_sum = 0;
  double append_entries_sum = 0;    // consensus.append_batch_entries
  double append_entries_count = 0;
  double elections = 0;        // consensus.elections
  double ledger_entries = 0;   // ledger.entries gauge
  // Handler latency histograms of the workload's endpoints: (count, p50).
  std::vector<std::pair<double, double>> handler_p50;

  void AddNode(const ccf::json::Value& registry_json);
};

// Workload shape the per-layer accounting needs.
struct LayerContext {
  double tx = 0;               // successful requests in the window
  double body_share = 0;       // share of requests carrying a JSON body
  double primary_entries = 0;  // entries the primary appended in the window
};

// Count metrics from two snapshots over the measured window.
void AddCountMetrics(const ClusterCounters& before,
                     const ClusterCounters& after, const LayerContext& ctx,
                     RunResult* out);

// Median self time of each replayed layer (µs), the per-tx self time of
// each module (layer time x that layer's calls per tx from the counts),
// and node.glue_us_per_tx = service_us_per_tx - sum of the modules.
void AddLayerTimes(const std::map<std::string, std::vector<double>>& self_us,
                   const ClusterCounters& before,
                   const ClusterCounters& after, const LayerContext& ctx,
                   double service_us_per_tx, RunResult* out);

}  // namespace perfbench

#endif  // CCF_PERFBENCH_LAYERS_H_
