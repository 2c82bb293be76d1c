#include "layers.h"

#include <algorithm>

namespace perfbench {

using ccf::json::Value;

namespace {

double Num(const Value* v) {
  return v != nullptr && v->is_number() ? v->AsDouble() : 0;
}

double Counter(const Value& reg, const char* name) {
  const Value* c = reg.Get("counters");
  return c != nullptr ? Num(c->Get(name)) : 0;
}

const Value* Histogram(const Value& reg, const std::string& name) {
  const Value* h = reg.Get("histograms");
  return h != nullptr ? h->Get(name) : nullptr;
}

const Value* Gauge(const Value& reg, const char* name) {
  const Value* g = reg.Get("gauges");
  return g != nullptr ? g->Get(name) : nullptr;
}

bool IsAppHandlerHistogram(const std::string& name) {
  static const std::string kPrefix = "rpc.latency_us.";
  if (name.rfind(kPrefix, 0) != 0) return false;
  std::string key = name.substr(kPrefix.size());  // "METHOD /path"
  size_t sp = key.find(' ');
  return sp != std::string::npos && key.compare(sp + 1, 5, "/app/") == 0;
}

}  // namespace

void ClusterCounters::AddNode(const Value& reg) {
  tee_messages += Counter(reg, "tee.h2e.messages") +
                  Counter(reg, "tee.e2h.messages");
  ring_full += Counter(reg, "tee.ring_full");
  if (const Value* g = Gauge(reg, "tee.h2e.ring_used_bytes")) {
    h2e_ring_max = std::max(h2e_ring_max, Num(g->Get("max")));
  }
  signs += Counter(reg, "crypto.signs");
  verifies += Counter(reg, "crypto.verifies_single") +
              Counter(reg, "crypto.verifies_batched");
  verify_batches += Counter(reg, "crypto.verify_batches");
  exec_requests += Counter(reg, "exec.requests");
  exec_conflicts += Counter(reg, "exec.conflicts");
  exec_retries += Counter(reg, "exec.retries");
  if (const Value* h = Histogram(reg, "exec.batch_size")) {
    exec_batch_count += Num(h->Get("count"));
    exec_batch_sum += Num(h->Get("sum"));
  }
  if (const Value* h = Histogram(reg, "consensus.append_batch_entries")) {
    append_entries_count += Num(h->Get("count"));
    append_entries_sum += Num(h->Get("sum"));
  }
  elections += Counter(reg, "consensus.elections");
  if (const Value* g = Gauge(reg, "ledger.entries")) {
    ledger_entries += Num(g->Get("value"));
  }
  if (const Value* hs = reg.Get("histograms"); hs != nullptr && hs->is_object()) {
    for (const auto& [name, h] : hs->AsObject()) {
      if (!IsAppHandlerHistogram(name)) continue;
      handler_p50.emplace_back(Num(h.Get("count")), Num(h.Get("p50")));
    }
  }
}

void AddCountMetrics(const ClusterCounters& b, const ClusterCounters& a,
                     const LayerContext& ctx, RunResult* out) {
  const double tx = ctx.tx;
  out->Set("tee.crossings_per_tx", Ratio(a.tee_messages - b.tee_messages, tx),
           "1/tx");
  out->Set("tee.ring_full", a.ring_full - b.ring_full, "count");
  out->Set("tee.h2e_ring_max_bytes", a.h2e_ring_max, "B");
  double exec_reqs = a.exec_requests - b.exec_requests;
  out->Set("kv.occ_conflicts_per_req",
           Ratio(a.exec_conflicts - b.exec_conflicts, exec_reqs), "ratio");
  out->Set("node.exec_retries_per_req",
           Ratio(a.exec_retries - b.exec_retries, exec_reqs), "ratio");
  out->Set("node.exec_batch_mean",
           Ratio(a.exec_batch_sum - b.exec_batch_sum,
                 a.exec_batch_count - b.exec_batch_count),
           "req");
  out->Set("node.signs_per_ktx", 1000.0 * Ratio(a.signs - b.signs, tx),
           "1/ktx");
  out->Set("crypto.verifies_per_ktx",
           1000.0 * Ratio(a.verifies - b.verifies, tx), "1/ktx");
  out->Set("consensus.entries_sent_per_entry",
           Ratio(a.append_entries_sum - b.append_entries_sum,
                 ctx.primary_entries),
           "ratio");
  out->Set("consensus.append_batch_mean",
           Ratio(a.append_entries_sum - b.append_entries_sum,
                 a.append_entries_count - b.append_entries_count),
           "entries");
  out->Set("consensus.elections", a.elections - b.elections, "count");

  // Handler p50 over the workload's endpoints, weighted by request count
  // (the node histograms are cumulative since start).
  double weight = 0, acc = 0;
  for (const auto& [count, p50] : a.handler_p50) {
    weight += count;
    acc += count * p50;
  }
  out->Set("rpc.handler_p50_us", Ratio(acc, weight), "us");
}

void AddLayerTimes(const std::map<std::string, std::vector<double>>& self_us,
                   const ClusterCounters& b, const ClusterCounters& a,
                   const LayerContext& ctx, double service_us_per_tx,
                   RunResult* out) {
  auto median = [&](const char* layer) {
    auto it = self_us.find(layer);
    return it != self_us.end() ? Median(it->second) : 0.0;
  };
  const double tx = ctx.tx;
  const double entries_per_tx = Ratio(a.ledger_entries - b.ledger_entries, tx);
  // Calls of each replayed layer per successful request, from the counts.
  const std::map<std::string, double> calls = {
      {"tee.crossing", Ratio(a.tee_messages - b.tee_messages, tx)},
      {"rpc.open", 1},
      {"rpc.seal", 1},
      {"http.parse", 1},
      {"http.serialize", 1},
      {"json.parse", ctx.body_share},
      {"json.schema", ctx.body_share},
      {"kv.commit", 1},
      {"kv.encrypt", entries_per_tx},
      {"ledger.append", entries_per_tx},
      {"merkle.append", entries_per_tx},
      {"crypto.sign", Ratio(a.signs - b.signs, tx)},
      {"crypto.verify_batch", Ratio(a.verify_batches - b.verify_batches, tx)},
  };
  const std::map<std::string, std::string> span_metric = {
      {"tee.crossing", "tee.crossing_us"},
      {"rpc.open", "rpc.open_us"},
      {"rpc.seal", "rpc.seal_us"},
      {"http.parse", "http.parse_us"},
      {"http.serialize", "http.serialize_us"},
      {"json.parse", "json.parse_us"},
      {"json.schema", "json.schema_us"},
      {"kv.commit", "kv.commit_us"},
      {"kv.encrypt", "kv.encrypt_us"},
      {"ledger.append", "ledger.append_us"},
      {"merkle.append", "merkle.append_us"},
      {"crypto.sign", "crypto.sign_us"},
      {"crypto.verify_batch", "crypto.verify_batch_us"},
  };
  std::map<std::string, double> module_us;  // "tee" -> us/tx
  for (const auto& [layer, metric] : span_metric) {
    double us = median(layer.c_str());
    out->Set(metric, us, "us");
    std::string module = layer.substr(0, layer.find('.'));
    module_us[module] += us * calls.at(layer);
  }
  double layers_total = 0;
  for (const auto& [module, us] : module_us) {
    out->Set(module + ".self_us_per_tx", us, "us/tx");
    layers_total += us;
  }
  out->Set("node.glue_us_per_tx", service_us_per_tx - layers_total, "us/tx");
}

}  // namespace perfbench
