// Snapshot bootstrap (paper §4.4): time for a joiner to become part of the
// service as the ledger grows, with and without verified snapshots.
//
//   snapshot -- the service snapshots periodically, retires ledger chunks
//               below the horizon, and hands joiners a verified bundle:
//               join cost tracks the suffix length, not the ledger length
//   replay   -- snapshots disabled; the joiner replays the entire ledger
//               through consensus catch-up: join cost grows linearly
//
// Results go to BENCH_snapshots.json (or the path given as the first
// non-flag argument) for scripts/bench_diff.py. --smoke / CCF_BENCH_SMOKE=1
// shrinks the run.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace ccf::bench {
namespace {

struct JoinRow {
  uint64_t ledger_entries = 0;
  double wall_seconds = 0;
  uint64_t entries_replayed = 0;
  uint64_t snapshot_seqno = 0;
};

// Builds a service with `writes` committed entries and measures the wall
// time for a fresh node to join and catch up to the commit point.
bool RunJoin(uint64_t writes, bool with_snapshots, JoinRow* out) {
  ServiceHarness h;
  h.AddUser("user0");
  h.SetConfigTweak([&](node::NodeConfig* cfg) {
    cfg->signature_interval_txs = 100;
    cfg->signature_interval_ms = 50;
    if (with_snapshots) {
      // Snapshot a handful of times per run, whatever the ledger length.
      cfg->snapshot_interval_txs = writes >= 2000 ? 500 : writes / 4;
      cfg->snapshot_retire_ledger = true;
    } else {
      // No bundle ever exists, so the joiner gets no state.
      cfg->snapshot_interval_txs = 1u << 30;
    }
  });
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  ClosedLoopDriver driver(&h.env());
  driver.AddStream(client, [](uint64_t s) { return MakeWriteRequest(s); },
                   32);
  auto load = driver.Run(writes);
  if (load.errors > 0) {
    std::fprintf(stderr, "preload saw %llu errors\n",
                 static_cast<unsigned long long>(load.errors));
    return false;
  }
  if (!h.env().RunUntil(
          [&] { return n0->commit_seqno() >= n0->last_seqno(); }, 60000)) {
    std::fprintf(stderr, "service never quiesced\n");
    return false;
  }
  if (with_snapshots &&
      !h.env().RunUntil([&] { return n0->host_snapshot_seqno() > 0; },
                        60000)) {
    std::fprintf(stderr, "no snapshot was ever persisted\n");
    return false;
  }

  uint64_t target = n0->commit_seqno();
  uint64_t horizon = n0->host_ledger().base_seqno();
  // Join, get trusted by the consortium, and catch up to the commit
  // point: the replication catch-up is the part that scales with the
  // ledger (or suffix) length; the governance round trips are constant.
  auto t0 = std::chrono::steady_clock::now();
  node::Node* n1 = h.JoinAndTrust("n1", 600000);
  bool joined =
      n1 != nullptr &&
      h.env().RunUntil([&] { return n1->commit_seqno() >= target; }, 600000);
  out->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!joined) {
    node::Node* probe = h.node("n1");
    std::fprintf(stderr,
                 "joiner never caught up (trusted=%d joined=%d commit=%llu "
                 "target=%llu n0_commit=%llu)\n",
                 n1 != nullptr, probe != nullptr && probe->has_joined(),
                 static_cast<unsigned long long>(
                     probe != nullptr ? probe->commit_seqno() : 0),
                 static_cast<unsigned long long>(target),
                 static_cast<unsigned long long>(n0->commit_seqno()));
    return false;
  }

  out->ledger_entries = target;
  out->snapshot_seqno = n0->host_snapshot_seqno();
  uint64_t base = n1->host_ledger().base_seqno();
  out->entries_replayed = n1->host_ledger().last_seqno() - base;
  if (with_snapshots) {
    // The acceptance property: the joiner started from the verified
    // bundle and never saw the retired chunks.
    if (base < horizon || base == 0) {
      std::fprintf(stderr,
                   "ERROR: joiner base %llu below retirement horizon %llu\n",
                   static_cast<unsigned long long>(base),
                   static_cast<unsigned long long>(horizon));
      return false;
    }
  }
  return true;
}

int RunAll(const std::string& json_path, bool smoke) {
  std::vector<uint64_t> lengths =
      smoke ? std::vector<uint64_t>{200, 400}
            : std::vector<uint64_t>{1000, 2500, 5000, 10000};

  json::Object root;
  root["smoke"] = smoke;
  json::Object join;
  for (bool with_snapshots : {true, false}) {
    const char* mode = with_snapshots ? "snapshot" : "replay";
    std::printf("join-time bench, mode=%s\n", mode);
    json::Array rows;
    for (uint64_t n : lengths) {
      JoinRow row;
      if (!RunJoin(n, with_snapshots, &row)) return 1;
      std::printf(
          "  ledger=%llu join=%.3fs replayed=%llu snapshot_seqno=%llu\n",
          static_cast<unsigned long long>(row.ledger_entries),
          row.wall_seconds,
          static_cast<unsigned long long>(row.entries_replayed),
          static_cast<unsigned long long>(row.snapshot_seqno));
      json::Object r;
      r["ledger_entries"] = row.ledger_entries;
      r["wall_seconds"] = row.wall_seconds;
      r["entries_replayed"] = row.entries_replayed;
      r["snapshot_seqno"] = row.snapshot_seqno;
      rows.push_back(json::Value(std::move(r)));
    }
    join[mode] = json::Value(std::move(rows));
  }
  root["join"] = json::Value(std::move(join));

  std::string dumped = json::Value(std::move(root)).DumpPretty();
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(dumped.data(), 1, dumped.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ccf::bench

int main(int argc, char** argv) {
  bool smoke = ccf::bench::SmokeMode();
  std::string json_path = "BENCH_snapshots.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  return ccf::bench::RunAll(json_path, smoke);
}
