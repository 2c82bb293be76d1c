// Seeded chaos over the snapshot pipeline (paper §4.4, §5): the untrusted
// host drops and corrupts snapshot persistence, while ledger chunks below
// the horizon are retired. Joiners must still bootstrap from a verified
// bundle and converge; historical queries must answer terminally (served,
// compacted, or clean timeout); and disaster recovery must either verify
// the stored bundle or refuse it -- corrupt snapshot bytes are never
// installed. Each seed replays bit-for-bit.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "node/snapshots.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

struct ChaosResult {
  std::string failure;  // empty = all invariants held
  std::string trace;    // outcome fingerprint (determinism check)
};

uint64_t ChaosWrite(node::Client* client, int64_t id,
                    const std::string& msg) {
  auto resp = client->PostJson("/app/log", LogBody(id, msg));
  if (!resp.ok() || resp->status != 200) return 0;
  auto txid = node::Client::TxIdOf(*resp);
  return txid.has_value() ? txid->second : 0;
}

ChaosResult RunSnapshotChaos(uint64_t seed) {
  ChaosResult out;
  std::ostringstream trace;

  sim::EnvOptions opts;
  opts.seed = seed;
  ServiceHarness h(opts);
  h.AddUser("user0");
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->snapshot_interval_txs = 20;
    cfg->snapshot_retire_ledger = true;
    cfg->historical.fetch_timeout_ms = 300;
    cfg->historical.retry_interval_ms = 15;
  });
  node::Node* n0 = h.StartGenesis();
  h.EnableInvariantChecker();
  node::Client* client = h.UserClient("user0");

  // Per-seed fault regime, active from the first snapshot on.
  crypto::Drbg chaos("snapshot-chaos", seed);
  sim::HostFaults faults;
  faults.snapshot_drop = static_cast<double>(chaos.Uniform(50)) / 100.0;
  faults.snapshot_corrupt = static_cast<double>(chaos.Uniform(40)) / 100.0;
  faults.drop = static_cast<double>(chaos.Uniform(30)) / 100.0;
  faults.corrupt = static_cast<double>(chaos.Uniform(30)) / 100.0;
  h.env().SetHostFaults("n0", faults);

  uint64_t early = ChaosWrite(client, 99, "early");
  if (early == 0) {
    out.failure = "setup write failed";
    return out;
  }
  uint64_t last = early;
  for (int i = 0; i < 40; ++i) {
    last = ChaosWrite(client, i % 3, "m" + std::to_string(i));
    if (last == 0) {
      out.failure = "write " + std::to_string(i) + " failed";
      return out;
    }
  }
  if (!h.env().RunUntil([&] { return n0->commit_seqno() >= last; }, 8000)) {
    out.failure = "writes never committed";
    return out;
  }

  // By now the snapshot at seqno 20 is long since receipted enclave-side
  // (host faults cannot touch that), so a joiner MUST be offered a bundle
  // and start past its horizon instead of replaying from seqno 1.
  node::Node* n1 = h.Join("n1");
  if (n1 == nullptr ||
      !h.env().RunUntil([&] { return n1->has_joined(); }, 8000)) {
    out.failure = "joiner never joined";
    return out;
  }
  if (n1->host_ledger().base_seqno() < 20) {
    out.failure = "joiner replayed below the snapshot horizon (base " +
                  std::to_string(n1->host_ledger().base_seqno()) + ")";
    return out;
  }
  trace << "jbase:" << n1->host_ledger().base_seqno() << ";";
  if (!h.TrustNode("n1")) {
    out.failure = "joiner never trusted";
    return out;
  }
  h.TrackNode("n1");

  for (int i = 0; i < 10; ++i) {
    last = ChaosWrite(client, 3 + (i % 2), "post-join-" + std::to_string(i));
    if (last == 0) {
      out.failure = "post-join write failed";
      return out;
    }
  }
  if (!h.WaitForCommitEverywhere(last, 8000) ||
      !h.env().RunUntil(
          [&] {
            return ServiceHarness::StateDigest(n0) ==
                   ServiceHarness::StateDigest(n1);
          },
          8000)) {
    out.failure = "joiner never converged";
    return out;
  }
  trace << "snap:" << n0->host_snapshot_seqno()
        << ";base:" << n0->host_ledger().base_seqno() << ";";

  // Historical poke at the early write: under retirement + fetch faults
  // the only acceptable terminal answers are 200 (verified), 404 with a
  // horizon (compacted), or 503 (clean timeout) -- never a hang.
  std::string path =
      "/app/log/historical?id=99&seqno=" + std::to_string(early);
  Result<http::Response> final = Status::Unavailable("none");
  if (!h.env().RunUntil(
          [&] {
            final = client->Get(path, 2000);
            return final.ok() && final->status != 202;
          },
          8000)) {
    out.failure = "historical query never answered terminally";
    return out;
  }
  if (final->status != 200 && final->status != 404 &&
      final->status != 503) {
    out.failure = "unexpected historical status " +
                  std::to_string(final->status);
    return out;
  }
  if (final->status == 404) {
    auto body = json::Parse(ToString(final->body));
    if (!body.ok() || body->GetInt("horizon") <= 0) {
      out.failure = "compacted 404 without a horizon";
      return out;
    }
  }
  trace << "hist:" << final->status << ";";
  if (!n0->historical().AuditCache(n0->service_identity()).ok()) {
    out.failure = "poisoned historical cache";
    return out;
  }

  // Disaster recovery from whatever the faulty host managed to persist.
  // A corrupted stored bundle must be refused (verification fails before
  // any install); refusal is only legitimate when corruption faults were
  // actually in play.
  std::string dir = std::filesystem::temp_directory_path() /
                    ("ccf_snapchaos_" + std::to_string(seed) + "_" +
                     std::to_string(::getpid()));
  if (!n0->SaveLedgerToDir(dir).ok()) {
    out.failure = "SaveLedgerToDir failed";
    return out;
  }
  if (n0->host_snapshot_seqno() > 0 &&
      !n0->SaveSnapshotToDir(dir).ok()) {
    out.failure = "SaveSnapshotToDir failed";
    return out;
  }
  h.DropClients();
  h.env().SetUp("n0", false);
  h.env().SetUp("n1", false);

  auto recovered = node::Node::CreateRecoveryFromDir(
      FastNodeConfig("r0", 7 + seed % 5), dir, nullptr, &h.env());
  if (recovered.ok()) {
    node::Node* r0 = recovered->get();
    if (!h.env().RunUntil(
            [&] {
              return r0->IsPrimary() && r0->service_status() ==
                                            gov::ServiceStatus::kRecovering;
            },
            8000)) {
      out.failure = "recovery node never reached Recovering";
      std::filesystem::remove_all(dir);
      return out;
    }
    trace << "rec:ok";
  } else {
    if (faults.snapshot_corrupt == 0.0) {
      out.failure = "recovery refused without corruption faults: " +
                    recovered.status().ToString();
      std::filesystem::remove_all(dir);
      return out;
    }
    trace << "rec:refused";
  }
  std::filesystem::remove_all(dir);
  out.trace = trace.str();
  return out;
}

class SnapshotChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotChaos, JoinersAndRecoveryStaySoundUnderSnapshotFaults) {
  const uint64_t base = GetParam() * 10;
  for (uint64_t i = 0; i < 10; ++i) {
    uint64_t seed = base + i;
    ChaosResult r = RunSnapshotChaos(seed);
    ASSERT_TRUE(r.failure.empty())
        << "seed " << seed << ": " << r.failure << "\ntrace: " << r.trace;
  }
}

// 20 params x 10 seeds = 200 distinct seeds.
INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotChaos,
                         ::testing::Range<uint64_t>(0, 20));

// Same seed, same run: the snapshot fault schedule and every outcome
// replay bit-for-bit.
TEST(SnapshotChaosDeterminism, SameSeedSameTrace) {
  ChaosResult a = RunSnapshotChaos(11);
  ChaosResult b = RunSnapshotChaos(11);
  ASSERT_TRUE(a.failure.empty()) << a.failure;
  EXPECT_EQ(a.trace, b.trace);
}

}  // namespace
}  // namespace ccf::testing
