// Node and service configuration.

#ifndef CCF_NODE_CONFIG_H_
#define CCF_NODE_CONFIG_H_

#include <string>
#include <vector>

#include "consensus/raft.h"
#include "crypto/cert.h"
#include "tee/attestation.h"
#include "tee/boundary.h"

namespace ccf::node {

// Historical-query subsystem knobs (node/historical.h). Defaults suit the
// simulator's millisecond clock; tests shrink the cache to exercise
// eviction and benchmarks raise max_range.
struct HistoricalConfig {
  // LRU bound on concurrently cached range requests.
  size_t cache_max_requests = 8;
  // A cached request untouched for this long is evicted.
  uint64_t cache_ttl_ms = 10000;
  // While a request is incomplete, re-issue the host fetch this often.
  uint64_t retry_interval_ms = 20;
  // A request still incomplete after this long fails with a timeout.
  uint64_t fetch_timeout_ms = 1000;
  // Advertised Retry-After while a fetch is in flight.
  uint64_t retry_after_ms = 10;
  // Maximum seqno span of one range request.
  size_t max_range = 128;
  // Indexer backpressure: committed entries fed per tick.
  size_t index_entries_per_tick = 32;
};

struct NodeConfig {
  std::string node_id;
  tee::TeeMode tee_mode = tee::TeeMode::kVirtual;
  tee::CodeId code_id = "ccf-code-v1";
  std::string host = "";  // operator-visible address label
  uint64_t seed = 0;      // deterministic key/drbg seed

  consensus::RaftConfig raft;
  // A signature transaction is emitted after this many transactions (paper
  // §7: "the signature transaction frequency has been set to every 100
  // transactions"), or after signature_interval_ms of inactivity.
  uint64_t signature_interval_txs = 100;
  uint64_t signature_interval_ms = 100;
  // Snapshots of committed state are produced every this many commits.
  // A joiner bootstraps from the service's latest verified snapshot bundle
  // plus the ledger suffix (paper §4.4); before the first bundle exists it
  // replays the whole ledger from seqno 1 through consensus catch-up.
  uint64_t snapshot_interval_txs = 1000;
  // After the host persists a verified snapshot at seqno S, retire ledger
  // chunks entirely below S (bounding host disk and memory). Off by
  // default: auditing and full-replay recovery need the whole ledger
  // unless an operator opts into the snapshot horizon.
  bool snapshot_retire_ledger = false;
  // How many full KV store roots to retain for rollback / historical
  // reads before falling back to write-set replay (0 = unlimited). Kept
  // comfortably above the signature interval so common rollbacks stay
  // O(1).
  size_t kv_retained_root_cap = 256;
  // Enclave worker threads for deferred signing (paper §7: dedicated
  // threads keep signing off the message-handling hot path). 0 (default)
  // executes offloaded jobs synchronously at the submission point; N>0
  // runs real threads. In both cases completions are delivered at the same
  // drain point at the top of Node::Tick, so with worker_async unset the
  // simulated service is bit-for-bit identical across settings (see
  // DESIGN.md: worker-pool determinism contract).
  size_t worker_threads = 0;
  // With worker_threads > 0: don't block the drain point on unfinished
  // jobs. Signature transactions then land whenever their sign finishes,
  // covering a prefix of the log (merkle/receipt.h). Maximum overlap for
  // wall-clock benchmarks; not bit-reproducible, so the deterministic
  // chaos suites leave it off.
  bool worker_async = false;
  // Optimistic parallel request execution (DESIGN.md §12). Batches of
  // independent, parallel-safe requests execute concurrently on a
  // dedicated pool against a shared committed-state snapshot; a serial
  // commit point validates read-sets and re-executes losers. 0 (default)
  // runs each batched handler synchronously at the submission point, so
  // the simulated service is bit-for-bit identical across settings: batch
  // composition, commit order, and every response byte depend only on the
  // message schedule, never on exec_threads.
  size_t exec_threads = 0;
  // Per-connection cap on pipelined requests awaiting a response. A client
  // exceeding it gets 503 + connection close (after all earlier responses
  // on the connection). 0 = unlimited; the default is far above anything
  // the sim harnesses pipeline, so simulated runs are unaffected.
  size_t http_max_pipeline = 4096;
  // Historical queries and asynchronous indexing (node/historical.h).
  HistoricalConfig historical;
};

// Initial consortium passed to the genesis node (paper §5: "the
// constitution ... is provided to a CCF service at start-up").
struct MemberIdentity {
  std::string member_id;
  Bytes cert;                           // serialized member certificate
  crypto::PublicKeyBytes encryption_key{};  // for recovery shares
};

struct ServiceInit {
  std::vector<MemberIdentity> members;
  std::string constitution;  // CCL source; empty => default constitution
  // Convenience for tests/benchmarks: open the service at genesis instead
  // of requiring a transition_service_to_open proposal.
  bool open_immediately = false;
  // Users registered at genesis (normally added via set_user proposals).
  std::vector<std::pair<std::string, Bytes>> initial_users;  // id, cert
};

}  // namespace ccf::node

#endif  // CCF_NODE_CONFIG_H_
