// CCF's consensus protocol node (paper §4).
//
// A RaftNode is deterministic and passive: it only acts when driven by
// Tick(now_ms) and Receive(msg, now_ms), emitting outbound messages and
// state-change notifications through the Callbacks interface. The same
// code runs under the discrete-event simulator (tests, failure injection)
// and the realtime benchmark driver.
//
// Differences from vanilla Raft, following the paper:
//   - Only signature transactions are commit points (§4.1). A transaction
//     is committed once a subsequent signature transaction is replicated
//     to a majority of every active configuration.
//   - Election up-to-dateness compares the transaction ID of the *last
//     signature transaction* (§4.2, Table 2).
//   - A new primary rolls its log back to its last signature transaction
//     and starts its view with a fresh signature transaction (§4.2).
//   - Reconfiguration is a single transaction moving between arbitrary
//     node sets; quorums are required in every active configuration, and
//     configurations activate as soon as the reconfiguration transaction
//     is appended (§4.4).
//   - A primary that cannot reach a majority of backups within
//     `primary_quiesce_timeout_ms` steps down (§4.2).

#ifndef CCF_CONSENSUS_RAFT_H_
#define CCF_CONSENSUS_RAFT_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/types.h"
#include "crypto/hmac.h"
#include "observe/metrics.h"

namespace ccf::consensus {

struct RaftConfig {
  uint64_t election_timeout_min_ms = 150;
  uint64_t election_timeout_max_ms = 300;
  uint64_t heartbeat_interval_ms = 20;
  // Primary steps down if it cannot reach a majority for this long.
  uint64_t primary_quiesce_timeout_ms = 600;
  // Max entries per append_entries message.
  size_t max_batch_entries = 100;
  // Seed for the election-timeout jitter (deterministic runs).
  uint64_t seed = 0;
};

// Callbacks implemented by the node layer.
class RaftCallbacks {
 public:
  virtual ~RaftCallbacks() = default;

  // A remote-originated entry was appended to the local log (backup path).
  // The node layer applies it to its KV store, ledger, and Merkle tree.
  virtual void OnAppend(const LogEntry& entry) = 0;
  // A contiguous run of remote-originated entries was appended in one
  // AppendEntries message, delivered together after the last one is in the
  // log. Default: per-entry delivery. The node layer overrides this to
  // batch the Merkle/ledger work.
  virtual void OnAppendBatch(const std::vector<const LogEntry*>& entries) {
    for (const LogEntry* entry : entries) OnAppend(*entry);
  }
  // The log was rolled back: discard everything with seqno > `seqno`.
  virtual void OnRollback(uint64_t seqno) = 0;
  // The commit sequence number advanced.
  virtual void OnCommit(uint64_t seqno) = 0;
  // Role or view changed. A new primary is expected to replicate a fresh
  // signature transaction immediately (paper §4.2).
  virtual void OnRoleChange(Role role, uint64_t view) = 0;
  // Outbound message transport (node-to-node channels).
  virtual void Send(const NodeId& to, const Message& msg) = 0;
};

class RaftNode {
 public:
  // A node of a fresh service. `initial_nodes` is the configuration at
  // seqno 0. If `start_as_primary` (the genesis node of a new service,
  // paper §5: service start), the node assumes the primary role of view 1
  // immediately.
  RaftNode(NodeId id, RaftConfig config, std::set<NodeId> initial_nodes,
           bool start_as_primary, RaftCallbacks* callbacks);

  // A node joining from a snapshot at (base_view, base_seqno), with the
  // active configurations recorded in that snapshot.
  static RaftNode Joiner(NodeId id, RaftConfig config, uint64_t base_view,
                         uint64_t base_seqno,
                         std::vector<Configuration> configs,
                         RaftCallbacks* callbacks);

  // ---------------------------------------------------------- Driving

  void Tick(uint64_t now_ms);
  void Receive(const Message& msg, uint64_t now_ms);

  // ------------------------------------------------------ Primary API

  // Appends the next entry to the primary's log and schedules replication.
  // `data` is the serialized ledger entry; seqno must be last_seqno()+1.
  // Fails unless this node is the primary.
  Status Replicate(uint64_t seqno, std::shared_ptr<const Bytes> data,
                   bool is_signature,
                   std::optional<Configuration> reconfig = std::nullopt);

  // ----------------------------------------------------------- State

  const NodeId& id() const { return id_; }
  Role role() const { return role_; }
  bool IsPrimary() const { return role_ == Role::kPrimary; }
  uint64_t view() const { return view_; }
  std::optional<NodeId> leader() const { return leader_; }
  uint64_t last_seqno() const { return base_seqno_ + log_.size(); }
  uint64_t base_seqno() const { return base_seqno_; }
  uint64_t commit_seqno() const { return commit_seqno_; }
  TxId last_signature() const { return {last_sig_view_, last_sig_seqno_}; }

  // The active configurations, current first (paper §4.4).
  const std::vector<Configuration>& active_configs() const {
    return active_configs_;
  }
  // Union of nodes across active configurations.
  std::set<NodeId> AllNodes() const;
  // Whether this node is a member of any active configuration.
  bool InActiveConfig() const;

  // Transaction status (paper Figure 4).
  TxStatus GetTxStatus(uint64_t view, uint64_t seqno) const;
  // Every role transition this node went through, in order. Lets an
  // external checker assert election safety (at most one primary per view)
  // even for primaries that stepped down between observations.
  struct RoleEvent {
    uint64_t time_ms;
    uint64_t view;
    Role role;
  };
  const std::vector<RoleEvent>& role_history() const { return role_history_; }
  // View history: (view, start seqno) pairs, ascending.
  const std::vector<std::pair<uint64_t, uint64_t>>& view_history() const {
    return view_history_;
  }

  const LogEntry* GetLogEntry(uint64_t seqno) const;

  // Learners: peers outside every configuration that the primary keeps
  // replicating to (retiring nodes learning their own retirement, §4.5).
  void AddLearner(const NodeId& peer);
  void RemoveLearner(const NodeId& peer) { learners_.erase(peer); }
  const std::set<NodeId>& learners() const { return learners_; }
  // True when a peer's log and commit knowledge match ours.
  bool PeerCaughtUp(const NodeId& peer) const;

  // ------------------------------------------------- Log compaction

  // Drops in-memory log entries at or below `seqno` (clamped to the commit
  // point), re-basing the log the way a snapshot-bootstrapped joiner
  // starts: seqnos <= base answer from (base_view, base_seqno). A
  // long-lived primary calls this once every peer's match index has passed
  // its snapshot horizon, so the log stops growing without bound.
  void CompactTo(uint64_t seqno);

  // Re-bases this node onto a verified snapshot at (view, seqno),
  // discarding the local log. Used for snapshot-based catch-up: a laggard
  // whose next needed entry fell below the primary's compacted base cannot
  // be served from the log and installs the snapshot instead (the node
  // layer has already verified and applied the matching KV state). No-op
  // unless seqno is ahead of the local commit point.
  void InstallSnapshot(uint64_t seqno, uint64_t view,
                       std::vector<Configuration> configs);

  // Smallest match index across every replication target (configured
  // peers, learners, and retiring nodes still being streamed to);
  // last_seqno() when there are no peers. Only meaningful on the primary.
  uint64_t MinPeerMatch() const;

  // Peers whose append_entries backoff hit the compacted log base: the log
  // cannot serve them and only a snapshot can. Maintained on the primary
  // (flagged on a failed response hinting below base, cleared on success).
  const std::set<NodeId>& peers_needing_snapshot() const {
    return needs_snapshot_;
  }

  // Force an immediate election on the next tick (testing / operator).
  void ForceElectionTimeout() { election_deadline_ms_ = 0; }

  // Test-only: installs a log wholesale (used to reproduce the paper's
  // Figure 5 / Table 2 scenarios). Resets derived state accordingly.
  void TestInstallLog(std::vector<LogEntry> entries, uint64_t view);

  // Registers consensus metrics (elections, primary transitions, view and
  // commit gauges, append batch sizes, submit->commit latency in virtual
  // ms). Metrics are write-only -- nothing here feeds back into protocol
  // decisions, so instrumented and unbound nodes behave identically.
  void BindMetrics(observe::Registry* reg);

 private:
  RaftNode(NodeId id, RaftConfig config, RaftCallbacks* callbacks);

  // Role transitions.
  void BecomeBackup(uint64_t view);
  void BecomeCandidate();
  void BecomePrimary();

  void HandleAppendEntries(const NodeId& from, const AppendEntriesReq& req);
  void HandleAppendEntriesResp(const NodeId& from,
                               const AppendEntriesResp& resp);
  void HandleRequestVote(const NodeId& from, const RequestVoteReq& req);
  void HandleRequestVoteResp(const NodeId& from, const RequestVoteResp& resp);

  void AppendToLog(LogEntry entry, bool remote_origin);
  void TruncateLog(uint64_t seqno);
  void AdvanceCommitAsPrimary();
  void SetCommit(uint64_t seqno);
  void RetireOldConfigs();
  void SendAppendEntries(const NodeId& peer);
  void BroadcastAppendEntries(bool force);
  bool HaveQuorumInEveryConfig(
      const std::function<bool(const NodeId&)>& counted) const;
  void ResetElectionTimer();
  bool MayStartElection() const;

  uint64_t ViewAt(uint64_t seqno) const;  // from view history
  const LogEntry& EntryAt(uint64_t seqno) const;

  NodeId id_;
  RaftConfig cfg_;
  RaftCallbacks* cb_;
  crypto::Drbg rng_;

  Role role_ = Role::kBackup;
  uint64_t view_ = 0;
  std::optional<NodeId> voted_for_;
  uint64_t voted_in_view_ = 0;
  std::optional<NodeId> leader_;

  // Log entries for seqnos (base_seqno_, base_seqno_ + log_.size()].
  std::vector<LogEntry> log_;
  uint64_t base_seqno_ = 0;
  uint64_t base_view_ = 0;
  uint64_t commit_seqno_ = 0;
  uint64_t last_sig_seqno_ = 0;
  uint64_t last_sig_view_ = 0;

  std::vector<Configuration> active_configs_;
  std::vector<std::pair<uint64_t, uint64_t>> view_history_;  // (view, start)
  std::vector<RoleEvent> role_history_;

  // Election state.
  uint64_t now_ms_ = 0;
  uint64_t election_deadline_ms_ = 0;
  uint64_t last_leader_contact_ms_ = 0;
  std::set<NodeId> votes_granted_;
  std::set<NodeId> learners_;
  std::set<NodeId> needs_snapshot_;  // primary-side laggard flags

  // Primary state. next_seqno_ is an optimistic send pointer: it moves past
  // each batch when the batch is sent, not when it is acknowledged, so each
  // entry goes to each peer once. A success only moves it forward (to at
  // least match + 1); a NACK rewinds it to the backup's hint. A lost
  // message needs no timer: the next one's prev_seqno runs past the
  // backup's log, and the backup NACKs.
  std::map<NodeId, uint64_t> next_seqno_;
  std::map<NodeId, uint64_t> match_seqno_;
  std::map<NodeId, uint64_t> peer_commit_;
  std::map<NodeId, uint64_t> last_response_ms_;
  std::map<NodeId, uint64_t> last_sent_ms_;
  uint64_t became_primary_ms_ = 0;

  // Observability (null until BindMetrics; every use is null-guarded).
  observe::Counter* m_elections_ = nullptr;
  observe::Counter* m_became_primary_ = nullptr;
  observe::Gauge* m_view_ = nullptr;
  observe::Gauge* m_commit_ = nullptr;
  observe::Histogram* m_append_batch_ = nullptr;
  observe::Histogram* m_commit_latency_ = nullptr;
  // Virtual-time submit stamps for entries this node replicated as
  // primary; drained into m_commit_latency_ when commit passes them,
  // pruned on rollback.
  std::map<uint64_t, uint64_t> submit_time_ms_;
};

}  // namespace ccf::consensus

#endif  // CCF_CONSENSUS_RAFT_H_
