// Test harness wiring consensus::RaftNode into the deterministic
// simulation environment, with invariant tracking used by the consensus
// property tests.

#ifndef CCF_TESTS_RAFT_HARNESS_H_
#define CCF_TESTS_RAFT_HARNESS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "consensus/raft.h"
#include "crypto/sha256.h"
#include "sim/environment.h"
#include "sim/invariants.h"

namespace ccf::testing {

using consensus::Configuration;
using consensus::LogEntry;
using consensus::Message;
using consensus::NodeId;
using consensus::RaftConfig;
using consensus::RaftNode;
using consensus::Role;

inline RaftConfig FastRaftConfig(uint64_t seed = 0) {
  RaftConfig cfg;
  cfg.election_timeout_min_ms = 50;
  cfg.election_timeout_max_ms = 100;
  cfg.heartbeat_interval_ms = 10;
  cfg.primary_quiesce_timeout_ms = 200;
  cfg.seed = seed;
  return cfg;
}

// Records outbound messages; everything else is a no-op. For tests that
// drive a lone RaftNode by hand.
class RecordingCallbacks : public consensus::RaftCallbacks {
 public:
  void OnAppend(const LogEntry&) override {}
  void OnRollback(uint64_t) override {}
  void OnCommit(uint64_t) override {}
  void OnRoleChange(Role, uint64_t) override {}
  void Send(const NodeId& to, const Message& msg) override {
    sent.emplace_back(to, msg);
  }

  // The append_entries sent to `to` since the last call; clears `sent`.
  std::vector<consensus::AppendEntriesReq> TakeAppendsTo(const NodeId& to) {
    std::vector<consensus::AppendEntriesReq> out;
    for (const auto& [dest, msg] : sent) {
      const auto* ae = std::get_if<consensus::AppendEntriesReq>(&msg.body);
      if (dest == to && ae != nullptr) out.push_back(*ae);
    }
    sent.clear();
    return out;
  }

  std::vector<std::pair<NodeId, Message>> sent;
};

// A consensus node in the simulation. Emits a signature transaction every
// `signature_interval` entries and immediately upon becoming primary,
// standing in for the node layer.
class RaftTestNode : public consensus::RaftCallbacks {
 public:
  RaftTestNode(NodeId id, RaftConfig cfg, std::set<NodeId> initial,
               bool start_as_primary, sim::Environment* env)
      : id_(id), env_(env) {
    raft_ = std::make_unique<RaftNode>(id, cfg, std::move(initial),
                                       start_as_primary, this);
    env_->Register(
        id,
        [this](const std::string& from, ByteSpan bytes) {
          auto msg = Message::Deserialize(bytes);
          if (msg.ok()) raft_->Receive(*msg, env_->now_ms());
          (void)from;
        },
        [this](uint64_t now) {
          if (need_signature_ && raft_->IsPrimary()) {
            need_signature_ = false;
            ReplicateSignature();
          }
          raft_->Tick(now);
        });
    if (start_as_primary) need_signature_ = true;
  }

  // A node joining from a snapshot base (paper §4.4).
  RaftTestNode(NodeId id, RaftConfig cfg, uint64_t base_view,
               uint64_t base_seqno, std::vector<Configuration> configs,
               sim::Environment* env)
      : id_(id), env_(env) {
    raft_ = std::make_unique<RaftNode>(RaftNode::Joiner(
        id, cfg, base_view, base_seqno, std::move(configs), this));
    env_->Register(
        id,
        [this](const std::string& from, ByteSpan bytes) {
          auto msg = Message::Deserialize(bytes);
          if (msg.ok()) raft_->Receive(*msg, env_->now_ms());
          (void)from;
        },
        [this](uint64_t now) {
          if (need_signature_ && raft_->IsPrimary()) {
            need_signature_ = false;
            ReplicateSignature();
          }
          raft_->Tick(now);
        });
  }

  RaftNode& raft() { return *raft_; }
  const RaftNode& raft() const { return *raft_; }
  const NodeId& id() const { return id_; }

  // --------------------------------------------------- primary helpers

  Status ReplicateUser(const std::string& payload) {
    auto data = std::make_shared<const Bytes>(ToBytes(payload));
    Status s = raft_->Replicate(raft_->last_seqno() + 1, data,
                                /*is_signature=*/false);
    if (s.ok()) {
      ++entries_since_signature_;
      if (entries_since_signature_ >= signature_interval_) {
        ReplicateSignature();
      }
    }
    return s;
  }

  Status ReplicateSignature() {
    auto data = std::make_shared<const Bytes>(
        ToBytes("sig@" + std::to_string(raft_->last_seqno() + 1)));
    Status s = raft_->Replicate(raft_->last_seqno() + 1, data,
                                /*is_signature=*/true);
    if (s.ok()) entries_since_signature_ = 0;
    return s;
  }

  Status ReplicateReconfig(std::set<NodeId> nodes) {
    uint64_t seqno = raft_->last_seqno() + 1;
    auto data = std::make_shared<const Bytes>(ToBytes("reconfig"));
    Status s = raft_->Replicate(seqno, data, /*is_signature=*/false,
                                Configuration{seqno, std::move(nodes)});
    if (s.ok()) ReplicateSignature();
    return s;
  }

  void set_signature_interval(size_t n) { signature_interval_ = n; }

  // ------------------------------------------------- recorded history

  // Commit records: seqno -> (view, payload digest). Monotone, append-only.
  const std::map<uint64_t, std::pair<uint64_t, crypto::Sha256Digest>>&
  committed() const {
    return committed_;
  }
  size_t rollbacks() const { return rollbacks_; }
  const std::vector<std::pair<Role, uint64_t>>& role_changes() const {
    return role_changes_;
  }
  bool committed_record_violated() const { return committed_violated_; }

  // ------------------------------------------------ RaftCallbacks

  void OnAppend(const LogEntry&) override {}
  void OnRollback(uint64_t) override { ++rollbacks_; }
  void OnCommit(uint64_t seqno) override {
    for (uint64_t s = last_commit_recorded_ + 1; s <= seqno; ++s) {
      const LogEntry* e = raft_->GetLogEntry(s);
      if (e == nullptr) continue;  // compacted on a joiner
      auto digest = crypto::Sha256::Hash(*e->data);
      auto [it, inserted] = committed_.emplace(
          s, std::make_pair(e->view, digest));
      if (!inserted &&
          (it->second.first != e->view || it->second.second != digest)) {
        committed_violated_ = true;  // a committed entry changed!
      }
    }
    last_commit_recorded_ = seqno;
  }
  void OnRoleChange(Role role, uint64_t view) override {
    role_changes_.emplace_back(role, view);
    if (role == Role::kPrimary) need_signature_ = true;
  }
  void Send(const NodeId& to, const Message& msg) override {
    if (const auto* ae = std::get_if<consensus::AppendEntriesReq>(&msg.body)) {
      if (!ae->entries.empty() && drop_next_append_to_ == to) {
        drop_next_append_to_.clear();  // lost on the wire
        return;
      }
      entries_sent_ += ae->entries.size();
    } else if (const auto* r =
                   std::get_if<consensus::AppendEntriesResp>(&msg.body)) {
      if (!r->success) ++nacks_sent_;
    }
    env_->Send(id_, to, msg.Serialize());
  }

  // Loses the next non-empty append_entries this node sends to `to`.
  void DropNextAppendEntriesTo(const NodeId& to) { drop_next_append_to_ = to; }
  // Log entries carried by the append_entries this node sent (dropped
  // ones excluded).
  size_t entries_sent() const { return entries_sent_; }
  // Failed append_entries responses this node sent.
  size_t nacks_sent() const { return nacks_sent_; }

 private:
  NodeId id_;
  sim::Environment* env_;
  std::unique_ptr<RaftNode> raft_;
  size_t signature_interval_ = 5;
  size_t entries_since_signature_ = 0;
  bool need_signature_ = false;
  NodeId drop_next_append_to_;
  size_t entries_sent_ = 0;
  size_t nacks_sent_ = 0;

  std::map<uint64_t, std::pair<uint64_t, crypto::Sha256Digest>> committed_;
  uint64_t last_commit_recorded_ = 0;
  size_t rollbacks_ = 0;
  bool committed_violated_ = false;
  std::vector<std::pair<Role, uint64_t>> role_changes_;
};

// A cluster of RaftTestNodes over one simulated network.
class RaftCluster {
 public:
  RaftCluster(int n, sim::EnvOptions env_options = {}, uint64_t seed = 0)
      : env_(env_options) {
    std::set<NodeId> initial;
    for (int i = 0; i < n; ++i) initial.insert(Name(i));
    for (int i = 0; i < n; ++i) {
      nodes_[Name(i)] = std::make_unique<RaftTestNode>(
          Name(i), FastRaftConfig(seed + i), initial,
          /*start_as_primary=*/false, &env_);
    }
  }

  static NodeId Name(int i) { return "n" + std::to_string(i); }

  sim::Environment& env() { return env_; }
  RaftTestNode& node(int i) { return *nodes_.at(Name(i)); }
  RaftTestNode& node(const NodeId& id) { return *nodes_.at(id); }
  std::map<NodeId, std::unique_ptr<RaftTestNode>>& nodes() { return nodes_; }

  void AddNode(const NodeId& id, std::unique_ptr<RaftTestNode> node) {
    nodes_[id] = std::move(node);
  }

  // Returns the live primary with the highest view, or nullptr.
  RaftTestNode* GetPrimary() {
    RaftTestNode* best = nullptr;
    for (auto& [id, node] : nodes_) {
      if (!env_.IsUp(id)) continue;
      if (node->raft().IsPrimary() &&
          (best == nullptr || node->raft().view() > best->raft().view())) {
        best = node.get();
      }
    }
    return best;
  }

  // Runs until a primary exists that a majority of live nodes follow.
  RaftTestNode* WaitForPrimary(uint64_t timeout_ms = 5000) {
    RaftTestNode* primary = nullptr;
    env_.RunUntil(
        [&] {
          primary = GetPrimary();
          if (primary == nullptr) return false;
          // A majority in the primary's current config agrees on the view.
          size_t agree = 0;
          const auto& cfg = primary->raft().active_configs().front();
          for (const NodeId& id : cfg.nodes) {
            auto it = nodes_.find(id);
            if (it == nodes_.end() || !env_.IsUp(id)) continue;
            if (it->second->raft().view() == primary->raft().view()) ++agree;
          }
          return agree >= cfg.nodes.size() / 2 + 1;
        },
        timeout_ms);
    return GetPrimary();
  }

  // Runs until `seqno` is committed on all live nodes in the current config.
  bool WaitForCommitEverywhere(uint64_t seqno, uint64_t timeout_ms = 5000) {
    return env_.RunUntil(
        [&] {
          for (auto& [id, node] : nodes_) {
            if (!env_.IsUp(id)) continue;
            if (!node->raft().InActiveConfig()) continue;
            if (node->raft().commit_seqno() < seqno) return false;
          }
          return true;
        },
        timeout_ms);
  }

  // ------------------------------------------------------- invariants

  // Committed prefix agreement: any two nodes' committed records agree.
  bool CommittedPrefixesAgree() const {
    std::map<uint64_t, std::pair<uint64_t, crypto::Sha256Digest>> global;
    for (const auto& [id, node] : nodes_) {
      if (node->committed_record_violated()) return false;
      for (const auto& [seqno, rec] : node->committed()) {
        auto [it, inserted] = global.emplace(seqno, rec);
        if (!inserted && it->second != rec) return false;
      }
    }
    return true;
  }

  // At most one node ever became primary in any given view.
  bool AtMostOnePrimaryPerView() const {
    std::map<uint64_t, NodeId> primaries;
    for (const auto& [id, node] : nodes_) {
      for (const auto& [role, view] : node->role_changes()) {
        if (role != Role::kPrimary) continue;
        auto [it, inserted] = primaries.emplace(view, id);
        if (!inserted && it->second != id) return false;
      }
    }
    return true;
  }

  // Log matching: if two logs contain an entry with the same (view, seqno),
  // the payloads match.
  bool LogsMatch() const {
    std::map<std::pair<uint64_t, uint64_t>, crypto::Sha256Digest> seen;
    for (const auto& [id, node] : nodes_) {
      const auto& raft = node->raft();
      for (uint64_t s = 1; s <= raft.last_seqno(); ++s) {
        const LogEntry* e = raft.GetLogEntry(s);
        if (e == nullptr) continue;
        auto key = std::make_pair(e->view, e->seqno);
        auto digest = crypto::Sha256::Hash(*e->data);
        auto [it, inserted] = seen.emplace(key, digest);
        if (!inserted && it->second != digest) return false;
      }
    }
    return true;
  }

  bool AllInvariantsHold() const {
    return CommittedPrefixesAgree() && AtMostOnePrimaryPerView() &&
           LogsMatch();
  }

  // Wires a per-step InvariantChecker over every current node and attaches
  // it to the environment. Call again after AddNode to track newcomers.
  sim::InvariantChecker& EnableInvariantChecker() {
    for (auto& [id, node] : nodes_) {
      checker_.Track(id, &node->raft());
    }
    checker_.Attach(&env_);
    return checker_;
  }
  sim::InvariantChecker& checker() { return checker_; }

 private:
  sim::Environment env_;
  std::map<NodeId, std::unique_ptr<RaftTestNode>> nodes_;
  sim::InvariantChecker checker_;
};

}  // namespace ccf::testing

#endif  // CCF_TESTS_RAFT_HARNESS_H_
