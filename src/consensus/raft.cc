#include "consensus/raft.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "common/logging.h"

namespace ccf::consensus {

namespace {
size_t MajorityOf(size_t n) { return n / 2 + 1; }
}  // namespace

RaftNode::RaftNode(NodeId id, RaftConfig config, RaftCallbacks* callbacks)
    : id_(std::move(id)),
      cfg_(config),
      cb_(callbacks),
      rng_("raft-" + id_, config.seed) {}

RaftNode::RaftNode(NodeId id, RaftConfig config, std::set<NodeId> initial_nodes,
                   bool start_as_primary, RaftCallbacks* callbacks)
    : RaftNode(std::move(id), config, callbacks) {
  active_configs_.push_back(Configuration{0, std::move(initial_nodes)});
  ResetElectionTimer();
  if (start_as_primary) {
    view_ = 1;
    view_history_.emplace_back(view_, 1);
    role_ = Role::kPrimary;
    leader_ = id_;
    became_primary_ms_ = 0;
    role_history_.push_back(RoleEvent{0, view_, role_});
    cb_->OnRoleChange(role_, view_);
  }
}

RaftNode RaftNode::Joiner(NodeId id, RaftConfig config, uint64_t base_view,
                          uint64_t base_seqno,
                          std::vector<Configuration> configs,
                          RaftCallbacks* callbacks) {
  RaftNode node(std::move(id), config, callbacks);
  node.base_seqno_ = base_seqno;
  node.base_view_ = base_view;
  node.commit_seqno_ = base_seqno;  // the snapshot only covers commits
  node.view_ = base_view;
  // Snapshots are taken at commit points, which are always at or after a
  // signature transaction (paper §3.2).
  node.last_sig_seqno_ = base_seqno;
  node.last_sig_view_ = base_view;
  node.active_configs_ = std::move(configs);
  if (base_view > 0) {
    // Coarse history: everything up to the base is attributed to base_view;
    // statuses below the base are answered as Committed/Invalid by seqno.
    node.view_history_.emplace_back(base_view, 1);
  }
  node.ResetElectionTimer();
  return node;
}

// ----------------------------------------------------------------- Timers

void RaftNode::ResetElectionTimer() {
  uint64_t span = cfg_.election_timeout_max_ms - cfg_.election_timeout_min_ms;
  uint64_t jitter = span > 0 ? rng_.Uniform(span + 1) : 0;
  election_deadline_ms_ = now_ms_ + cfg_.election_timeout_min_ms + jitter;
}

bool RaftNode::MayStartElection() const {
  // Paper §4.4: a newly added node participates in consensus (including
  // elections) once it has appended the first signature transaction
  // following the reconfiguration transaction that added it. The initial
  // configuration (seqno 0) is exempt to allow bootstrap.
  for (const Configuration& cfg : active_configs_) {
    if (cfg.nodes.count(id_) == 0) continue;
    if (cfg.seqno == 0) return true;
    if (last_sig_seqno_ > cfg.seqno) return true;
  }
  return false;
}

void RaftNode::Tick(uint64_t now_ms) {
  now_ms_ = std::max(now_ms_, now_ms);

  switch (role_) {
    case Role::kBackup:
    case Role::kCandidate:
      if (now_ms_ >= election_deadline_ms_ && MayStartElection()) {
        BecomeCandidate();
      }
      break;
    case Role::kPrimary: {
      // Paper §4.5: once the reconfiguration transaction removing this
      // primary from every active configuration has committed, it stops
      // sending heartbeats and steps down, but remains online replicating
      // its ledger and voting for new primaries.
      if (!InActiveConfig()) {
        LOG_INFO << id_ << " retired from configuration, stepping down";
        BecomeBackup(view_);
        return;
      }
      // Step down if a majority is unreachable (paper §4.2: a primary that
      // cannot make progress steps down cleanly).
      auto responded_recently = [&](const NodeId& n) {
        if (n == id_) return true;
        auto it = last_response_ms_.find(n);
        uint64_t last = it != last_response_ms_.end() ? it->second
                                                      : became_primary_ms_;
        return now_ms_ - last <= cfg_.primary_quiesce_timeout_ms;
      };
      if (!HaveQuorumInEveryConfig(responded_recently)) {
        LOG_INFO << id_ << " primary quiesced, stepping down in view "
                 << view_;
        BecomeBackup(view_);
        return;
      }
      BroadcastAppendEntries(/*force=*/false);
      break;
    }
  }
}

void RaftNode::BindMetrics(observe::Registry* reg) {
  m_elections_ = reg->GetCounter("consensus.elections");
  m_became_primary_ = reg->GetCounter("consensus.became_primary");
  m_view_ = reg->GetGauge("consensus.view");
  m_commit_ = reg->GetGauge("consensus.commit_seqno");
  m_append_batch_ = reg->GetHistogram("consensus.append_batch_entries");
  m_commit_latency_ = reg->GetHistogram("consensus.commit_latency_ms");
  m_view_->Set(view_);
  m_commit_->Set(commit_seqno_);
}

// ------------------------------------------------------------ Transitions

void RaftNode::BecomeBackup(uint64_t view) {
  bool changed = role_ != Role::kBackup || view != view_;
  view_ = view;
  role_ = Role::kBackup;
  if (m_view_ != nullptr) m_view_->Set(view_);
  votes_granted_.clear();
  ResetElectionTimer();
  if (changed) {
    role_history_.push_back(RoleEvent{now_ms_, view_, role_});
    cb_->OnRoleChange(role_, view_);
  }
}

void RaftNode::BecomeCandidate() {
  role_ = Role::kCandidate;
  ++view_;
  if (m_elections_ != nullptr) m_elections_->Inc();
  if (m_view_ != nullptr) m_view_->Set(view_);
  leader_.reset();
  voted_for_ = id_;
  voted_in_view_ = view_;
  votes_granted_ = {id_};
  ResetElectionTimer();
  LOG_DEBUG << id_ << " starts election in view " << view_;
  role_history_.push_back(RoleEvent{now_ms_, view_, role_});
  cb_->OnRoleChange(role_, view_);

  RequestVoteReq req;
  req.view = view_;
  req.last_sig_view = last_sig_view_;
  req.last_sig_seqno = last_sig_seqno_;
  for (const NodeId& peer : AllNodes()) {
    if (peer == id_) continue;
    cb_->Send(peer, Message{id_, req});
  }
  // Single-node configurations win instantly.
  if (HaveQuorumInEveryConfig(
          [&](const NodeId& n) { return votes_granted_.count(n) > 0; })) {
    BecomePrimary();
  }
}

void RaftNode::BecomePrimary() {
  LOG_INFO << id_ << " becomes primary in view " << view_;
  role_ = Role::kPrimary;
  leader_ = id_;
  became_primary_ms_ = now_ms_;
  if (m_became_primary_ != nullptr) m_became_primary_->Inc();
  role_history_.push_back(RoleEvent{now_ms_, view_, role_});

  // Paper §4.2: the new primary discards any transactions after its last
  // signature transaction.
  if (last_seqno() > last_sig_seqno_) {
    TruncateLog(last_sig_seqno_);
  }

  next_seqno_.clear();
  match_seqno_.clear();
  last_response_ms_.clear();
  last_sent_ms_.clear();
  needs_snapshot_.clear();
  for (const NodeId& peer : AllNodes()) {
    if (peer == id_) continue;
    next_seqno_[peer] = last_seqno() + 1;
    match_seqno_[peer] = 0;
    last_response_ms_[peer] = now_ms_;
  }

  // The node layer replicates a fresh signature transaction now: "the new
  // view will begin with a signature transaction" (§4.2).
  cb_->OnRoleChange(role_, view_);
  BroadcastAppendEntries(/*force=*/true);
}

// ------------------------------------------------------------------- Log

uint64_t RaftNode::ViewAt(uint64_t seqno) const {
  if (seqno == 0) return 0;
  if (seqno <= base_seqno_) return base_view_;
  uint64_t v = 0;
  for (const auto& [view, start] : view_history_) {
    if (start <= seqno) v = view;
  }
  return v;
}

const LogEntry& RaftNode::EntryAt(uint64_t seqno) const {
  assert(seqno > base_seqno_ && seqno <= last_seqno());
  return log_[seqno - base_seqno_ - 1];
}

const LogEntry* RaftNode::GetLogEntry(uint64_t seqno) const {
  if (seqno <= base_seqno_ || seqno > last_seqno()) return nullptr;
  return &log_[seqno - base_seqno_ - 1];
}

void RaftNode::AppendToLog(LogEntry entry, bool remote_origin) {
  assert(entry.seqno == last_seqno() + 1);
  if (view_history_.empty() || view_history_.back().first < entry.view) {
    view_history_.emplace_back(entry.view, entry.seqno);
  }
  if (entry.is_signature) {
    last_sig_seqno_ = entry.seqno;
    last_sig_view_ = entry.view;
  }
  if (entry.reconfig.has_value()) {
    // Paper §4.4: a configuration becomes active as soon as the
    // reconfiguration transaction is appended.
    active_configs_.push_back(*entry.reconfig);
    if (role_ == Role::kPrimary) {
      for (const NodeId& peer : entry.reconfig->nodes) {
        if (peer == id_ || next_seqno_.count(peer) > 0) continue;
        next_seqno_[peer] = entry.seqno;  // new joiner; back off as needed
        match_seqno_[peer] = 0;
        last_response_ms_[peer] = now_ms_;
      }
    }
  }
  log_.push_back(std::move(entry));
  if (remote_origin) cb_->OnAppend(log_.back());
}

void RaftNode::TruncateLog(uint64_t seqno) {
  assert(seqno >= base_seqno_);
  assert(seqno >= commit_seqno_);
  if (seqno >= last_seqno()) return;
  log_.resize(seqno - base_seqno_);
  // Rebuild derived state.
  while (!view_history_.empty() && view_history_.back().second > seqno) {
    view_history_.pop_back();
  }
  // Rolled-back reconfigurations are removed (paper §4.4); at least the
  // current (committed or initial) configuration always remains.
  while (active_configs_.size() > 1 && active_configs_.back().seqno > seqno) {
    active_configs_.pop_back();
  }
  last_sig_seqno_ = 0;
  last_sig_view_ = 0;
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->is_signature) {
      last_sig_seqno_ = it->seqno;
      last_sig_view_ = it->view;
      break;
    }
  }
  if (last_sig_seqno_ == 0 && base_seqno_ > 0) {
    // The snapshot base is always at or after a signature.
    last_sig_seqno_ = base_seqno_;
    last_sig_view_ = base_view_;
  }
  // Rolled-back entries will never commit under our stamp.
  submit_time_ms_.erase(submit_time_ms_.upper_bound(seqno),
                        submit_time_ms_.end());
  cb_->OnRollback(seqno);
}

void RaftNode::CompactTo(uint64_t seqno) {
  // Never drop uncommitted entries: they may still be rolled back, and
  // TruncateLog cannot cut below the base.
  seqno = std::min(seqno, commit_seqno_);
  if (seqno <= base_seqno_) return;
  // Capture the view before erasing: ViewAt answers from view_history_,
  // which is preserved across compaction (GetTxStatus still needs it).
  base_view_ = ViewAt(seqno);
  log_.erase(log_.begin(),
             log_.begin() + static_cast<ptrdiff_t>(seqno - base_seqno_));
  base_seqno_ = seqno;
}

void RaftNode::InstallSnapshot(uint64_t seqno, uint64_t view,
                               std::vector<Configuration> configs) {
  if (seqno <= commit_seqno_) return;
  // Mirror the Joiner bootstrap: the snapshot covers only committed state,
  // taken at or after a signature transaction (paper §3.2 / §5).
  log_.clear();
  base_seqno_ = seqno;
  base_view_ = view;
  commit_seqno_ = seqno;
  last_sig_seqno_ = seqno;
  last_sig_view_ = view;
  if (!configs.empty()) active_configs_ = std::move(configs);
  view_history_.clear();
  if (view > 0) {
    // Coarse history, as for a joiner: everything up to the base is
    // attributed to the snapshot's view.
    view_history_.emplace_back(view, 1);
  }
  view_ = std::max(view_, view);
  submit_time_ms_.clear();
  if (m_commit_ != nullptr) m_commit_->Set(commit_seqno_);
  if (m_view_ != nullptr) m_view_->Set(view_);
  ResetElectionTimer();
}

uint64_t RaftNode::MinPeerMatch() const {
  uint64_t min_match = last_seqno();
  auto consider = [&](const NodeId& peer) {
    if (peer == id_) return;
    auto it = match_seqno_.find(peer);
    min_match = std::min(
        min_match, it != match_seqno_.end() ? it->second : uint64_t{0});
  };
  for (const NodeId& peer : AllNodes()) consider(peer);
  for (const NodeId& peer : learners_) consider(peer);
  // Retiring nodes still being streamed to (tracked in the match map but
  // outside every configuration) hold compaction back too.
  for (const auto& [peer, match] : match_seqno_) consider(peer);
  return min_match;
}

// ---------------------------------------------------------------- Quorums

std::set<NodeId> RaftNode::AllNodes() const {
  std::set<NodeId> all;
  for (const Configuration& cfg : active_configs_) {
    all.insert(cfg.nodes.begin(), cfg.nodes.end());
  }
  return all;
}

bool RaftNode::InActiveConfig() const {
  for (const Configuration& cfg : active_configs_) {
    if (cfg.nodes.count(id_) > 0) return true;
  }
  return false;
}

bool RaftNode::HaveQuorumInEveryConfig(
    const std::function<bool(const NodeId&)>& counted) const {
  for (const Configuration& cfg : active_configs_) {
    size_t count = 0;
    for (const NodeId& n : cfg.nodes) {
      if (counted(n)) ++count;
    }
    if (count < MajorityOf(cfg.nodes.size())) return false;
  }
  return true;
}

// -------------------------------------------------------------- Primary

Status RaftNode::Replicate(uint64_t seqno, std::shared_ptr<const Bytes> data,
                           bool is_signature,
                           std::optional<Configuration> reconfig) {
  if (role_ != Role::kPrimary) {
    return Status::FailedPrecondition("raft: not the primary");
  }
  if (seqno != last_seqno() + 1) {
    return Status::InvalidArgument("raft: non-contiguous replicate");
  }
  LogEntry entry;
  entry.view = view_;
  entry.seqno = seqno;
  entry.is_signature = is_signature;
  entry.reconfig = std::move(reconfig);
  entry.data = std::move(data);
  AppendToLog(std::move(entry), /*remote_origin=*/false);
  if (m_commit_latency_ != nullptr) submit_time_ms_[seqno] = now_ms_;

  // Signature transactions flush eagerly (they gate commit latency).
  // Regular entries go out with the next message to each peer: a
  // heartbeat, a signature flush, or the ack-driven stream (each
  // successful append_entries response sends whatever was appended since
  // the last send). Each entry is sent to each peer once.
  if (is_signature) {
    BroadcastAppendEntries(/*force=*/true);
  }
  // Single-node configurations commit immediately.
  AdvanceCommitAsPrimary();
  return Status::Ok();
}

void RaftNode::AddLearner(const NodeId& peer) {
  if (peer == id_) return;
  learners_.insert(peer);
  if (role_ == Role::kPrimary && next_seqno_.count(peer) == 0) {
    next_seqno_[peer] = last_seqno() + 1;
    match_seqno_[peer] = 0;
    last_response_ms_[peer] = now_ms_;
  }
}

bool RaftNode::PeerCaughtUp(const NodeId& peer) const {
  auto it = match_seqno_.find(peer);
  if (it == match_seqno_.end() || it->second < last_seqno()) return false;
  if (commit_seqno_ < last_seqno()) return false;
  auto cit = peer_commit_.find(peer);
  return cit != peer_commit_.end() && cit->second >= last_seqno();
}

void RaftNode::BroadcastAppendEntries(bool force) {
  std::set<NodeId> targets = AllNodes();
  for (const NodeId& learner : learners_) {
    targets.insert(learner);
    if (next_seqno_.count(learner) == 0) {
      next_seqno_[learner] = last_seqno() + 1;
      match_seqno_[learner] = 0;
      last_response_ms_[learner] = now_ms_;
    }
  }
  // Nodes removed by a committed reconfiguration keep receiving entries
  // until they have caught up, so a retiring node learns that its own
  // retirement committed before shutting down (paper §4.5).
  for (auto it = match_seqno_.begin(); it != match_seqno_.end();) {
    const NodeId& peer = it->first;
    if (targets.count(peer) > 0) {
      ++it;
      continue;
    }
    if (PeerCaughtUp(peer)) {
      next_seqno_.erase(peer);
      last_response_ms_.erase(peer);
      last_sent_ms_.erase(peer);
      peer_commit_.erase(peer);
      it = match_seqno_.erase(it);
      continue;
    }
    targets.insert(peer);
    ++it;
  }
  for (const NodeId& peer : targets) {
    if (peer == id_) continue;
    auto it = last_sent_ms_.find(peer);
    bool due = force || it == last_sent_ms_.end() ||
               now_ms_ - it->second >= cfg_.heartbeat_interval_ms;
    if (due) SendAppendEntries(peer);
  }
}

void RaftNode::SendAppendEntries(const NodeId& peer) {
  uint64_t next = next_seqno_.count(peer) > 0 ? next_seqno_[peer]
                                              : last_seqno() + 1;
  next = std::max(next, base_seqno_ + 1);
  AppendEntriesReq req;
  req.view = view_;
  req.prev_seqno = next - 1;
  req.prev_view = ViewAt(next - 1);
  req.commit_seqno = commit_seqno_;
  uint64_t end = std::min(last_seqno(), next + cfg_.max_batch_entries - 1);
  for (uint64_t s = next; s <= end; ++s) {
    req.entries.push_back(EntryAt(s));
  }
  if (m_append_batch_ != nullptr) m_append_batch_->Record(req.entries.size());
  // Assume delivery (see next_seqno_): a loss surfaces as a NACK later.
  if (!req.entries.empty()) next_seqno_[peer] = end + 1;
  last_sent_ms_[peer] = now_ms_;
  cb_->Send(peer, Message{id_, req});
}

void RaftNode::AdvanceCommitAsPrimary() {
  if (role_ != Role::kPrimary) return;
  // Find the highest signature transaction of the current view that is
  // replicated to a majority of every active configuration.
  for (uint64_t s = last_sig_seqno_; s > commit_seqno_;) {
    const LogEntry* e = GetLogEntry(s);
    if (e == nullptr) break;
    if (e->is_signature && e->view == view_) {
      auto replicated = [&](const NodeId& n) {
        if (n == id_) return last_seqno() >= s;
        auto it = match_seqno_.find(n);
        return it != match_seqno_.end() && it->second >= s;
      };
      if (HaveQuorumInEveryConfig(replicated)) {
        SetCommit(s);
        return;
      }
    }
    // Walk back to the previous signature transaction.
    uint64_t prev = 0;
    for (uint64_t t = s - 1; t > commit_seqno_; --t) {
      const LogEntry* pe = GetLogEntry(t);
      if (pe != nullptr && pe->is_signature) {
        prev = t;
        break;
      }
    }
    if (prev == 0) break;
    s = prev;
  }
}

void RaftNode::SetCommit(uint64_t seqno) {
  if (seqno <= commit_seqno_) return;
  commit_seqno_ = seqno;
  if (m_commit_ != nullptr) m_commit_->Set(commit_seqno_);
  if (m_commit_latency_ != nullptr) {
    // Drain submit stamps up to the new commit point; virtual-time delta,
    // so the histogram is reproducible from the seed.
    auto it = submit_time_ms_.begin();
    while (it != submit_time_ms_.end() && it->first <= commit_seqno_) {
      m_commit_latency_->Record(now_ms_ - it->second);
      it = submit_time_ms_.erase(it);
    }
  }
  RetireOldConfigs();
  cb_->OnCommit(commit_seqno_);
}

void RaftNode::RetireOldConfigs() {
  // Paper §4.4: once a reconfiguration transaction is committed, all
  // earlier configurations are removed.
  size_t keep_from = 0;
  for (size_t i = 0; i < active_configs_.size(); ++i) {
    if (active_configs_[i].seqno <= commit_seqno_) keep_from = i;
  }
  if (keep_from > 0) {
    active_configs_.erase(active_configs_.begin(),
                          active_configs_.begin() + keep_from);
  }
}

// ------------------------------------------------------------- Receiving

void RaftNode::Receive(const Message& msg, uint64_t now_ms) {
  now_ms_ = std::max(now_ms_, now_ms);
  if (const auto* ae = std::get_if<AppendEntriesReq>(&msg.body)) {
    HandleAppendEntries(msg.from, *ae);
  } else if (const auto* resp = std::get_if<AppendEntriesResp>(&msg.body)) {
    HandleAppendEntriesResp(msg.from, *resp);
  } else if (const auto* rv = std::get_if<RequestVoteReq>(&msg.body)) {
    HandleRequestVote(msg.from, *rv);
  } else if (const auto* vr = std::get_if<RequestVoteResp>(&msg.body)) {
    HandleRequestVoteResp(msg.from, *vr);
  }
}

void RaftNode::HandleAppendEntries(const NodeId& from,
                                   const AppendEntriesReq& req) {
  if (req.view < view_) {
    // Stale primary: reply negatively with our view so it can update
    // itself (paper §4.2).
    AppendEntriesResp resp;
    resp.view = view_;
    resp.success = false;
    resp.match_seqno = last_seqno();
    resp.commit_seqno = commit_seqno_;
    cb_->Send(from, Message{id_, resp});
    return;
  }
  if (req.view > view_ || role_ != Role::kBackup) {
    BecomeBackup(req.view);
  }
  leader_ = from;
  last_leader_contact_ms_ = now_ms_;
  ResetElectionTimer();

  AppendEntriesResp resp;
  resp.view = view_;

  // Check the previous transaction ID (paper §4.1: "This check ensures
  // that if any two ledgers contain a transaction with the same ID then
  // the ledgers up to and including that transaction are identical").
  if (req.prev_seqno > last_seqno()) {
    resp.success = false;
    resp.match_seqno = last_seqno();  // latest possible common point
    resp.commit_seqno = commit_seqno_;
    cb_->Send(from, Message{id_, resp});
    return;
  }
  if (req.prev_seqno > base_seqno_ &&
      ViewAt(req.prev_seqno) != req.prev_view) {
    resp.success = false;
    resp.match_seqno = std::min(req.prev_seqno - 1, last_seqno());
    resp.commit_seqno = commit_seqno_;
    cb_->Send(from, Message{id_, resp});
    return;
  }

  uint64_t match = req.prev_seqno;
  uint64_t first_appended = 0;  // 0 = nothing fresh appended
  for (const LogEntry& entry : req.entries) {
    if (entry.seqno <= base_seqno_) {
      match = std::max(match, entry.seqno);
      continue;  // already compacted (committed)
    }
    if (entry.seqno <= last_seqno()) {
      if (EntryAt(entry.seqno).view == entry.view) {
        match = entry.seqno;
        continue;  // duplicate of what we have
      }
      // Conflict: the primary's ledger is ground truth (paper §4.2).
      TruncateLog(entry.seqno - 1);
    }
    if (entry.seqno != last_seqno() + 1) break;  // gap; stop here
    // Delivery to the node layer is batched below; fresh appends are
    // always a contiguous suffix of the request (once one is appended,
    // every later entry takes this branch or breaks).
    AppendToLog(entry, /*remote_origin=*/false);
    if (first_appended == 0) first_appended = entry.seqno;
    match = entry.seqno;
  }
  if (first_appended != 0) {
    // Pointers are collected only after the loop: AppendToLog grows log_
    // and would invalidate them.
    std::vector<const LogEntry*> batch;
    batch.reserve(last_seqno() - first_appended + 1);
    for (uint64_t s = first_appended; s <= last_seqno(); ++s) {
      batch.push_back(&EntryAt(s));
    }
    cb_->OnAppendBatch(batch);
  }

  if (req.commit_seqno > commit_seqno_) {
    // Cap at `match`, not last_seqno(): entries beyond the verified match
    // point may be a stale tail from an older view that the primary has
    // not yet overwritten.
    SetCommit(std::min(req.commit_seqno, match));
  }

  resp.success = true;
  resp.match_seqno = match;
  resp.commit_seqno = commit_seqno_;
  cb_->Send(from, Message{id_, resp});
}

void RaftNode::HandleAppendEntriesResp(const NodeId& from,
                                       const AppendEntriesResp& resp) {
  if (resp.view > view_) {
    BecomeBackup(resp.view);
    return;
  }
  if (role_ != Role::kPrimary || resp.view < view_) return;
  last_response_ms_[from] = now_ms_;
  peer_commit_[from] = std::max(peer_commit_[from], resp.commit_seqno);

  if (resp.success) {
    needs_snapshot_.erase(from);
    uint64_t prev_match = match_seqno_[from];
    match_seqno_[from] = std::max(prev_match, resp.match_seqno);
    // Only forward: entries past the match may still be in flight.
    next_seqno_[from] = std::max(next_seqno_[from], match_seqno_[from] + 1);
    AdvanceCommitAsPrimary();
    if (last_seqno() >= next_seqno_[from]) {
      SendAppendEntries(from);  // stream what was appended since the last send
    }
  } else {
    // Back off using the responder's hint (paper §4.2: "utilizing the
    // information provided by the backup").
    uint64_t hint_next = resp.match_seqno + 1;
    if (hint_next <= base_seqno_) {
      // The entry this peer needs next was compacted away: only a snapshot
      // can serve it. The node layer watches this set and ships one.
      needs_snapshot_.insert(from);
    }
    uint64_t current_next = next_seqno_.count(from) > 0 ? next_seqno_[from]
                                                        : last_seqno() + 1;
    next_seqno_[from] =
        std::max<uint64_t>(base_seqno_ + 1,
                           std::min(hint_next, current_next - 1));
    SendAppendEntries(from);
  }
}

void RaftNode::HandleRequestVote(const NodeId& from,
                                 const RequestVoteReq& req) {
  // Sticky leader: while we hear regular heartbeats from a live primary,
  // ignore higher-view vote requests. This stops nodes removed by a
  // reconfiguration (or briefly partitioned) from disrupting a healthy
  // cluster (cf. Raft §6 / CCF's election guard).
  if (req.view > view_ && leader_.has_value() &&
      now_ms_ - last_leader_contact_ms_ < cfg_.election_timeout_min_ms) {
    RequestVoteResp resp;
    resp.view = view_;
    resp.granted = false;
    cb_->Send(from, Message{id_, resp});
    return;
  }
  if (req.view > view_) {
    BecomeBackup(req.view);
  }
  RequestVoteResp resp;
  resp.view = view_;
  resp.granted = false;
  if (req.view == view_ &&
      (voted_in_view_ != view_ || !voted_for_.has_value() ||
       *voted_for_ == from)) {
    // Paper §4.2: grant iff the candidate's last signature transaction is
    // at least as up-to-date as ours.
    bool up_to_date =
        req.last_sig_view > last_sig_view_ ||
        (req.last_sig_view == last_sig_view_ &&
         req.last_sig_seqno >= last_sig_seqno_);
    if (up_to_date) {
      resp.granted = true;
      voted_for_ = from;
      voted_in_view_ = view_;
      ResetElectionTimer();
    }
  }
  cb_->Send(from, Message{id_, resp});
}

void RaftNode::HandleRequestVoteResp(const NodeId& from,
                                     const RequestVoteResp& resp) {
  if (resp.view > view_) {
    BecomeBackup(resp.view);
    return;
  }
  if (role_ != Role::kCandidate || resp.view != view_ || !resp.granted) {
    return;
  }
  votes_granted_.insert(from);
  if (HaveQuorumInEveryConfig(
          [&](const NodeId& n) { return votes_granted_.count(n) > 0; })) {
    BecomePrimary();
  }
}

// ---------------------------------------------------------------- Status

TxStatus RaftNode::GetTxStatus(uint64_t view, uint64_t seqno) const {
  if (seqno == 0) return TxStatus::kInvalid;
  // Invalid if a greater view started at this seqno or earlier (§4.3).
  for (const auto& [v, start] : view_history_) {
    if (v > view && start <= seqno) return TxStatus::kInvalid;
  }
  if (seqno <= last_seqno()) {
    uint64_t entry_view = ViewAt(seqno);
    if (entry_view == view) {
      return seqno <= commit_seqno_ ? TxStatus::kCommitted
                                    : TxStatus::kPending;
    }
    if (seqno <= commit_seqno_) return TxStatus::kInvalid;
  }
  return TxStatus::kUnknown;
}

void RaftNode::TestInstallLog(std::vector<LogEntry> entries, uint64_t view) {
  log_.clear();
  view_history_.clear();
  base_seqno_ = 0;
  base_view_ = 0;
  commit_seqno_ = 0;
  last_sig_seqno_ = 0;
  last_sig_view_ = 0;
  view_ = view;
  for (LogEntry& e : entries) {
    AppendToLog(std::move(e), /*remote_origin=*/false);
  }
}

}  // namespace ccf::consensus
