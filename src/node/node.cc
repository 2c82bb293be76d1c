#include "node/node.h"

#include <algorithm>
#include <cassert>

#include "common/buffer.h"
#include "common/hex.h"
#include "common/logging.h"
#include "crypto/sign.h"
#include "gov/constitution.h"
#include "kv/tables.h"
#include "kv/writeset.h"
#include "node/wire.h"
#include "tee/attestation.h"
#include "tee/messages.h"

namespace ccf::node {

namespace tables = kv::tables;

namespace {

// Ring-buffer message types live in tee/messages.h (shared with tests).
using tee::kCloseSession;
using tee::kInboundNet;
using tee::kLedgerFetchRequest;
using tee::kLedgerFetchResponse;
using tee::kOutboundNet;
using tee::kSessionClosed;
using tee::kSnapshotWrite;

crypto::Sha256Digest PublicAadDigest(ByteSpan public_ws) {
  return crypto::Sha256::Hash(public_ws);
}

}  // namespace

// ----------------------------------------------------------- lifecycle

Node::Node(NodeConfig config, Application* app, sim::Environment* env)
    : config_(config),
      app_(app),
      env_(env),
      boundary_(config.tee_mode),
      host_drbg_("ccf-host-" + config.node_id, config.seed),
      drbg_("ccf-node-" + config.node_id, config.seed),
      node_key_(crypto::KeyPair::Generate(&drbg_)),
      indexer_(config.historical.index_entries_per_tick),
      verify_drbg_("ccf-verify-" + config.node_id, config.seed),
      worker_pool_(config.worker_threads),
      exec_pool_(config.exec_threads) {
  store_.SetRetainedRootCap(config_.kv_retained_root_cap);
  historical_ = std::make_unique<historical::StateCache>(
      config_.historical,
      [this](uint64_t lo, uint64_t hi) { EnclaveSendLedgerFetch(lo, hi); },
      [this](const ledger::Entry& entry) { return VerifyFetchedEntry(entry); });
  app_context_.historical = historical_.get();
  app_context_.indexer = &indexer_;
  app_context_.receiptable_seqno = [this] { return ReceiptableUpto(); };
  app_context_.commit_seqno = [this] { return commit_seqno(); };
  app_context_.now_ms = [this] { return now_ms_; };
  BindNodeMetrics();
  boundary_.BindMetrics(&metrics_);
  worker_pool_.BindMetrics(&metrics_);
  exec_pool_.BindMetrics(&metrics_, "exec.worker");
  InstallFrameworkEndpoints();
  if (app_ != nullptr) {
    app_->RegisterEndpoints(&registry_, app_context_);
  }
}

void Node::BindNodeMetrics() {
  crypto_metrics_.signs = metrics_.GetCounter("crypto.signs");
  crypto_metrics_.signs_deferred = metrics_.GetCounter("crypto.signs_deferred");
  crypto_metrics_.verifies_single =
      metrics_.GetCounter("crypto.verifies_single");
  crypto_metrics_.verifies_batched =
      metrics_.GetCounter("crypto.verifies_batched");
  crypto_metrics_.verify_batches = metrics_.GetCounter("crypto.verify_batches");
  crypto_metrics_.verify_failures =
      metrics_.GetCounter("crypto.verify_failures");
  historical_metrics_.host_fetch_requests =
      metrics_.GetCounter("historical.host_fetch_requests");
  historical_metrics_.host_fetch_responses =
      metrics_.GetCounter("historical.host_fetch_responses");
  historical_metrics_.host_fetch_drops =
      metrics_.GetCounter("historical.host_fetch_drops");
  historical_metrics_.host_fetch_corrupts =
      metrics_.GetCounter("historical.host_fetch_corrupts");
  historical_metrics_.host_fetch_delays =
      metrics_.GetCounter("historical.host_fetch_delays");
  historical_metrics_.host_fetch_reorders =
      metrics_.GetCounter("historical.host_fetch_reorders");
  historical_metrics_.entries_verified =
      metrics_.GetCounter("historical.entries_verified");
  historical_metrics_.entries_rejected =
      metrics_.GetCounter("historical.entries_rejected");
  m_channel_rekeys_ = metrics_.GetCounter("channel.rekeys");
  m_index_upto_ = metrics_.GetGauge("index.upto");
  m_index_lag_ = metrics_.GetGauge("index.lag");
  m_ledger_entries_ = metrics_.GetGauge("ledger.entries");
  snapshot_metrics_.taken = metrics_.GetCounter("snapshot.taken");
  snapshot_metrics_.evidence_committed =
      metrics_.GetCounter("snapshot.evidence_committed");
  snapshot_metrics_.persisted = metrics_.GetCounter("snapshot.persisted");
  snapshot_metrics_.persist_drops =
      metrics_.GetCounter("snapshot.persist_drops");
  snapshot_metrics_.persist_corrupts =
      metrics_.GetCounter("snapshot.persist_corrupts");
  m_ledger_base_ = metrics_.GetGauge("ledger.base");
  exec_metrics_.batches = metrics_.GetCounter("exec.batches");
  exec_metrics_.requests = metrics_.GetCounter("exec.requests");
  exec_metrics_.conflicts = metrics_.GetCounter("exec.conflicts");
  exec_metrics_.retries = metrics_.GetCounter("exec.retries");
  exec_metrics_.aborts = metrics_.GetCounter("exec.aborts");
  exec_metrics_.batch_size = metrics_.GetHistogram("exec.batch_size");
  exec_metrics_.flush_drain = metrics_.GetCounter("exec.flush.drain");
  exec_metrics_.flush_size = metrics_.GetCounter("exec.flush.size");
  exec_metrics_.flush_deadline = metrics_.GetCounter("exec.flush.deadline");
}

Node::CryptoOpCounters Node::crypto_ops() const {
  CryptoOpCounters c;
  c.signs = crypto_metrics_.signs->value();
  c.signs_deferred = crypto_metrics_.signs_deferred->value();
  c.verifies_single = crypto_metrics_.verifies_single->value();
  c.verifies_batched = crypto_metrics_.verifies_batched->value();
  c.verify_batches = crypto_metrics_.verify_batches->value();
  c.verify_failures = crypto_metrics_.verify_failures->value();
  return c;
}

Node::HistoricalCounters Node::historical_counters() const {
  HistoricalCounters h;
  h.host_fetch_requests = historical_metrics_.host_fetch_requests->value();
  h.host_fetch_responses = historical_metrics_.host_fetch_responses->value();
  h.host_fetch_drops = historical_metrics_.host_fetch_drops->value();
  h.host_fetch_corrupts = historical_metrics_.host_fetch_corrupts->value();
  h.host_fetch_delays = historical_metrics_.host_fetch_delays->value();
  h.host_fetch_reorders = historical_metrics_.host_fetch_reorders->value();
  h.entries_verified = historical_metrics_.entries_verified->value();
  h.entries_rejected = historical_metrics_.entries_rejected->value();
  return h;
}

Node::~Node() {
  if (env_ != nullptr) env_->Unregister(config_.node_id);
}

void Node::RegisterWithEnvironment() {
  // Live mode: no environment; the host (src/host) drives Tick and
  // HostReceive directly.
  if (env_ == nullptr) return;
  env_->Register(
      config_.node_id,
      [this](const std::string& from, ByteSpan data) {
        HostReceive(from, data);
      },
      [this](uint64_t now_ms) { Tick(now_ms); });
}

std::unique_ptr<Node> Node::CreateGenesis(NodeConfig config,
                                          const ServiceInit& init,
                                          Application* app,
                                          sim::Environment* env) {
  auto node = std::unique_ptr<Node>(new Node(config, app, env));
  node->InitGenesis(init);
  node->RegisterWithEnvironment();
  return node;
}

std::unique_ptr<Node> Node::CreateJoiner(NodeConfig config,
                                         crypto::PublicKeyBytes service_identity,
                                         const std::string& target_node,
                                         Application* app,
                                         sim::Environment* env) {
  auto node = std::unique_ptr<Node>(new Node(config, app, env));
  node->service_identity_ = service_identity;
  node->RegisterWithEnvironment();
  node->StartJoin(target_node);
  return node;
}

std::unique_ptr<Node> Node::CreateRecovery(NodeConfig config,
                                           ledger::Ledger restored,
                                           Application* app,
                                           sim::Environment* env) {
  auto node = std::unique_ptr<Node>(new Node(config, app, env));
  node->InitRecovery(std::move(restored), std::nullopt);
  node->RegisterWithEnvironment();
  return node;
}

Result<std::unique_ptr<Node>> Node::CreateRecoveryFromDir(
    NodeConfig config, const std::string& dir, Application* app,
    sim::Environment* env) {
  ASSIGN_OR_RETURN(ledger::Ledger restored, ledger::LoadFromDir(dir));
  std::optional<SnapshotBundle> bundle;
  if (restored.base_seqno() > 0) {
    // Chunks below the snapshot horizon were retired: the suffix alone is
    // useless without the matching verified snapshot bundle.
    ASSIGN_OR_RETURN(SnapshotBundle b, LoadLatestBundleFromDir(dir));
    if (b.seqno != restored.base_seqno()) {
      return Status::Corruption(
          "recovery: snapshot at " + std::to_string(b.seqno) +
          " does not match ledger base " +
          std::to_string(restored.base_seqno()));
    }
    RETURN_IF_ERROR(VerifyBundleContent(b));
    // The evidence entry inside the bundle must be the same bytes the
    // persisted ledger carries at that seqno: the bundle and the ledger
    // suffix must tell one story.
    ASSIGN_OR_RETURN(const ledger::Entry* ev_entry,
                     restored.Get(b.evidence_seqno));
    if (ev_entry->Serialize() != b.evidence_entry) {
      return Status::Corruption(
          "recovery: ledger entry at " + std::to_string(b.evidence_seqno) +
          " disagrees with the bundle's evidence entry");
    }
    // Receipt check against the service identity recorded in the snapshot
    // itself. Like ledger-based recovery this is trust-on-first-use for
    // the old identity: an operator substituting an entire self-consistent
    // ledger+snapshot is out of scope (the recovered service gets a new
    // identity either way, making the recovery evident to verifiers).
    kv::Store probe;
    ASSIGN_OR_RETURN(kv::State pub, RestorePublicState(b));
    probe.InstallState(std::move(pub), b.seqno);
    auto raw = probe.GetStr(tables::kServiceInfo, tables::kCurrentKey);
    if (!raw.has_value()) {
      return Status::Corruption("recovery: snapshot has no service info");
    }
    ASSIGN_OR_RETURN(json::Value j, json::Parse(*raw));
    ASSIGN_OR_RETURN(gov::ServiceInfo info, gov::ServiceInfo::FromJson(j));
    ASSIGN_OR_RETURN(crypto::Certificate cert,
                     crypto::Certificate::Deserialize(info.cert));
    RETURN_IF_ERROR(VerifyBundle(
        b, ByteSpan(cert.public_key.data(), cert.public_key.size())));
    bundle = std::move(b);
  }
  auto node = std::unique_ptr<Node>(new Node(config, app, env));
  node->InitRecovery(std::move(restored), std::move(bundle));
  node->RegisterWithEnvironment();
  return node;
}

void Node::InitGenesis(const ServiceInit& init) {
  // Fresh service identity (paper Table 1: generated when a CCF service is
  // started for the first time).
  service_key_ = std::make_unique<crypto::KeyPair>(
      crypto::KeyPair::Generate(&drbg_));
  service_identity_ = service_key_->public_key();
  service_cert_ = crypto::IssueCertificate("service", "service",
                                           service_identity_, *service_key_,
                                           "");
  node_cert_ = crypto::IssueCertificate(config_.node_id, "node",
                                        node_key_.public_key(), *service_key_,
                                        "service");
  ledger_secret_ = kv::LedgerSecret::Generate(&drbg_);
  encryptor_ = std::make_unique<kv::TxEncryptor>(ledger_secret_);

  raft_ = std::make_unique<consensus::RaftNode>(
      config_.node_id, config_.raft, std::set<std::string>{config_.node_id},
      /*start_as_primary=*/true, this);
  raft_->BindMetrics(&metrics_);

  // The genesis transaction (paper §5): constitution, consortium, code id,
  // this node, and the service identity, in one transaction.
  kv::Tx tx = store_.BeginTx();
  tx.Handle(tables::kConstitution)
      ->PutStr(tables::kCurrentKey,
               init.constitution.empty() ? gov::DefaultConstitution()
                                         : init.constitution);
  for (const MemberIdentity& m : init.members) {
    gov::MemberInfo info;
    info.cert = m.cert;
    info.encryption_key = m.encryption_key;
    gov::WriteRecord(tx.Handle(tables::kMembersCerts), m.member_id,
                     info.ToJson());
  }
  for (const auto& [user_id, cert] : init.initial_users) {
    gov::UserInfo info;
    info.cert = cert;
    gov::WriteRecord(tx.Handle(tables::kUsersCerts), user_id, info.ToJson());
  }
  tx.Handle(tables::kNodesCodeIds)->PutStr(config_.code_id, "AllowedToJoin");

  gov::NodeInfo self;
  self.node_id = config_.node_id;
  self.status = gov::NodeStatus::kTrusted;
  self.cert = node_cert_;
  self.code_id = config_.code_id;
  self.host = config_.host;
  gov::WriteRecord(tx.Handle(tables::kNodesInfo), config_.node_id,
                   self.ToJson());

  gov::ServiceInfo service;
  service.status = init.open_immediately ? gov::ServiceStatus::kOpen
                                         : gov::ServiceStatus::kOpening;
  service.cert = service_cert_.Serialize();
  gov::WriteRecord(tx.Handle(tables::kServiceInfo), tables::kCurrentKey,
                   service.ToJson());

  if (!init.members.empty()) {
    Status s = gov::ShareManager::ReissueShares(&tx, ledger_secret_, &drbg_);
    if (!s.ok()) LOG_ERROR << "genesis share issuance failed: " << s.ToString();
  }

  auto committed = CommitAndReplicate(&tx, ledger::EntryType::kInternal);
  if (!committed.ok()) {
    LOG_ERROR << "genesis commit failed: " << committed.status().ToString();
    return;
  }
  EmitSignature();
}

gov::ServiceStatus Node::service_status() const {
  auto raw = store_.GetStr(tables::kServiceInfo, tables::kCurrentKey);
  if (!raw.has_value()) return gov::ServiceStatus::kOpening;
  auto j = json::Parse(*raw);
  if (!j.ok()) return gov::ServiceStatus::kOpening;
  auto info = gov::ServiceInfo::FromJson(*j);
  if (!info.ok()) return gov::ServiceStatus::kOpening;
  return info->status;
}

// -------------------------------------------------------------- driving

bool Node::HostReceive(const std::string& from, ByteSpan data) {
  // Host side: push the raw network payload across the boundary.
  BufWriter w;
  w.Str(from);
  w.Blob(data);
  if (!boundary_.HostSend(kInboundNet, w.data())) {
    // Sim mode has no retry path, so a full ring means a dropped message
    // worth shouting about; the live host parks the connection and
    // retries, making this ordinary backpressure (DESIGN.md §13).
    if (env_ != nullptr) {
      LOG_WARN << config_.node_id << " boundary inbox full, dropping message";
    }
    return false;
  }
  return true;
}

bool Node::HostPostSessionClosed(const std::string& peer) {
  tee::SessionControl msg{peer};
  return boundary_.HostSend(kSessionClosed, msg.Serialize());
}

void Node::Tick(uint64_t now_ms) {
  now_ms_ = std::max(now_ms_, now_ms);
  // Worker-pool completions land here, before any message processing, so
  // their placement in virtual time does not depend on worker_threads (see
  // DESIGN.md: worker-pool determinism contract).
  DrainWorkerCompletions();
  // Host fetch responses whose delay elapsed land in the enclave inbox
  // before it drains, giving fetches a deterministic 1-tick minimum RTT.
  HostDeliverFetchResponses();
  DrainEnclaveInbox();
  if (raft_ != nullptr) {
    raft_->Tick(now_ms_);
    MaybeCompleteRetirements();
    HandleOwnRetirement();
    // Asynchronous indexing: absorb newly committed entries under the
    // per-tick budget (paper §3.4).
    indexer_.Tick(raft_->commit_seqno(),
                  [this](uint64_t seqno, indexing::CommittedEntry* out) {
                    return DecodeCommittedEntry(seqno, out);
                  });
    historical_->Tick(now_ms_);
    // Snapshot evidence commits from the tick loop, never from OnCommit
    // (committing inside a raft callback would re-enter raft). It runs
    // before the signature so the evidence can be covered promptly.
    MaybeCommitSnapshotEvidence();
    // Signature submission goes last: nothing else may claim the seqno the
    // signed root reserves before the blocking drain commits it.
    MaybeEmitSignature(now_ms_);
    // Once a committed signature covers the evidence, attach its receipt
    // and hand the finished bundle to the host.
    MaybePersistSnapshot();
    // A long-lived primary bounds its in-memory consensus log by the
    // snapshot horizon; laggards below it are offered the bundle instead.
    MaybeCompactRaftLog();
    // Per-tick observability gauges (write-only; nothing reads them back).
    m_index_upto_->Set(indexer_.indexed_upto());
    m_index_lag_->Set(indexer_.Lag(raft_->commit_seqno()));
    m_ledger_entries_->Set(host_ledger_.last_seqno());
    m_ledger_base_->Set(host_ledger_.base_seqno());
  }
  DrainEnclaveOutbox();
}

void Node::DrainWorkerCompletions() {
  worker_pool_.Drain(/*wait_all=*/!config_.worker_async);
}

void Node::DrainEnclaveInbox() {
  uint32_t type;
  Bytes payload;
  while (boundary_.EnclaveReceive(&type, &payload)) {
    if (type == kLedgerFetchResponse) {
      EnclaveHandleFetchResponse(payload);
      continue;
    }
    if (type == kSessionClosed) {
      auto msg = tee::SessionControl::Deserialize(payload);
      if (msg.ok()) sessions_.erase(msg->peer);
      continue;
    }
    if (type != kInboundNet) continue;
    BufReader r(payload);
    auto from = r.Str();
    if (!from.ok()) continue;
    auto data = r.Blob();
    if (!data.ok()) continue;
    EnclaveProcess(*from, *data);
  }
  // Flush-policy decision point: with the thresholds disabled the batch
  // must never outlive the inbox drain that accumulated it (bit-identical
  // sim replay); with a size/deadline policy it may ride across drains.
  MaybeFlushExecBatch();
}

void Node::MaybeFlushExecBatch() {
  if (exec_batch_.empty()) return;
  const bool deferred =
      config_.exec_batch_max > 0 || config_.exec_batch_deadline_ms > 0;
  if (!deferred) {
    exec_metrics_.flush_drain->Inc();
    FlushExecBatch();
    return;
  }
  if (config_.exec_batch_max > 0 &&
      exec_batch_.size() >= config_.exec_batch_max) {
    exec_metrics_.flush_size->Inc();
    FlushExecBatch();
    return;
  }
  // A size-only policy still flushes a partial batch after one tick so a
  // lull in arrivals cannot strand requests.
  const uint64_t deadline =
      std::max<uint64_t>(config_.exec_batch_deadline_ms, 1);
  if (now_ms_ >= exec_batch_opened_ms_ + deadline) {
    exec_metrics_.flush_deadline->Inc();
    FlushExecBatch();
  }
}

void Node::EnclaveProcess(const std::string& from, ByteSpan data) {
  if (data.empty()) return;
  auto kind = static_cast<WireKind>(data[0]);
  ByteSpan payload = data.subspan(1);
  switch (kind) {
    case kSessionRecord:
      HandleSessionRecord(from, payload);
      break;
    case kNodeChannel:
      HandleChannelMessage(from, payload);
      break;
    default:
      LOG_WARN << config_.node_id << " unknown wire kind from " << from;
  }
}

void Node::EnclaveSendNet(const std::string& to, ByteSpan data) {
  BufWriter w;
  w.Str(to);
  w.Blob(data);
  if (!boundary_.EnclaveSend(kOutboundNet, w.data())) {
    LOG_WARN << config_.node_id << " boundary outbox full, dropping message";
  }
}

void Node::DrainEnclaveOutbox() {
  uint32_t type;
  Bytes payload;
  while (boundary_.HostReceive(&type, &payload)) {
    if (type == kLedgerFetchRequest) {
      HostServeLedgerFetch(payload);
      continue;
    }
    if (type == kSnapshotWrite) {
      HostStoreSnapshot(payload);
      continue;
    }
    if (type == kCloseSession) {
      auto msg = tee::SessionControl::Deserialize(payload);
      if (msg.ok() && transport_ != nullptr) {
        transport_->CloseSession(msg->peer);
      }
      continue;
    }
    if (type != kOutboundNet) continue;
    BufReader r(payload);
    auto to = r.Str();
    if (!to.ok()) continue;
    auto data = r.Blob();
    if (!data.ok()) continue;
    if (transport_ != nullptr) {
      transport_->NetSend(*to, std::move(*data));
    } else if (env_ != nullptr) {
      env_->Send(config_.node_id, *to, std::move(*data));
    }
  }
}

// ----------------------------------------------- historical ledger fetch

void Node::EnclaveSendLedgerFetch(uint64_t lo, uint64_t hi) {
  tee::LedgerFetchRequest req{lo, hi};
  if (!boundary_.EnclaveSend(kLedgerFetchRequest, req.Serialize())) {
    LOG_WARN << config_.node_id << " boundary outbox full, dropping fetch";
  }
}

void Node::HostServeLedgerFetch(ByteSpan payload) {
  auto req = tee::LedgerFetchRequest::Deserialize(payload);
  if (!req.ok()) return;
  historical_metrics_.host_fetch_requests->Inc();

  tee::LedgerFetchResponse resp;
  resp.lo = req->lo;
  resp.hi = req->hi;
  resp.ok = true;
  for (uint64_t seqno = req->lo; seqno <= req->hi; ++seqno) {
    auto entry = host_ledger_.Get(seqno);
    if (!entry.ok()) {
      resp.ok = false;
      resp.error = entry.status().message();
      if (entry.status().IsOutOfRange()) {
        // Retired below the snapshot horizon: definitive, not transient.
        // The enclave surfaces this as a 404 instead of retrying forever.
        resp.compacted = true;
        resp.horizon = host_ledger_.base_seqno();
      }
      resp.entries.clear();
      break;
    }
    resp.entries.push_back((*entry)->Serialize());
  }
  Bytes wire = resp.Serialize();

  // Untrusted-host fault policy: the environment may tell this host to
  // drop, corrupt, delay or reorder its fetch responses (chaos suites).
  sim::HostFaults faults =
      env_ != nullptr ? env_->HostFaultsFor(config_.node_id) : sim::HostFaults{};
  auto bernoulli = [&](double p) {
    return p > 0.0 && host_drbg_.Uniform(10000) < static_cast<uint64_t>(p * 10000);
  };
  if (bernoulli(faults.drop)) {
    historical_metrics_.host_fetch_drops->Inc();
    return;  // the enclave's retry interval recovers
  }
  if (bernoulli(faults.corrupt) && !wire.empty()) {
    wire[host_drbg_.Uniform(wire.size())] ^= 0x01;
    historical_metrics_.host_fetch_corrupts->Inc();
  }
  uint64_t delay = 0;
  if (faults.extra_delay_max_ms > 0) {
    delay = host_drbg_.Uniform(faults.extra_delay_max_ms + 1);
    if (delay > 0) historical_metrics_.host_fetch_delays->Inc();
  }
  PendingHostFetch pending;
  pending.deliver_at_ms = now_ms_ + 1 + delay;  // min 1-tick RTT
  pending.seq = host_fetch_seq_++;
  pending.payload = std::move(wire);
  if (bernoulli(faults.reorder) && !host_fetch_queue_.empty()) {
    // Swap payloads with a random queued response: both still arrive, but
    // each at the other's delivery time.
    size_t i = host_drbg_.Uniform(host_fetch_queue_.size());
    std::swap(host_fetch_queue_[i].payload, pending.payload);
    historical_metrics_.host_fetch_reorders->Inc();
  }
  host_fetch_queue_.push_back(std::move(pending));
}

void Node::HostDeliverFetchResponses() {
  if (host_fetch_queue_.empty()) return;
  // Deliver due responses in (deliver_at, seq) order for determinism.
  std::sort(host_fetch_queue_.begin(), host_fetch_queue_.end(),
            [](const PendingHostFetch& a, const PendingHostFetch& b) {
              return a.deliver_at_ms != b.deliver_at_ms
                         ? a.deliver_at_ms < b.deliver_at_ms
                         : a.seq < b.seq;
            });
  size_t delivered = 0;
  for (PendingHostFetch& pending : host_fetch_queue_) {
    if (pending.deliver_at_ms > now_ms_) break;
    if (!boundary_.HostSend(kLedgerFetchResponse, pending.payload)) {
      LOG_WARN << config_.node_id << " boundary inbox full, dropping fetch "
               << "response";
    } else {
      historical_metrics_.host_fetch_responses->Inc();
    }
    ++delivered;
  }
  host_fetch_queue_.erase(host_fetch_queue_.begin(),
                          host_fetch_queue_.begin() + delivered);
}

void Node::EnclaveHandleFetchResponse(ByteSpan payload) {
  auto resp = tee::LedgerFetchResponse::Deserialize(payload);
  if (!resp.ok()) {
    // A corrupted frame is indistinguishable from a lying host; drop it
    // and let the retry interval re-fetch.
    LOG_DEBUG << config_.node_id << " undecodable fetch response: "
              << resp.status().ToString();
    return;
  }
  historical_->OnFetchResponse(*resp);
}

uint64_t Node::ReceiptableUpto() const {
  if (raft_ == nullptr) return 0;
  uint64_t commit = raft_->commit_seqno();
  // Largest committed signed root; its boundary covers seqnos < sr.seqno.
  for (auto it = signed_roots_.rbegin(); it != signed_roots_.rend(); ++it) {
    if (it->first > commit) continue;
    uint64_t upto = it->second.seqno > 0 ? it->second.seqno - 1 : 0;
    return std::min(commit, upto);
  }
  return 0;
}

Result<historical::VerifiedEntry> Node::VerifyFetchedEntry(
    const ledger::Entry& entry) {
  // Everything in a fetch response is untrusted host input. Acceptance
  // requires: (1) the seqno is committed; (2) the entry's recomputed leaf
  // equals the enclave's own Merkle leaf at that position; (3) a receipt
  // to a committed signed root verifies against the service identity.
  if (raft_ == nullptr || entry.seqno == 0 ||
      entry.seqno > raft_->commit_seqno()) {
    return Status::Unavailable("fetched entry not committed yet");
  }
  crypto::Sha256Digest ws_digest = entry.WriteSetDigest();
  Bytes leaf_content = merkle::TransactionLeafContent(
      entry.view, entry.seqno, ws_digest, entry.claims_digest);
  auto expected_leaf = tree_.LeafAt(entry.seqno - 1);
  if (!expected_leaf.ok()) {
    return Status::Unavailable("no tree leaf for fetched entry");
  }
  if (merkle::LeafHash(leaf_content) != *expected_leaf) {
    historical_metrics_.entries_rejected->Inc();
    return Status::PermissionDenied("fetched entry contradicts Merkle tree");
  }
  ASSIGN_OR_RETURN(
      merkle::Receipt receipt,
      BuildReceiptForDigests(entry.view, entry.seqno, ws_digest,
                             entry.claims_digest));
  RETURN_IF_ERROR(receipt.Verify(
      ByteSpan(service_identity_.data(), service_identity_.size())));

  Bytes private_plain;
  if (!entry.private_sealed.empty()) {
    if (encryptor_ == nullptr) {
      return Status::Unavailable("no ledger secret for fetched entry");
    }
    auto aad = PublicAadDigest(entry.public_ws);
    auto opened = encryptor_->Open(entry.view, entry.seqno,
                                   entry.private_sealed,
                                   ByteSpan(aad.data(), aad.size()));
    if (!opened.ok()) {
      historical_metrics_.entries_rejected->Inc();
      return Status::PermissionDenied("fetched entry fails decryption");
    }
    private_plain = opened.take();
  }
  ASSIGN_OR_RETURN(kv::WriteSet writes,
                   kv::WriteSet::Parse(entry.public_ws, private_plain));

  historical::VerifiedEntry out;
  out.entry = entry;
  out.writes = std::move(writes);
  out.receipt = std::move(receipt);
  historical_metrics_.entries_verified->Inc();
  return out;
}

bool Node::DecodeCommittedEntry(uint64_t seqno,
                                indexing::CommittedEntry* out) {
  auto entry = host_ledger_.Get(seqno);
  if (!entry.ok()) return false;  // e.g. pre-snapshot seqnos on a joiner
  Bytes private_plain;
  if (!(*entry)->private_sealed.empty() && encryptor_ != nullptr) {
    auto aad = PublicAadDigest((*entry)->public_ws);
    auto opened = encryptor_->Open((*entry)->view, (*entry)->seqno,
                                   (*entry)->private_sealed,
                                   ByteSpan(aad.data(), aad.size()));
    if (!opened.ok()) return false;
    private_plain = opened.take();
  }
  auto ws = kv::WriteSet::Parse((*entry)->public_ws, private_plain);
  if (!ws.ok()) return false;
  out->view = (*entry)->view;
  out->seqno = (*entry)->seqno;
  out->writes = ws.take();
  return true;
}

// ----------------------------------------------------- node channels

std::optional<crypto::PublicKeyBytes> Node::NodePublicKey(
    const std::string& node_id) {
  auto it = known_node_keys_.find(node_id);
  if (it != known_node_keys_.end()) return it->second;
  auto raw = store_.GetStr(tables::kNodesInfo, node_id);
  if (!raw.has_value()) return std::nullopt;
  auto j = json::Parse(*raw);
  if (!j.ok()) return std::nullopt;
  auto info = gov::NodeInfo::FromJson(*j);
  if (!info.ok()) return std::nullopt;
  known_node_keys_[node_id] = info->cert.public_key;
  return info->cert.public_key;
}

Result<Bytes> Node::ChannelKeyFor(const std::string& peer, uint32_t epoch) {
  auto peer_key = NodePublicKey(peer);
  if (!peer_key.has_value()) {
    return Status::NotFound("no public key known for node " + peer);
  }
  ASSIGN_OR_RETURN(Bytes shared, node_key_.DeriveSharedSecret(*peer_key));
  // Derivation is symmetric in the pair of node ids. The epoch rolls the
  // key when a direction's AEAD message counter nears the nonce limit:
  // static-static ECDH always yields the same shared secret, so freshness
  // must come from the HKDF info input.
  std::string lo = std::min(config_.node_id, peer);
  std::string hi = std::max(config_.node_id, peer);
  return crypto::Hkdf(shared, ToBytes("ccf.channel.v1"),
                      ToBytes(lo + "|" + hi + "|e" + std::to_string(epoch)),
                      32);
}

crypto::AesGcm* Node::ChannelGcmFor(const std::string& peer, uint32_t epoch) {
  ChannelState& ch = channels_[peer];
  auto it = ch.gcm_by_epoch.find(epoch);
  if (it != ch.gcm_by_epoch.end()) return it->second.get();
  auto key = ChannelKeyFor(peer, epoch);
  if (!key.ok()) {
    LOG_DEBUG << config_.node_id << " cannot reach " << peer << ": "
              << key.status().ToString();
    return nullptr;
  }
  auto gcm = std::make_unique<crypto::AesGcm>(*key);
  crypto::AesGcm* ptr = gcm.get();
  ch.gcm_by_epoch[epoch] = std::move(gcm);
  // Bound the cache: keep only the newest few epochs (send + both sides
  // of an in-flight rekey).
  while (ch.gcm_by_epoch.size() > 4) {
    ch.gcm_by_epoch.erase(ch.gcm_by_epoch.begin());
  }
  return ptr;
}

uint64_t Node::channel_send_counter(const std::string& peer) const {
  auto it = channels_.find(peer);
  return it != channels_.end() ? it->second.send_counter : 0;
}

uint32_t Node::channel_send_epoch(const std::string& peer) const {
  auto it = channels_.find(peer);
  return it != channels_.end() ? it->second.send_epoch : 0;
}

void Node::TestForceChannelCounter(const std::string& peer, uint64_t value) {
  channels_[peer].send_counter = value;
}

void Node::SendOnChannel(const std::string& peer, uint8_t channel_type,
                         ByteSpan payload) {
  ChannelState& ch = channels_[peer];
  if (ch.send_counter >= kChannelRekeyAt) {
    // Fail closed before the GCM nonce space can be exhausted: tear the
    // send context down and re-derive under the next epoch.
    ch.gcm_by_epoch.erase(ch.send_epoch);
    ++ch.send_epoch;
    ch.send_counter = 0;
    m_channel_rekeys_->Inc();
    LOG_INFO << config_.node_id << " rekeying channel to " << peer
             << " (epoch " << ch.send_epoch << ")";
  }
  crypto::AesGcm* gcm_ptr = ChannelGcmFor(peer, ch.send_epoch);
  if (gcm_ptr == nullptr) return;
  crypto::AesGcm& gcm = *gcm_ptr;
  BufWriter ivw;
  ivw.U64(ch.send_counter++);
  // Direction split: the two directions of one epoch's key must never
  // share an IV. A lo/hi direction bit guarantees that for any pair of
  // distinct node ids (a length-based split would collide for same-length
  // ids like "n0"/"n1").
  ivw.U32(config_.node_id < peer ? 0u : 1u);
  Bytes inner;
  inner.push_back(channel_type);
  Append(&inner, payload);
  Bytes aad = ToBytes(config_.node_id + ">" + peer);
  Bytes sealed = gcm.Seal(ivw.data(), inner, aad);

  BufWriter w;
  w.U32(ch.send_epoch);
  w.Blob(ivw.data());
  w.Raw(sealed);
  EnclaveSendNet(peer, WrapWire(kNodeChannel, w.data()));
}

void Node::HandleChannelMessage(const std::string& peer, ByteSpan payload) {
  BufReader r(payload);
  auto epoch = r.U32();
  if (!epoch.ok()) return;
  crypto::AesGcm* gcm_ptr = ChannelGcmFor(peer, *epoch);
  if (gcm_ptr == nullptr) return;
  auto iv = r.Blob();
  if (!iv.ok() || iv->size() != crypto::kGcmIvSize) return;
  auto sealed = r.Raw(r.remaining());
  if (!sealed.ok()) return;
  Bytes aad = ToBytes(peer + ">" + config_.node_id);
  auto inner = gcm_ptr->Open(*iv, *sealed, aad);
  if (!inner.ok()) {
    LOG_WARN << config_.node_id << " rejecting unauthenticated channel "
             << "message from " << peer;
    return;
  }
  if (inner->empty()) return;
  uint8_t channel_type = (*inner)[0];
  ByteSpan body(inner->data() + 1, inner->size() - 1);

  // Channel traffic can commit, roll back, or execute forwarded requests;
  // batched requests must see the store head they were enqueued against.
  FlushExecBatch();

  switch (channel_type) {
    case kConsensus: {
      if (raft_ == nullptr) return;
      auto msg = consensus::Message::Deserialize(body);
      if (msg.ok() && msg->from == peer) {
        raft_->Receive(*msg, now_ms_);
      }
      break;
    }
    case kForwardRequest: {
      BufReader fr(body);
      auto corr = fr.U64();
      auto has_cert = fr.Bool();
      if (!corr.ok() || !has_cert.ok()) return;
      std::optional<crypto::Certificate> cert;
      if (*has_cert) {
        auto cert_bytes = fr.Blob();
        if (!cert_bytes.ok()) return;
        auto parsed = crypto::Certificate::Deserialize(*cert_bytes);
        if (!parsed.ok()) return;
        cert = std::move(*parsed);
      }
      auto req_bytes = fr.Blob();
      if (!req_bytes.ok()) return;
      http::RequestParser parser;
      parser.Feed(*req_bytes);
      auto req = parser.Next();
      if (!req.ok() || !req->has_value()) return;

      // Re-authenticate the forwarded caller against our own state.
      http::Response response;
      auto caller = Authenticate(cert);
      if (!caller.ok()) {
        response.status = 401;
        response.body = ToBytes(caller.status().ToString());
      } else {
        response = ExecuteRequest(**req, *caller);
      }
      BufWriter w;
      w.U64(*corr);
      w.Blob(response.Serialize());
      SendOnChannel(peer, kForwardResponse, w.data());
      break;
    }
    case kForwardResponse: {
      BufReader fr(body);
      auto corr = fr.U64();
      auto resp_bytes = fr.Blob();
      if (!corr.ok() || !resp_bytes.ok()) return;
      auto it = pending_forwards_.find(*corr);
      if (it == pending_forwards_.end()) return;
      std::string session_peer = it->second;
      pending_forwards_.erase(it);
      http::ResponseParser parser;
      parser.Feed(*resp_bytes);
      auto resp = parser.Next();
      if (resp.ok() && resp->has_value()) {
        RespondToSession(session_peer, **resp);
      }
      break;
    }
    case kSnapshotCatchUp: {
      HandleSnapshotCatchUp(peer, body);
      break;
    }
    default:
      break;
  }
}

void Node::Send(const consensus::NodeId& to, const consensus::Message& msg) {
  SendOnChannel(to, kConsensus, msg.Serialize());
}

// --------------------------------------------------- consensus callbacks

void Node::OnAppend(const consensus::LogEntry& entry) {
  OnAppendBatch({&entry});
}

void Node::OnAppendBatch(
    const std::vector<const consensus::LogEntry*>& entries) {
  // Phase 1: decode (parse + decrypt) every entry. A corrupt entry ends
  // the batch at the preceding entry -- the valid prefix still applies.
  struct Decoded {
    ledger::Entry entry;
    kv::WriteSet ws;
  };
  std::vector<Decoded> batch;
  batch.reserve(entries.size());
  for (const consensus::LogEntry* le : entries) {
    auto parsed = ledger::Entry::Deserialize(*le->data);
    if (!parsed.ok()) {
      LOG_ERROR << config_.node_id
                << " corrupt replicated entry: " << parsed.status().ToString();
      integrity_violation_ = true;
      break;
    }
    ledger::Entry ledger_entry = parsed.take();

    // Decrypt the private half with the ledger secret.
    Bytes private_plain;
    if (!ledger_entry.private_sealed.empty() && encryptor_ != nullptr) {
      auto aad = PublicAadDigest(ledger_entry.public_ws);
      auto opened = encryptor_->Open(ledger_entry.view, ledger_entry.seqno,
                                     ledger_entry.private_sealed,
                                     ByteSpan(aad.data(), aad.size()));
      if (!opened.ok()) {
        LOG_ERROR << config_.node_id << " cannot decrypt private writes at "
                  << ledger_entry.seqno;
        integrity_violation_ = true;
        break;
      }
      private_plain = opened.take();
    }
    auto ws = kv::WriteSet::Parse(ledger_entry.public_ws, private_plain);
    if (!ws.ok()) {
      integrity_violation_ = true;
      break;
    }
    batch.push_back({std::move(ledger_entry), ws.take()});
  }
  if (batch.empty()) return;

  // Phase 2: append every Merkle leaf before the apply pass checks roots.
  std::vector<Bytes> leaf_contents;
  leaf_contents.reserve(batch.size());
  for (const Decoded& d : batch) {
    TxDigests digests;
    digests.write_set = d.entry.WriteSetDigest();
    digests.claims = d.entry.claims_digest;
    leaf_contents.push_back(merkle::TransactionLeafContent(
        d.entry.view, d.entry.seqno, digests.write_set, digests.claims));
    tx_digests_.push_back(digests);
  }
  tree_.AppendBatch(leaf_contents);

  // Phase 3: sequential apply. Signature roots are checked against the
  // prefix they cover (RootAt, which for the default synchronous signing
  // path is the tree right before the signature entry); the expensive
  // Ed25519 check is queued for batch verification at the commit boundary.
  for (Decoded& d : batch) {
    if (d.entry.type == ledger::EntryType::kSignature) {
      auto it = d.ws.maps.find(tables::kSignatures);
      if (it != d.ws.maps.end()) {
        for (const auto& [key, value] : it->second) {
          if (!value.has_value()) continue;
          auto hex = HexDecode(ToString(*value));
          if (!hex.ok()) continue;
          auto sr = merkle::SignedRoot::Deserialize(*hex);
          if (!sr.ok()) continue;
          auto covered = (sr->seqno >= 1 && sr->seqno <= d.entry.seqno)
                             ? tree_.RootAt(sr->seqno - 1)
                             : Status::OutOfRange("bad signed seqno");
          if (!covered.ok() || covered.value() != sr->root) {
            LOG_ERROR << config_.node_id << " signature root mismatch at "
                      << d.entry.seqno;
            integrity_violation_ = true;
          } else {
            signed_roots_[d.entry.seqno] = *sr;
            pending_sig_verifies_.push_back({d.entry.seqno, *sr});
          }
        }
      }
    }

    Status applied = store_.ApplyWriteSet(d.ws, d.entry.seqno);
    if (!applied.ok()) {
      LOG_ERROR << config_.node_id << " apply failed: " << applied.ToString();
      integrity_violation_ = true;
      // Drop this entry's leaf and everything after it; the prefix stands.
      tree_.Truncate(d.entry.seqno - 1);
      tx_digests_.resize(d.entry.seqno - 1);
      return;
    }
    Status appended = host_ledger_.Append(std::move(d.entry));
    if (!appended.ok()) {
      LOG_ERROR << config_.node_id << " ledger append failed";
    }
  }
}

void Node::AppendLeafFor(const ledger::Entry& entry) {
  TxDigests digests;
  digests.write_set = entry.WriteSetDigest();
  digests.claims = entry.claims_digest;
  Bytes leaf = merkle::TransactionLeafContent(entry.view, entry.seqno,
                                              digests.write_set,
                                              digests.claims);
  tree_.Append(leaf);
  tx_digests_.push_back(digests);
}

void Node::OnRollback(uint64_t seqno) {
  Status s = store_.Rollback(seqno);
  if (!s.ok()) LOG_ERROR << config_.node_id << " rollback: " << s.ToString();
  // The tree and digest history track the full ledger (joiners receive
  // the historical leaves at join time), so indices align with seqnos.
  tree_.Truncate(seqno);
  tx_digests_.resize(seqno);
  Status truncated = host_ledger_.Truncate(seqno);
  if (!truncated.ok()) {
    // Rolling back below the snapshot horizon would mean consensus
    // disagreed with a committed snapshot -- that cannot be recovered.
    LOG_ERROR << config_.node_id << " ledger truncate: "
              << truncated.ToString();
    integrity_violation_ = true;
  }
  signed_roots_.erase(signed_roots_.upper_bound(seqno), signed_roots_.end());
  while (!pending_sig_verifies_.empty() &&
         pending_sig_verifies_.back().seqno > seqno) {
    pending_sig_verifies_.pop_back();
  }
  indexer_.OnRollback(seqno);
  txs_since_signature_ = 0;
}

void Node::VerifyCommittedSignatures(uint64_t commit_seqno) {
  if (pending_sig_verifies_.empty() ||
      pending_sig_verifies_.front().seqno > commit_seqno) {
    return;
  }
  struct VerifyJob {
    uint64_t seqno = 0;
    std::string signer;
    crypto::PublicKeyBytes pub{};
    Bytes payload;
    crypto::SignatureBytes sig{};
  };
  std::vector<VerifyJob> jobs;
  while (!pending_sig_verifies_.empty() &&
         pending_sig_verifies_.front().seqno <= commit_seqno) {
    const PendingSigVerify& p = pending_sig_verifies_.front();
    VerifyJob job;
    job.seqno = p.seqno;
    job.signer = p.sr.node_id;
    job.payload = p.sr.SignedPayload();
    job.sig = p.sr.signature;
    auto pub = NodePublicKey(p.sr.node_id);
    if (!pub.has_value()) {
      LOG_ERROR << config_.node_id << " signature at " << p.seqno
                << " from unknown node " << p.sr.node_id;
      integrity_violation_ = true;
      crypto_metrics_.verify_failures->Inc();
    } else {
      job.pub = *pub;
      jobs.push_back(std::move(job));
    }
    pending_sig_verifies_.pop_front();
  }
  if (jobs.empty()) return;

  if (jobs.size() == 1) {
    crypto_metrics_.verifies_single->Inc();
    const VerifyJob& job = jobs.front();
    if (!crypto::Verify(ByteSpan(job.pub.data(), job.pub.size()), job.payload,
                        ByteSpan(job.sig.data(), job.sig.size()))) {
      LOG_ERROR << config_.node_id << " bad signature at " << job.seqno
                << " from " << job.signer;
      integrity_violation_ = true;
      crypto_metrics_.verify_failures->Inc();
    }
    return;
  }

  std::vector<crypto::BatchVerifyItem> items;
  items.reserve(jobs.size());
  for (const VerifyJob& job : jobs) {
    items.push_back({ByteSpan(job.pub.data(), job.pub.size()), job.payload,
                     ByteSpan(job.sig.data(), job.sig.size())});
  }
  std::vector<bool> ok;
  bool all = crypto::VerifyBatch(items, &verify_drbg_, &ok);
  crypto_metrics_.verify_batches->Inc();
  crypto_metrics_.verifies_batched->Inc(jobs.size());
  if (!all) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (ok[i]) continue;
      LOG_ERROR << config_.node_id << " bad signature at " << jobs[i].seqno
                << " from " << jobs[i].signer;
      integrity_violation_ = true;
      crypto_metrics_.verify_failures->Inc();
    }
  }
}

void Node::OnCommit(uint64_t seqno) {
  VerifyCommittedSignatures(seqno);
  Status s = store_.Compact(seqno);
  if (!s.ok()) {
    LOG_ERROR << config_.node_id << " compact: " << s.ToString();
  }
  // Committed entries are fed to the indexing strategies asynchronously,
  // under a per-tick budget, by indexer_.Tick (paper §3.4).
  MaybeSnapshot();
}

void Node::OnRoleChange(consensus::Role role, uint64_t view) {
  LOG_INFO << config_.node_id << " is now " << consensus::RoleName(role)
           << " in view " << view;
  if (role == consensus::Role::kPrimary) {
    if (recovery_pending_ && store_.current_seqno() > 0) {
      // First primary moment of a recovery node: declare the recovered
      // service (paper §5.2).
      kv::Tx tx = store_.BeginTx();
      // Retire all previous nodes; this node joins as the sole trusted one.
      std::vector<std::string> old_nodes;
      tx.Handle(tables::kNodesInfo)
          ->Foreach([&](const Bytes& key, const Bytes&) {
            old_nodes.push_back(ToString(key));
            return true;
          });
      for (const std::string& old_id : old_nodes) {
        auto record = gov::ReadRecord(tx.Handle(tables::kNodesInfo), old_id);
        if (!record.ok()) continue;
        auto info = gov::NodeInfo::FromJson(*record);
        if (!info.ok()) continue;
        info->status = gov::NodeStatus::kRetired;
        gov::WriteRecord(tx.Handle(tables::kNodesInfo), old_id,
                         info->ToJson());
      }
      gov::NodeInfo self;
      self.node_id = config_.node_id;
      self.status = gov::NodeStatus::kTrusted;
      self.cert = node_cert_;
      self.code_id = config_.code_id;
      self.host = config_.host;
      gov::WriteRecord(tx.Handle(tables::kNodesInfo), config_.node_id,
                       self.ToJson());

      // New service identity; previous identity recorded so the recovery
      // is detectable and the open proposal can be bound to it.
      auto old_service = store_.GetStr(tables::kServiceInfo,
                                       tables::kCurrentKey);
      std::string previous;
      if (old_service.has_value()) {
        auto j = json::Parse(*old_service);
        if (j.ok()) {
          auto info = gov::ServiceInfo::FromJson(*j);
          if (info.ok()) {
            auto cert = crypto::Certificate::Deserialize(info->cert);
            if (cert.ok()) {
              previous = HexEncode(ByteSpan(cert->public_key.data(),
                                            cert->public_key.size()));
            }
          }
        }
      }
      gov::ServiceInfo service;
      service.status = gov::ServiceStatus::kRecovering;
      service.cert = service_cert_.Serialize();
      service.previous_identity = previous;
      gov::WriteRecord(tx.Handle(tables::kServiceInfo), tables::kCurrentKey,
                       service.ToJson());

      auto committed = CommitAndReplicate(&tx, ledger::EntryType::kInternal);
      if (!committed.ok()) {
        LOG_ERROR << "recovery declaration failed: "
                  << committed.status().ToString();
      }
    }
    // Paper §4.2: "The new view will begin with a signature transaction."
    EmitSignature();
  }
}

// ----------------------------------------------------- transactions

uint64_t Node::ViewAtSeqno(uint64_t seqno) const {
  if (raft_ == nullptr) return 0;
  uint64_t v = 0;
  for (const auto& [view, start] : raft_->view_history()) {
    if (start <= seqno) v = view;
  }
  return v;
}

Result<consensus::TxId> Node::CommitAndReplicate(kv::Tx* tx,
                                                 ledger::EntryType type) {
  if (raft_ == nullptr || !raft_->IsPrimary()) {
    return Status::Unavailable("not the primary");
  }
  ASSIGN_OR_RETURN(kv::CommitResult result, store_.CommitTx(tx));
  if (result.write_set.empty()) {
    // Read-only (paper §3.4): respond with the last applied transaction ID.
    return consensus::TxId{ViewAtSeqno(result.seqno), result.seqno};
  }

  ledger::Entry entry;
  entry.view = raft_->view();
  entry.seqno = result.seqno;
  entry.type = type;
  entry.public_ws = result.write_set.SerializePublic();
  Bytes private_plain = result.write_set.SerializePrivate();
  kv::WriteSet empty_check;
  // Only seal when there are private writes.
  bool has_private = false;
  for (const auto& [name, writes] : result.write_set.maps) {
    if (!kv::IsPublicMap(name) && !writes.empty()) has_private = true;
  }
  if (has_private) {
    if (encryptor_ == nullptr) {
      return Status::FailedPrecondition("no ledger secret available");
    }
    auto aad = PublicAadDigest(entry.public_ws);
    entry.private_sealed =
        encryptor_->Seal(entry.view, entry.seqno, private_plain,
                         ByteSpan(aad.data(), aad.size()));
  }
  if (!result.claims.empty()) {
    entry.claims_digest = crypto::Sha256::Hash(result.claims);
  }

  AppendLeafFor(entry);
  auto data = std::make_shared<const Bytes>(entry.Serialize());
  std::optional<consensus::Configuration> reconfig =
      DetectReconfiguration(result.write_set, result.seqno);
  Status appended = host_ledger_.Append(entry);
  if (!appended.ok()) {
    LOG_ERROR << config_.node_id << " primary ledger append failed";
  }
  if (type == ledger::EntryType::kSignature) {
    // Record our own signed root for receipts.
    auto it = result.write_set.maps.find(tables::kSignatures);
    if (it != result.write_set.maps.end() && !it->second.empty()) {
      auto hex = HexDecode(ToString(*it->second.begin()->second));
      if (hex.ok()) {
        auto sr = merkle::SignedRoot::Deserialize(*hex);
        if (sr.ok()) signed_roots_[entry.seqno] = *sr;
      }
    }
  } else {
    ++txs_since_signature_;
  }

  Status replicated = raft_->Replicate(
      result.seqno, data, type == ledger::EntryType::kSignature, reconfig);
  if (!replicated.ok()) {
    return replicated;
  }
  return consensus::TxId{entry.view, entry.seqno};
}

std::set<std::string> Node::TrustedNodesInState() const {
  std::set<std::string> trusted;
  const kv::MapEntry* map = store_.current_state().maps.Get(
      std::string(tables::kNodesInfo));
  if (map == nullptr) return trusted;
  map->data.ForEach([&](const Bytes& key, const kv::VersionedValue& vv) {
    auto j = json::Parse(ToString(vv.value));
    if (j.ok() && j->GetString("status") == "Trusted") {
      trusted.insert(ToString(key));
    }
    return true;
  });
  return trusted;
}

std::optional<consensus::Configuration> Node::DetectReconfiguration(
    const kv::WriteSet& writes, uint64_t seqno) {
  auto it = writes.maps.find(tables::kNodesInfo);
  if (it == writes.maps.end() || it->second.empty()) return std::nullopt;
  std::set<std::string> trusted = TrustedNodesInState();
  if (!raft_->active_configs().empty() &&
      raft_->active_configs().back().nodes == trusted) {
    return std::nullopt;  // membership unchanged (e.g. Retiring -> Retired)
  }
  // Nodes leaving the configuration become learners until they have seen
  // their own retirement commit (paper §4.5).
  for (const std::string& old_node :
       raft_->active_configs().back().nodes) {
    if (trusted.count(old_node) == 0 && old_node != config_.node_id) {
      raft_->AddLearner(old_node);
    }
  }
  LOG_INFO << config_.node_id << " reconfiguration at " << seqno << " to "
           << trusted.size() << " nodes";
  return consensus::Configuration{seqno, std::move(trusted)};
}

void Node::EmitSignature() {
  if (raft_ == nullptr || !raft_->IsPrimary()) return;
  merkle::SignedRoot sr;
  sr.view = raft_->view();
  sr.seqno = raft_->last_seqno() + 1;
  sr.root = tree_.Root();
  sr.node_id = config_.node_id;
  sr.signature = node_key_.Sign(sr.SignedPayload());
  crypto_metrics_.signs->Inc();
  CommitSignedRoot(sr);
}

void Node::CommitSignedRoot(const merkle::SignedRoot& sr) {
  kv::Tx tx = store_.BeginTx();
  tx.Handle(tables::kSignatures)
      ->PutStr(tables::kCurrentKey, HexEncode(sr.Serialize()));
  auto committed = CommitAndReplicate(&tx, ledger::EntryType::kSignature);
  if (committed.ok()) {
    // Entries between the signed prefix boundary and the signature entry
    // itself (possible only under worker_async, where appends continue
    // while the sign is in flight) still await coverage by the next
    // signature. In the synchronous modes this difference is zero.
    txs_since_signature_ = committed->seqno - sr.seqno;
    last_signature_ms_ = now_ms_;
  }
}

void Node::SubmitDeferredSignature() {
  // Capture the root and the seqno it reserves now; the Ed25519 sign runs
  // on the worker pool and the commit lands at the drain point at the top
  // of the next Tick. With worker_threads == 0 the sign still happens
  // right here (WorkerPool sync mode), so this path is fully
  // deterministic; only the commit moves to the drain point.
  auto sr = std::make_shared<merkle::SignedRoot>();
  sr->view = raft_->view();
  sr->seqno = raft_->last_seqno() + 1;
  sr->root = tree_.Root();
  sr->node_id = config_.node_id;
  sig_inflight_ = true;
  crypto_metrics_.signs->Inc();
  crypto_metrics_.signs_deferred->Inc();
  worker_pool_.Submit(
      [this, sr] { sr->signature = node_key_.Sign(sr->SignedPayload()); },
      [this, sr] {
        sig_inflight_ = false;
        // An unchanged view guarantees no rollback has touched the signed
        // prefix since capture (a primary only rolls back across view
        // changes). last_seqno may have advanced under worker_async; the
        // signature then covers a prefix of the entry it lands in, which
        // receipts and audit accept (merkle/receipt.h).
        if (raft_ == nullptr || !raft_->IsPrimary() ||
            raft_->view() != sr->view || raft_->last_seqno() + 1 < sr->seqno) {
          return;  // stale; the cadence will trigger a fresh signature
        }
        CommitSignedRoot(*sr);
      });
}

void Node::MaybeEmitSignature(uint64_t now_ms) {
  if (!raft_->IsPrimary() || txs_since_signature_ == 0 || sig_inflight_) {
    return;
  }
  if (txs_since_signature_ >= config_.signature_interval_txs ||
      now_ms - last_signature_ms_ >= config_.signature_interval_ms) {
    SubmitDeferredSignature();
  }
}

void Node::MaybeSnapshot() {
  uint64_t commit = raft_->commit_seqno();
  if (commit < last_snapshot_seqno_ + config_.snapshot_interval_txs) return;
  CaptureSnapshot();
}

void Node::CaptureSnapshot() {
  last_snapshot_seqno_ = raft_->commit_seqno();
  SnapshotCapture capture;
  capture.state = store_.committed_state();
  capture.seqno = store_.committed_seqno();
  capture.view = ViewAtSeqno(capture.seqno);
  capture.leaves.reserve(capture.seqno);
  for (uint64_t i = 0; i < capture.seqno; ++i) {
    auto leaf = tree_.LeafAt(i);
    if (leaf.ok()) capture.leaves.push_back(*leaf);
  }
  // ALL active configurations: a snapshot taken inside a reconfiguration
  // window has two, and a joiner seeded with only the first would run
  // consensus against a stale membership.
  capture.configs = raft_->active_configs();
  snapshot_capture_ = std::move(capture);
  snapshot_metrics_.taken->Inc();
}

void Node::MaybeCommitSnapshotEvidence() {
  if (!snapshot_capture_.has_value() || !raft_->IsPrimary()) return;
  if (encryptor_ == nullptr) return;
  const SnapshotCapture& capture = *snapshot_capture_;
  SnapshotBundle bundle =
      BuildBundle(capture.state, capture.seqno, capture.view, ledger_secret_,
                  capture.leaves, capture.configs);

  kv::Tx tx = store_.BeginTx();
  tx.Handle(tables::kSnapshotEvidence)
      ->PutStr(tables::kCurrentKey, ToString(EvidenceRecord(bundle)));
  auto committed = CommitAndReplicate(&tx, ledger::EntryType::kInternal);
  if (!committed.ok()) {
    // e.g. a concurrent write raced the tx; retry on the next tick.
    return;
  }
  snapshot_capture_.reset();
  bundle.evidence_seqno = committed->seqno;
  auto entry = host_ledger_.Get(committed->seqno);
  if (!entry.ok()) {
    LOG_ERROR << config_.node_id << " evidence entry missing from ledger";
    return;
  }
  bundle.evidence_entry = (*entry)->Serialize();
  pending_bundle_ = std::move(bundle);
  snapshot_metrics_.evidence_committed->Inc();
}

void Node::MaybePersistSnapshot() {
  if (!pending_bundle_.has_value() || !raft_->IsPrimary()) return;
  if (ReceiptableUpto() < pending_bundle_->evidence_seqno) return;
  auto receipt = BuildReceipt(pending_bundle_->evidence_seqno);
  if (!receipt.ok()) return;  // signature not committed yet; next tick
  pending_bundle_->receipt = receipt->Serialize();
  // Self-check before shipping: anything that fails here would fail on
  // every joiner and make the snapshot worse than useless.
  Status verified = VerifyBundle(
      *pending_bundle_,
      ByteSpan(service_identity_.data(), service_identity_.size()));
  if (!verified.ok()) {
    LOG_ERROR << config_.node_id << " snapshot bundle failed self-check: "
              << verified.ToString();
    pending_bundle_.reset();
    return;
  }
  latest_bundle_ = std::move(pending_bundle_);
  pending_bundle_.reset();

  tee::SnapshotWrite msg;
  msg.seqno = latest_bundle_->seqno;
  msg.bundle = latest_bundle_->Serialize();
  if (!boundary_.EnclaveSend(kSnapshotWrite, msg.Serialize())) {
    LOG_WARN << config_.node_id << " boundary outbox full, dropping snapshot";
  }
  snapshot_metrics_.persisted->Inc();
}

void Node::MaybeCompactRaftLog() {
  if (raft_ == nullptr || !raft_->IsPrimary() || !latest_bundle_.has_value()) {
    return;
  }
  // Entries below the snapshot horizon are droppable once every
  // replication target's match index has passed them: nobody can need them
  // from the log any more, and anyone who falls further behind gets the
  // bundle instead. CompactTo additionally clamps to the commit point.
  raft_->CompactTo(
      std::min(latest_bundle_->seqno, raft_->MinPeerMatch()));
  for (const std::string& peer : raft_->peers_needing_snapshot()) {
    auto it = offered_catchup_.find(peer);
    if (it != offered_catchup_.end() && it->second >= latest_bundle_->seqno) {
      continue;  // this bundle was already offered; wait for the install
    }
    offered_catchup_[peer] = latest_bundle_->seqno;
    LOG_INFO << config_.node_id << " offering snapshot catch-up at "
             << latest_bundle_->seqno << " to " << peer;
    SendOnChannel(peer, kSnapshotCatchUp, latest_bundle_->Serialize());
  }
}

void Node::HandleSnapshotCatchUp(const std::string& peer, ByteSpan body) {
  if (raft_ == nullptr || raft_->IsPrimary()) return;
  auto bundle = SnapshotBundle::Deserialize(body);
  if (!bundle.ok()) {
    LOG_WARN << config_.node_id << " undecodable catch-up snapshot from "
             << peer;
    return;
  }
  if (bundle->seqno <= raft_->commit_seqno()) return;  // stale offer
  if (encryptor_ == nullptr) return;  // no ledger secret yet
  uint64_t seqno = bundle->seqno;
  Status installed = InstallBundle(bundle.take());
  if (!installed.ok()) {
    LOG_WARN << config_.node_id << " rejecting catch-up snapshot from "
             << peer << ": " << installed.ToString();
    return;
  }
  LOG_INFO << config_.node_id << " installed catch-up snapshot at " << seqno
           << " from " << peer;
}

Status Node::InstallBundle(SnapshotBundle bundle) {
  // Everything in the bundle is untrusted until its evidence receipt
  // verifies against the pinned service identity (paper §4.4).
  RETURN_IF_ERROR(VerifyBundle(
      bundle, ByteSpan(service_identity_.data(), service_identity_.size())));
  ASSIGN_OR_RETURN(kv::State state, RestoreState(bundle, ledger_secret_));
  ledger::Ledger rebased;
  RETURN_IF_ERROR(rebased.SetBase(bundle.seqno));

  // Re-base wholesale: raft drops the local log, committed or not. The
  // Merkle tree rebuilds from the bundle's leaves; our committed leaves
  // are a prefix of them, so committed signed roots stay valid. Signed
  // roots past our commit point came from uncommitted entries that may
  // have diverged from the bundle's history, so they go (as on rollback).
  // The host ledger restarts at the bundle's seqno.
  const uint64_t committed = raft_ != nullptr ? raft_->commit_seqno() : 0;
  store_.InstallState(std::move(state), bundle.seqno);
  tree_.Truncate(0);
  tree_.AppendLeafHashes(bundle.leaves);
  tx_digests_.clear();
  tx_digests_.resize(bundle.seqno);  // digests for old entries are unknown
  signed_roots_.erase(signed_roots_.upper_bound(committed),
                      signed_roots_.end());
  pending_sig_verifies_.clear();  // local entries past the base are dropped
  host_ledger_ = std::move(rebased);
  if (raft_ == nullptr) {
    raft_ = std::make_unique<consensus::RaftNode>(consensus::RaftNode::Joiner(
        config_.node_id, config_.raft, bundle.view, bundle.seqno,
        bundle.configs, this));
    raft_->BindMetrics(&metrics_);
  } else {
    raft_->InstallSnapshot(bundle.seqno, bundle.view, bundle.configs);
  }
  latest_bundle_ = std::move(bundle);
  return Status::Ok();
}

void Node::HostStoreSnapshot(ByteSpan payload) {
  auto msg = tee::SnapshotWrite::Deserialize(payload);
  if (!msg.ok()) return;
  sim::HostFaults faults =
      env_ != nullptr ? env_->HostFaultsFor(config_.node_id) : sim::HostFaults{};
  auto bernoulli = [&](double p) {
    return p > 0.0 && host_drbg_.Uniform(10000) < static_cast<uint64_t>(p * 10000);
  };
  if (bernoulli(faults.snapshot_drop)) {
    snapshot_metrics_.persist_drops->Inc();
    return;  // the next snapshot interval produces a fresh bundle
  }
  if (bernoulli(faults.snapshot_corrupt) && !msg->bundle.empty()) {
    msg->bundle[host_drbg_.Uniform(msg->bundle.size())] ^= 0x01;
    snapshot_metrics_.persist_corrupts->Inc();
  }
  // The host stores the bundle as opaque bytes; verification happens in
  // the enclave of whoever loads it (joiner or recovery node).
  host_snapshot_bundle_ = std::move(msg->bundle);
  host_snapshot_seqno_ = msg->seqno;
  if (config_.snapshot_retire_ledger) {
    Status retired = host_ledger_.RetireBelow(msg->seqno);
    if (!retired.ok()) {
      LOG_WARN << config_.node_id << " chunk retirement: "
               << retired.ToString();
    }
  }
}

Status Node::SaveSnapshotToDir(const std::string& dir) const {
  if (host_snapshot_seqno_ == 0) {
    return Status::NotFound("host holds no snapshot bundle");
  }
  return SaveRawBundleToDir(host_snapshot_bundle_, host_snapshot_seqno_, dir);
}

void Node::MaybeCompleteRetirements() {
  // Paper §4.5: once the reconfiguration transaction that set a node to
  // RETIRING has committed (removing it from the configuration), the
  // primary adds a second transaction marking it RETIRED; after that
  // commits the node can be shut down.
  if (raft_ == nullptr || !raft_->IsPrimary()) return;
  const kv::MapEntry* map =
      store_.current_state().maps.Get(std::string(tables::kNodesInfo));
  if (map == nullptr) return;
  std::vector<std::string> to_retire;
  map->data.ForEach([&](const Bytes& key, const kv::VersionedValue& vv) {
    if (vv.version > raft_->commit_seqno()) return true;  // not committed
    auto j = json::Parse(ToString(vv.value));
    if (j.ok() && j->GetString("status") == "Retiring") {
      to_retire.push_back(ToString(key));
    }
    return true;
  });
  // Drop learners that have fully caught up on a committed retirement.
  std::vector<std::string> done;
  for (const std::string& learner : raft_->learners()) {
    auto raw = store_.GetStr(tables::kNodesInfo, learner);
    if (!raw.has_value()) continue;
    auto j = json::Parse(*raw);
    if (j.ok() && j->GetString("status") == "Retired" &&
        raft_->PeerCaughtUp(learner)) {
      done.push_back(learner);
    }
  }
  for (const std::string& learner : done) raft_->RemoveLearner(learner);

  if (to_retire.empty()) return;
  kv::Tx tx = store_.BeginTx();
  for (const std::string& node_id : to_retire) {
    auto record = gov::ReadRecord(tx.Handle(tables::kNodesInfo), node_id);
    if (!record.ok()) continue;
    auto info = gov::NodeInfo::FromJson(*record);
    if (!info.ok()) continue;
    info->status = gov::NodeStatus::kRetired;
    gov::WriteRecord(tx.Handle(tables::kNodesInfo), node_id, info->ToJson());
    LOG_INFO << config_.node_id << " marking " << node_id << " Retired";
  }
  auto committed = CommitAndReplicate(&tx, ledger::EntryType::kReconfiguration);
  if (!committed.ok()) {
    LOG_DEBUG << "retirement completion failed: "
              << committed.status().ToString();
  }
}

void Node::HandleOwnRetirement() {
  if (retired_) return;
  auto raw = store_.GetStr(tables::kNodesInfo, config_.node_id);
  if (!raw.has_value()) return;
  auto j = json::Parse(*raw);
  if (!j.ok()) return;
  if (j->GetString("status") == "Retired") {
    // Only final once committed.
    const kv::MapEntry* map = store_.current_state().maps.Get(
        std::string(tables::kNodesInfo));
    if (map != nullptr && map->version <= raft_->commit_seqno()) {
      retired_ = true;
      LOG_INFO << config_.node_id << " retired and may shut down";
    }
  }
}

Result<Bytes> Node::ExtractRecoveryShare(const std::string& member_id,
                                         const crypto::KeyPair& member_key) {
  kv::Tx tx = store_.BeginTx();
  return gov::ShareManager::ExtractMemberShare(&tx, member_id, member_key);
}

}  // namespace ccf::node
