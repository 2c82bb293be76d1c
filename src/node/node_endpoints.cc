// Session handling, request dispatch, built-in endpoints, the join
// protocol, and disaster recovery for ccf::node::Node.

#include <algorithm>
#include <chrono>

#include "common/buffer.h"
#include "common/hex.h"
#include "common/logging.h"
#include "gov/constitution.h"
#include "gov/proposals.h"
#include "kv/tables.h"
#include "node/node.h"
#include "node/wire.h"
#include "rpc/openapi.h"
#include "script/interp.h"
#include "tee/attestation.h"

namespace ccf::node {

namespace tables = kv::tables;

namespace {

// Verifies the detached governance request signature (COSE-Sign1 analogue):
// x-ccf-signature header = hex signature over SHA-256 of the body, under
// the caller's certificate key.
Status VerifyGovSignature(const http::Request& request,
                          const rpc::CallerIdentity& caller) {
  if (!caller.cert.has_value()) {
    return Status::Unauthenticated("governance requires a member certificate");
  }
  std::string sig_hex = request.GetHeader("x-ccf-signature");
  if (sig_hex.empty()) {
    return Status::Unauthenticated(
        "governance writes must be signed (x-ccf-signature)");
  }
  auto sig = HexDecode(sig_hex);
  if (!sig.ok()) return Status::Unauthenticated("malformed signature");
  auto digest = crypto::Sha256::Hash(request.body);
  if (!crypto::Verify(caller.cert->public_key,
                      ByteSpan(digest.data(), digest.size()), *sig)) {
    return Status::Unauthenticated("bad governance request signature");
  }
  return Status::Ok();
}

}  // namespace

// --------------------------------------------------------------- sessions

void Node::HandleSessionRecord(const std::string& peer, ByteSpan record) {
  // A joining node acts as the STLS *client* towards its target.
  if (join_pending_ && peer == join_target_) {
    HandleJoinResponseRecord(record);
    return;
  }

  auto it = sessions_.find(peer);
  bool is_hello = !record.empty() && record[0] == 1;  // kClientHello
  if (it == sessions_.end() || is_hello) {
    UserSession session;
    session.stls = std::make_unique<rpc::ServerSession>(&node_key_,
                                                        node_cert_, &drbg_);
    it = sessions_.insert_or_assign(peer, std::move(session)).first;
  }
  auto out = it->second.stls->OnRecord(record);
  if (!out.ok()) {
    LOG_DEBUG << config_.node_id << " session error from " << peer << ": "
              << out.status().ToString();
    sessions_.erase(it);
    return;
  }
  if (!out->to_send.empty()) {
    EnclaveSendNet(peer, WrapWire(kSessionRecord, out->to_send));
  }
  for (const Bytes& app_data : out->app_data) {
    it->second.parser.Feed(app_data);
  }
  while (true) {
    auto req = it->second.parser.Next();
    if (!req.ok()) {
      // Malformed HTTP: answer 400 and drop the connection (the parser
      // state is poisoned, nothing after this is trustworthy). Flush the
      // batch first so earlier pipelined responses keep their order.
      FlushExecBatch();
      if (sessions_.find(peer) != sessions_.end()) {
        http::Response resp = rpc::ErrorResponse(400, "InvalidRequestBody",
                                                 "malformed request");
        resp.headers["connection"] = "close";
        RespondToSession(peer, resp);
      }
      CloseUserSession(peer);
      return;
    }
    if (!req->has_value()) break;
    DispatchRequest(peer, **req);
    // Dispatch may have torn down the session (error or close path).
    it = sessions_.find(peer);
    if (it == sessions_.end()) break;
  }
}

void Node::RespondToSession(const std::string& session_peer,
                            const http::Response& response) {
  auto it = sessions_.find(session_peer);
  if (it == sessions_.end()) return;
  UserSession& session = it->second;
  if (session.in_flight > 0) --session.in_flight;
  if (session.close_after && session.in_flight == 0) {
    // Last pipelined response on a closing connection: announce the close
    // in the response, then tear the session down.
    http::Response last = response;
    last.headers["connection"] = "close";
    auto record = session.stls->Seal(last.Serialize());
    if (record.ok()) {
      EnclaveSendNet(session_peer, WrapWire(kSessionRecord, *record));
    }
    CloseUserSession(session_peer);
    return;
  }
  auto record = session.stls->Seal(response.Serialize());
  if (record.ok()) {
    EnclaveSendNet(session_peer, WrapWire(kSessionRecord, *record));
  }
}

void Node::CloseUserSession(const std::string& session_peer) {
  sessions_.erase(session_peer);
  // Ask the host to close the underlying connection once everything
  // already queued ahead has been flushed. Best effort: the simulator has
  // no connections and ignores it, and on a full ring the disconnect will
  // surface through the transport anyway.
  tee::SessionControl msg{session_peer};
  boundary_.EnclaveSend(tee::kCloseSession, msg.Serialize());
}

// ----------------------------------------------------------------- auth

Result<rpc::CallerIdentity> Node::Authenticate(
    const std::optional<crypto::Certificate>& session_cert) {
  rpc::CallerIdentity caller;
  if (!session_cert.has_value()) return caller;
  caller.cert = session_cert;
  std::string cert_hex = HexEncode(session_cert->Serialize());

  // Scan the identity maps for a record with this certificate; the map key
  // is the principal's id (paper Table 3 / Listing 2 style).
  auto scan = [&](const char* table, bool* flag) {
    const kv::MapEntry* map =
        store_.current_state().maps.Get(std::string(table));
    if (map == nullptr) return;
    map->data.ForEach([&](const Bytes& key, const kv::VersionedValue& vv) {
      auto j = json::Parse(ToString(vv.value));
      if (j.ok() && j->GetString("cert") == cert_hex) {
        caller.id = ToString(key);
        *flag = true;
        return false;
      }
      return true;
    });
  };
  scan(tables::kUsersCerts, &caller.is_user);
  if (!caller.is_user) scan(tables::kMembersCerts, &caller.is_member);
  if (caller.id.empty()) caller.id = session_cert->Fingerprint();
  return caller;
}

Status Node::CheckAuthPolicy(rpc::AuthPolicy policy,
                             const rpc::CallerIdentity& caller) {
  switch (policy) {
    case rpc::AuthPolicy::kNoAuth:
      return Status::Ok();
    case rpc::AuthPolicy::kUserCert:
      if (!caller.is_user) {
        return Status::PermissionDenied("requires a registered user cert");
      }
      return Status::Ok();
    case rpc::AuthPolicy::kMemberCert:
      if (!caller.is_member) {
        return Status::PermissionDenied("requires a consortium member cert");
      }
      return Status::Ok();
    case rpc::AuthPolicy::kAnyCert:
      if (!caller.is_user && !caller.is_member) {
        return Status::PermissionDenied("requires a registered cert");
      }
      return Status::Ok();
  }
  return Status::Internal("unknown auth policy");
}

// -------------------------------------------------------------- dispatch

void Node::DispatchRequest(const std::string& session_peer,
                           const http::Request& request) {
  auto session_it = sessions_.find(session_peer);
  if (session_it == sessions_.end()) return;
  UserSession& session = session_it->second;

  // HTTP keep-alive hardening (live clients): track pipelining depth and
  // honour "connection: close". Responses land through RespondToSession,
  // which closes the connection once the last in-flight response drains.
  ++session.in_flight;
  if (request.GetHeader("connection") == "close") {
    session.close_after = true;
  }
  if (config_.http_max_pipeline > 0 &&
      session.in_flight > config_.http_max_pipeline) {
    // Flush first so earlier pipelined responses keep their order; the
    // flush can itself retire this session, so re-find it.
    FlushExecBatch();
    if (auto it = sessions_.find(session_peer); it != sessions_.end()) {
      it->second.close_after = true;
      RespondToSession(session_peer,
                       rpc::ErrorResponse(503, "ServiceUnavailable",
                                          "pipeline depth exceeded"));
    }
    return;
  }

  auto caller = Authenticate(session.stls->peer_cert());
  if (!caller.ok()) {
    // Flush first so responses stay ordered per connection.
    FlushExecBatch();
    RespondToSession(session_peer,
                     rpc::ErrorResponse(401, "Unauthorized",
                                        caller.status().ToString()));
    return;
  }

  // One classification for native and scripted endpoints: read-only
  // endpoints are served by any node (paper §4.3); writes go to the
  // primary. Session consistency: once forwarded, always forwarded.
  ResolvedEndpoint re = ResolveEndpoint(request.method, request.path);

  // Declared request schemas are enforced at the door (DESIGN.md §14):
  // a violating body is rejected with a structured 400 before the request
  // is batched, forwarded, or allowed to open a KV transaction. Schemas
  // are public (served at /app/api), so validating before auth leaks
  // nothing. Forwarded requests are re-checked on the primary.
  if (auto rejected = CheckRequestSchemaFor(re, request);
      rejected.has_value()) {
    // Flush first so earlier pipelined responses keep their order.
    FlushExecBatch();
    RespondToSession(session_peer, *rejected);
    return;
  }

  bool must_forward = (!re.read_only || session.sticky_forwarding) &&
                      raft_ != nullptr && !raft_->IsPrimary();
  if (must_forward) {
    FlushExecBatch();
    if (auto it = sessions_.find(session_peer); it != sessions_.end()) {
      it->second.sticky_forwarding = true;
      ForwardToPrimary(session_peer, request, *caller);
    }
    return;
  }
  if (re.found && re.exec_parallel) {
    // Batched optimistic execution (DESIGN.md §12). Eligibility must not
    // depend on exec_threads: every setting takes the batch path, and the
    // batch path itself is scheduling-independent (the pool's synchronous
    // mode runs jobs inline in the same order a blocking drain retires
    // them), so exec_threads 0 and N produce bit-identical runs.
    if (exec_batch_.empty()) exec_batch_opened_ms_ = now_ms_;
    exec_batch_.push_back(
        ExecBatchItem{session_peer, request, *caller, std::move(re)});
    // The size threshold fires as soon as it is met -- even mid-drain --
    // so memory stays bounded and batches form at exactly exec_batch_max
    // under sustained load (a no-op with the policy disabled).
    if (config_.exec_batch_max > 0 &&
        exec_batch_.size() >= config_.exec_batch_max) {
      exec_metrics_.flush_size->Inc();
      FlushExecBatch();
    }
    return;
  }
  FlushExecBatch();
  http::Response response = ExecuteRequest(request, *caller);
  RespondToSession(session_peer, response);
}

void Node::ForwardToPrimary(const std::string& session_peer,
                            const http::Request& request,
                            const rpc::CallerIdentity& caller) {
  auto leader = raft_ != nullptr ? raft_->leader() : std::nullopt;
  if (!leader.has_value() || *leader == config_.node_id) {
    RespondToSession(session_peer,
                     rpc::ErrorResponse(503, "ServiceUnavailable",
                                        "no known primary, retry"));
    return;
  }
  uint64_t corr = next_correlation_++;
  pending_forwards_[corr] = session_peer;
  BufWriter w;
  w.U64(corr);
  w.Bool(caller.cert.has_value());
  if (caller.cert.has_value()) {
    w.Blob(caller.cert->Serialize());
  }
  w.Blob(request.Serialize());
  SendOnChannel(*leader, kForwardRequest, w.data());
}

http::Response Node::ExecuteRequest(const http::Request& request,
                                    const rpc::CallerIdentity& caller) {
  auto t0 = std::chrono::steady_clock::now();
  http::Response response = ExecuteRequestInner(request, caller);
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  rpc::RecordEndpointMetrics(&metrics_, request.method,
                             http::ParseTarget(request.path).path,
                             response.status, static_cast<uint64_t>(us));
  return response;
}

Node::ResolvedEndpoint Node::ResolveEndpoint(const std::string& method,
                                             const std::string& target) {
  ResolvedEndpoint re;
  re.path = http::ParseTarget(target).path;
  re.spec = registry_.Find(method, re.path);
  if (re.spec != nullptr) {
    re.found = true;
    re.read_only = re.spec->read_only;
    re.exec_parallel = re.spec->exec_parallel;
    re.auth = re.spec->auth;
    return re;
  }
  auto scripted = store_.GetStr(tables::kEndpoints, method + " " + re.path);
  if (!scripted.has_value()) return re;
  auto j = json::Parse(*scripted);
  if (!j.ok()) return re;
  re.found = true;
  re.is_scripted = true;
  re.scripted_spec = std::move(*j);
  re.read_only = re.scripted_spec.GetBool("readonly");
  // Scripted handlers run in a fresh per-request interpreter whose only
  // shared state is the transaction, so they are always batchable.
  re.exec_parallel = true;
  std::string auth = re.scripted_spec.GetString("auth", "no_auth");
  if (auth == "user_cert") re.auth = rpc::AuthPolicy::kUserCert;
  if (auth == "member_cert") re.auth = rpc::AuthPolicy::kMemberCert;
  if (auth == "any_cert") re.auth = rpc::AuthPolicy::kAnyCert;
  return re;
}

// Methods other than `method` that could serve `path` -- native registry
// entries plus scripted endpoints from the store. Non-empty means the
// request should fail 405 (method mismatch) rather than 404 (no such
// path), with the list joined into the Allow: header.
std::vector<std::string> Node::AllowedMethodsForPath(
    const std::string& method, const std::string& path) {
  std::vector<std::string> allowed = registry_.MethodsForPath(path);
  // Scripted endpoints are keyed "METHOD path" in the store; probe the
  // verbs the framework routes rather than scanning the whole table.
  for (const char* m : {"DELETE", "GET", "POST", "PUT"}) {
    if (method != m &&
        store_.GetStr(tables::kEndpoints, std::string(m) + " " + path)
            .has_value()) {
      allowed.emplace_back(m);
    }
  }
  std::sort(allowed.begin(), allowed.end());
  allowed.erase(std::unique(allowed.begin(), allowed.end()), allowed.end());
  allowed.erase(std::remove(allowed.begin(), allowed.end(), method),
                allowed.end());
  return allowed;
}

std::optional<http::Response> Node::CheckRequestSchemaFor(
    const ResolvedEndpoint& re, const http::Request& request) {
  if (!re.found || re.is_scripted || re.spec == nullptr ||
      re.spec->request_schema == nullptr) {
    return std::nullopt;
  }
  // Same parse as EndpointContext::Params: an empty body validates as {}.
  Result<json::Value> body =
      request.body.empty() ? Result<json::Value>(json::Value(json::Object{}))
                           : json::Parse(ToString(request.body));
  return rpc::CheckRequestSchema(*re.spec, body);
}

http::Response Node::ExecuteRequestInner(const http::Request& request,
                                         const rpc::CallerIdentity& caller) {
  http::Response error;
  ResolvedEndpoint re = ResolveEndpoint(request.method, request.path);
  if (!re.found) {
    std::vector<std::string> allowed =
        AllowedMethodsForPath(request.method, re.path);
    if (!allowed.empty()) {
      std::string joined;
      for (const std::string& m : allowed) {
        if (!joined.empty()) joined += ", ";
        joined += m;
      }
      error = rpc::ErrorResponse(405, "MethodNotAllowed",
                                 request.method + " is not supported here; "
                                 "Allow: " + joined);
      error.headers["allow"] = joined;
      return error;
    }
    return rpc::ErrorResponse(404, "ResourceNotFound", "no such endpoint");
  }

  // Forwarded requests reach this node without passing the entry node's
  // dispatch-time schema gate in this process; re-check before any
  // transaction is opened.
  if (auto rejected = CheckRequestSchemaFor(re, request);
      rejected.has_value()) {
    return *rejected;
  }

  // Optimistic execution with re-execution on conflict (paper §6.4).
  const size_t attempts = config_.exec_max_retries + 1;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    kv::Tx tx = store_.BeginTx();
    http::Response resp = ExecuteOnTx(re, request, caller, &tx);
    if (resp.status >= 400) {
      return resp;  // failed requests leave no trace in the ledger
    }
    auto stamp_uncommitted = [&](http::Response* r) {
      r->headers[http::kTxIdHeader] =
          consensus::TxId{ViewAtSeqno(store_.current_seqno()),
                          store_.current_seqno()}
              .ToString();
    };
    if (re.read_only) {
      if (!re.is_scripted && tx.has_writes()) {
        return rpc::ErrorResponse(500, "InternalError",
                                  "read-only endpoint wrote");
      }
      stamp_uncommitted(&resp);
      return resp;
    }
    if (re.is_scripted && !tx.has_writes()) {
      stamp_uncommitted(&resp);
      return resp;
    }
    ledger::EntryType entry_type =
        !re.is_scripted && re.path.rfind("/gov/", 0) == 0
            ? ledger::EntryType::kGovernance
            : ledger::EntryType::kUser;
    auto committed = CommitAndReplicate(&tx, entry_type);
    if (!committed.ok()) {
      if (committed.status().code() == Status::Code::kAborted) {
        continue;  // conflict: re-execute
      }
      return rpc::ErrorResponse(503, "ServiceUnavailable",
                                committed.status().message());
    }
    resp.headers[http::kTxIdHeader] = committed->ToString();
    return resp;
  }
  return rpc::ErrorResponse(409, "Conflict", "transaction conflict");
}

http::Response Node::ExecuteOnTx(const ResolvedEndpoint& re,
                                 const http::Request& request,
                                 const rpc::CallerIdentity& caller,
                                 kv::Tx* tx) {
  // The application is only reachable once the service is open (paper §5).
  if (re.path.rfind("/app/", 0) == 0 &&
      service_status() != gov::ServiceStatus::kOpen) {
    return rpc::ErrorResponse(503, "ServiceUnavailable",
                              "service is not open");
  }
  Status auth_ok = CheckAuthPolicy(re.auth, caller);
  if (!auth_ok.ok()) {
    return rpc::ErrorResponse(401, "Unauthorized", auth_ok.message());
  }
  if (re.is_scripted) {
    return ExecuteScriptedOnTx(re.scripted_spec, request, caller, tx);
  }
  rpc::EndpointContext ctx(tx, &request, caller);
  re.spec->handler(&ctx);
  return std::move(ctx.response());
}

http::Response Node::ExecuteScriptedOnTx(const json::Value& spec,
                                         const http::Request& request,
                                         const rpc::CallerIdentity& caller,
                                         kv::Tx* tx) {
  http::Response resp;
  auto module = store_.GetStr(tables::kModules, "app");
  if (!module.has_value()) {
    return rpc::ErrorResponse(500, "InternalError",
                              "no scripted app installed");
  }
  std::string handler = spec.GetString("handler");
  bool read_only = spec.GetBool("readonly");

  // Fresh interpreter per request, like CCF's per-request JS runtime; the
  // transaction is the only state it shares with anything else, which is
  // what makes scripted endpoints batchable.
  script::Interpreter interp;
  gov::BindKvNatives(&interp, tx, read_only);
  auto program = script::Compile(*module);
  if (!program.ok()) {
    return rpc::ErrorResponse(500, "InternalError",
                              "app module does not compile");
  }
  if (!interp.Run(*program).ok()) {
    return rpc::ErrorResponse(500, "InternalError",
                              "app module failed to initialize");
  }

  script::Object req_obj;
  req_obj["method"] = script::Value(request.method);
  req_obj["path"] = script::Value(request.path);
  req_obj["body"] = script::Value(ToString(request.body));
  req_obj["caller_id"] = script::Value(caller.id);
  auto params = json::Parse(ToString(request.body));
  req_obj["params"] = params.ok() ? script::Value::FromJson(*params)
                                  : script::Value();
  auto result = interp.Call(handler, {script::Value(std::move(req_obj))});
  if (!result.ok()) {
    return rpc::ErrorResponse(500, "InternalError",
                              result.status().message());
  }

  // Handler returns {status, body} (object body is JSON-serialized).
  int status = 200;
  std::string body;
  if (result->is_object()) {
    const script::Object& obj = *result->AsObject();
    auto sit = obj.find("status");
    if (sit != obj.end() && sit->second.is_number()) {
      status = static_cast<int>(sit->second.AsNumber());
    }
    auto bit = obj.find("body");
    if (bit != obj.end()) {
      if (bit->second.is_string()) {
        body = bit->second.AsString();
      } else {
        auto j = bit->second.ToJson();
        if (j.ok()) body = j->Dump();
      }
    }
  } else if (result->is_string()) {
    body = result->AsString();
  }
  // Normalize scripted error responses onto the standard envelope: CCL
  // handlers return {status: 4xx, body: {error: "msg"}} with a flat
  // string; rewrap it as {"error": {"code", "message"}} so native and
  // scripted endpoints fail identically. Bodies already carrying an
  // error object pass through untouched.
  if (status >= 400) {
    auto parsed = json::Parse(body);
    const json::Value* err =
        parsed.ok() && parsed->is_object() ? parsed->Get("error") : nullptr;
    if (err != nullptr && err->is_string()) {
      body = rpc::ErrorBody(rpc::DefaultErrorCode(status), err->AsString())
                 .Dump();
    } else if (err == nullptr || !err->is_object()) {
      body = rpc::ErrorBody(rpc::DefaultErrorCode(status), body).Dump();
    }
    resp.headers["content-type"] = "application/json";
  }
  resp.status = status;
  resp.body = ToBytes(body);
  // Commit/abort handling and TxId stamping happen at the caller's serial
  // commit point (ExecuteRequestInner or CommitBatchedItem).
  return resp;
}

// ------------------------------------------------------ batched execution

void Node::FlushExecBatch() {
  if (exec_batch_.empty()) return;
  const size_t n = exec_batch_.size();
  exec_metrics_.batches->Inc();
  exec_metrics_.requests->Inc(n);
  exec_metrics_.batch_size->Record(static_cast<uint64_t>(n));

  // Phase A: every item opens a transaction off the same store head *at
  // flush time* (with a deferred flush policy, commits -- signatures,
  // other traffic -- may land between enqueue and flush; OCC validation
  // covers them like any other predecessor), then all handlers execute
  // on the exec pool against that shared immutable snapshot (paper §3.4).
  // Each job touches only its own slot, so the results are independent of
  // worker scheduling; with exec_threads == 0 the pool runs the jobs
  // inline in submission order, which is exactly the order a blocking
  // drain retires them -- the two modes are bit-identical.
  std::vector<kv::Tx> txs;
  txs.reserve(n);
  for (size_t i = 0; i < n; ++i) txs.push_back(store_.BeginTx());
  std::vector<http::Response> responses(n);
  std::vector<uint64_t> wall_us(n, 0);
  std::vector<tee::WorkerPool::Job> jobs;
  jobs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    jobs.push_back([this, i, &txs, &responses, &wall_us] {
      const ExecBatchItem& item = exec_batch_[i];
      auto t0 = std::chrono::steady_clock::now();
      responses[i] = ExecuteOnTx(item.re, item.request, item.caller, &txs[i]);
      wall_us[i] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    });
  }
  exec_pool_.SubmitBatch(std::move(jobs));
  exec_pool_.Drain(/*wait_all=*/true);

  // Phase B: single serial commit point, in submission order. Writers
  // validate against whatever committed before them (including earlier
  // members of this batch) and re-execute serially on conflict.
  for (size_t i = 0; i < n; ++i) {
    const ExecBatchItem& item = exec_batch_[i];
    http::Response out =
        CommitBatchedItem(item, &txs[i], std::move(responses[i]));
    rpc::RecordEndpointMetrics(&metrics_, item.request.method, item.re.path,
                               out.status, wall_us[i]);
    RespondToSession(item.session_peer, out);
  }
  exec_batch_.clear();
}

http::Response Node::CommitBatchedItem(const ExecBatchItem& item, kv::Tx* tx,
                                       http::Response resp) {
  if (resp.status >= 400) {
    return resp;  // failed requests leave no trace in the ledger
  }
  auto stamp_uncommitted = [&](http::Response* r) {
    r->headers[http::kTxIdHeader] =
        consensus::TxId{ViewAtSeqno(store_.current_seqno()),
                        store_.current_seqno()}
            .ToString();
  };
  if (item.re.read_only) {
    // No validation needed: the handler saw one immutable committed
    // snapshot and wrote nothing, so it serializes at its snapshot.
    if (!item.re.is_scripted && tx->has_writes()) {
      return rpc::ErrorResponse(500, "InternalError",
                                "read-only endpoint wrote");
    }
    stamp_uncommitted(&resp);
    return resp;
  }

  ledger::EntryType entry_type =
      !item.re.is_scripted && item.re.path.rfind("/gov/", 0) == 0
          ? ledger::EntryType::kGovernance
          : ledger::EntryType::kUser;
  uint64_t reexecs = 0;
  std::optional<kv::Tx> retry_tx;
  kv::Tx* cur = tx;
  for (;;) {
    if (item.re.is_scripted && !cur->has_writes()) {
      stamp_uncommitted(&resp);
      break;
    }
    auto committed = CommitAndReplicate(cur, entry_type);
    if (committed.ok()) {
      resp.headers[http::kTxIdHeader] = committed->ToString();
      break;
    }
    if (committed.status().code() != Status::Code::kAborted) {
      resp = rpc::ErrorResponse(503, "ServiceUnavailable",
                                committed.status().message());
      break;
    }
    if (reexecs == 0) exec_metrics_.conflicts->Inc();
    if (reexecs >= config_.exec_max_retries) {
      exec_metrics_.aborts->Inc();
      resp = rpc::ErrorResponse(409, "Conflict", "transaction conflict");
      break;
    }
    ++reexecs;
    exec_metrics_.retries->Inc();
    // Serial re-execution against the latest committed head (paper §6.4:
    // business logic may run several times, its transaction is applied
    // exactly once).
    retry_tx.emplace(store_.BeginTx());
    cur = &*retry_tx;
    resp = ExecuteOnTx(item.re, item.request, item.caller, cur);
    if (resp.status >= 400) break;
  }
  metrics_
      .GetHistogram("exec.reexecs." + item.request.method + " " + item.re.path)
      ->Record(reexecs);
  return resp;
}

// --------------------------------------------------- framework endpoints

void Node::InstallFrameworkEndpoints() {
  using rpc::AuthPolicy;
  using rpc::EndpointContext;

  // Transaction status (paper §3.2, Figure 4).
  registry_.Install(
      "GET", "/node/tx",
      {[this](EndpointContext* ctx) {
         uint64_t view = ctx->ParamU64("view");
         uint64_t seqno = ctx->ParamU64("seqno");
         json::Object out;
         out["view"] = view;
         out["seqno"] = seqno;
         out["status"] = consensus::TxStatusName(
             raft_ != nullptr ? raft_->GetTxStatus(view, seqno)
                              : consensus::TxStatus::kUnknown);
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});

  registry_.Install(
      "GET", "/node/commit",
      {[this](EndpointContext* ctx) {
         uint64_t commit = raft_ != nullptr ? raft_->commit_seqno() : 0;
         json::Object out;
         out["view"] = ViewAtSeqno(commit);
         out["seqno"] = commit;
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});

  // Crypto op telemetry. Thin alias over the metrics registry (the
  // generic endpoint is GET /node/metrics); keeps the original flat keys.
  registry_.Install(
      "GET", "/node/crypto_ops",
      {[this](EndpointContext* ctx) {
         const merkle::MerkleTree::Stats& ts = tree_.stats();
         CryptoOpCounters ops = crypto_ops();
         json::Object out;
         out["merkle_leaf_hashes"] = ts.leaf_hashes;
         out["merkle_interior_hashes"] = ts.interior_hashes;
         out["merkle_batched_leaves"] = ts.batched_leaves;
         out["signs"] = ops.signs;
         out["signs_deferred"] = ops.signs_deferred;
         out["verifies_single"] = ops.verifies_single;
         out["verifies_batched"] = ops.verifies_batched;
         out["verify_batches"] = ops.verify_batches;
         out["verify_failures"] = ops.verify_failures;
         out["worker_threads"] = static_cast<uint64_t>(
             worker_pool_.worker_count());
         out["worker_jobs_submitted"] = worker_pool_.submitted();
         out["worker_jobs_drained"] = worker_pool_.drained();
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});

  // Generic metrics exposition: every registry metric, as JSON or (with
  // ?format=prometheus) Prometheus text. Only aggregate numbers cross
  // this boundary -- see DESIGN.md on what enclave code may record.
  registry_.Install(
      "GET", "/node/metrics",
      {[this](EndpointContext* ctx) {
         if (ctx->Param("format") == "prometheus") {
           http::Response& resp = ctx->response();
           resp.status = 200;
           resp.headers["content-type"] = "text/plain; version=0.0.4";
           resp.body = ToBytes(metrics_.ToPrometheus());
           return;
         }
         json::Object out;
         out["node_id"] = config_.node_id;
         out["metrics"] = metrics_.ToJson();
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});

  registry_.Install(
      "GET", "/node/network",
      {[this](EndpointContext* ctx) {
         json::Object out;
         out["view"] = raft_ != nullptr ? raft_->view() : 0;
         out["primary"] =
             raft_ != nullptr && raft_->leader().has_value()
                 ? json::Value(*raft_->leader())
                 : json::Value(nullptr);
         json::Object nodes;
         ctx->tx().Handle(tables::kNodesInfo)
             ->Foreach([&](const Bytes& key, const Bytes& value) {
               auto j = json::Parse(ToString(value));
               nodes[ToString(key)] =
                   j.ok() ? json::Value(j->GetString("status"))
                          : json::Value("?");
               return true;
             });
         out["nodes"] = std::move(nodes);
         out["service_status"] = gov::ServiceStatusName(service_status());
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});

  // Verifiable receipts (paper §3.5).
  registry_.Install(
      "GET", "/node/receipt",
      {[this](EndpointContext* ctx) {
         uint64_t seqno = ctx->ParamU64("seqno");
         auto receipt = BuildReceipt(seqno);
         if (!receipt.ok()) {
           ctx->SetError(404, receipt.status().message());
           return;
         }
         json::Object out;
         out["receipt"] = HexEncode(receipt->Serialize());
         out["view"] = receipt->view;
         out["seqno"] = receipt->seqno;
         out["root_seqno"] = receipt->signed_root.seqno;
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});

  // Join protocol (paper §4.4 / §5; a write, so it executes on the
  // primary via forwarding).
  registry_.Install("POST", "/node/join",
                    {[this](EndpointContext* ctx) { HandleJoinRequest(ctx); },
                     AuthPolicy::kNoAuth, /*read_only=*/false});

  // Governance (paper §5.1).
  registry_.Install(
      "POST", "/gov/propose",
      {[this](EndpointContext* ctx) {
         Status sig = VerifyGovSignature(ctx->request(), ctx->caller());
         if (!sig.ok()) {
           ctx->SetError(401, sig.message());
           return;
         }
         auto params = ctx->Params();
         if (!params.ok() || params->Get("proposal") == nullptr) {
           ctx->SetError(400, "body must contain {proposal}");
           return;
         }
         auto outcome = gov::ProposalManager::Submit(
             &ctx->tx(), ctx->caller().id, *params->Get("proposal"),
             ctx->request().body);
         if (!outcome.ok()) {
           ctx->SetError(400, outcome.status().message());
           return;
         }
         json::Object out;
         out["proposal_id"] = outcome->proposal_id;
         out["state"] = gov::ProposalStateName(outcome->state);
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kMemberCert, /*read_only=*/false});

  registry_.Install(
      "POST", "/gov/vote",
      {[this](EndpointContext* ctx) {
         Status sig = VerifyGovSignature(ctx->request(), ctx->caller());
         if (!sig.ok()) {
           ctx->SetError(401, sig.message());
           return;
         }
         auto params = ctx->Params();
         if (!params.ok()) {
           ctx->SetError(400, "bad body");
           return;
         }
         auto outcome = gov::ProposalManager::Vote(
             &ctx->tx(), ctx->caller().id,
             params->GetString("proposal_id"), params->GetString("ballot"),
             ctx->request().body);
         if (!outcome.ok()) {
           ctx->SetError(400, outcome.status().message());
           return;
         }
         json::Object out;
         out["proposal_id"] = outcome->proposal_id;
         out["state"] = gov::ProposalStateName(outcome->state);
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kMemberCert, /*read_only=*/false});

  registry_.Install(
      "GET", "/gov/proposal",
      {[this](EndpointContext* ctx) {
         std::string id = ctx->Param("id");
         auto proposal = gov::ProposalManager::GetProposal(&ctx->tx(), id);
         auto info = gov::ProposalManager::GetInfo(&ctx->tx(), id);
         if (!proposal.ok() || !info.ok()) {
           ctx->SetError(404, "no such proposal");
           return;
         }
         json::Object out;
         out["proposal"] = *proposal;
         out["info"] = info->ToJson();
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kMemberCert, /*read_only=*/true});

  // Disaster recovery share submission (paper §5.2).
  registry_.Install(
      "POST", "/gov/recovery_share",
      {[this](EndpointContext* ctx) { HandleRecoveryShareSubmission(ctx); },
       AuthPolicy::kMemberCert, /*read_only=*/false});

  // Historical-query / indexing telemetry (operator view of paper §3.4/3.6).
  registry_.Install(
      "GET", "/node/historical",
      {[this](EndpointContext* ctx) {
         const historical::StateCache::Stats& cs = historical_->stats();
         const indexing::Indexer::Stats& is = indexer_.stats();
         HistoricalCounters hc = historical_counters();
         json::Object out;
         out["cache_requests"] = cs.requests;
         out["cache_hits"] = cs.hits;
         out["cache_fetches"] = cs.fetches;
         out["cache_retries"] = cs.retries;
         out["cache_timeouts"] = cs.timeouts;
         out["cache_failures"] = cs.failures;
         out["cache_entries_accepted"] = cs.entries_accepted;
         out["cache_entries_rejected"] = cs.entries_rejected;
         out["cache_stale_responses"] = cs.stale_responses;
         out["cache_evictions"] = cs.evictions;
         out["cache_expired"] = cs.expired;
         out["cached_requests"] = static_cast<uint64_t>(
             historical_->cached_requests());
         out["indexed_upto"] = indexer_.indexed_upto();
         out["index_lag"] = indexer_.Lag(
             raft_ != nullptr ? raft_->commit_seqno() : 0);
         out["index_entries_fed"] = is.entries_fed;
         out["index_max_fed_per_tick"] = is.max_fed_per_tick;
         out["index_decode_failures"] = is.decode_failures;
         out["receiptable_upto"] = ReceiptableUpto();
         out["host_fetch_requests"] = hc.host_fetch_requests;
         out["host_fetch_responses"] = hc.host_fetch_responses;
         out["host_fetch_drops"] = hc.host_fetch_drops;
         out["host_fetch_corrupts"] = hc.host_fetch_corrupts;
         out["host_fetch_delays"] = hc.host_fetch_delays;
         out["host_fetch_reorders"] = hc.host_fetch_reorders;
         out["entries_verified"] = hc.entries_verified;
         out["entries_rejected"] = hc.entries_rejected;
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});

  registry_.Install(
      "GET", "/node/api",
      {[this](EndpointContext* ctx) {
         json::Array endpoints;
         for (const std::string& key : registry_.List()) {
           endpoints.emplace_back(key);
         }
         json::Object out;
         out["endpoints"] = std::move(endpoints);
         ctx->SetJsonResponse(200, json::Value(std::move(out)));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});

  // Generated OpenAPI 3.0 for every installed /app/ endpoint, schemas
  // included (DESIGN.md §14). The registry is immutable after node
  // construction and generation is pure, so the document is stable across
  // requests and across nodes running the same application.
  registry_.Install(
      "GET", "/app/api",
      {[this](EndpointContext* ctx) {
         rpc::OpenApiInfo info;
         info.title = "CCF application API";
         info.description =
             "Generated from this node's endpoint registry; scripted (CCL) "
             "endpoints are installed via governance and listed by "
             "GET /node/api instead.";
         ctx->SetJsonResponse(200, rpc::BuildOpenApi(registry_, info));
       },
       AuthPolicy::kNoAuth, /*read_only=*/true});
}

Result<merkle::Receipt> Node::BuildReceipt(uint64_t seqno) {
  if (raft_ == nullptr || seqno == 0 || seqno > raft_->commit_seqno()) {
    return Status::NotFound("transaction is not committed");
  }
  if (seqno > tx_digests_.size()) {
    return Status::NotFound("no digest recorded for seqno");
  }
  return BuildReceiptForDigests(ViewAtSeqno(seqno), seqno,
                                tx_digests_[seqno - 1].write_set,
                                tx_digests_[seqno - 1].claims);
}

Result<merkle::Receipt> Node::BuildReceiptForDigests(
    uint64_t view, uint64_t seqno, const crypto::Sha256Digest& write_set,
    const crypto::Sha256Digest& claims) {
  if (raft_ == nullptr || seqno == 0 || seqno > raft_->commit_seqno()) {
    return Status::NotFound("transaction is not committed");
  }
  // Find the first committed signature transaction whose signed root
  // covers seqno. Under worker_async the signature entry at key `first`
  // may carry a root over a shorter prefix (sr.seqno <= first), so the
  // value's boundary is what must clear seqno.
  auto it = signed_roots_.upper_bound(seqno);
  while (it != signed_roots_.end() &&
         (it->first > raft_->commit_seqno() || it->second.seqno <= seqno)) {
    ++it;
  }
  if (it == signed_roots_.end()) {
    return Status::Unavailable("no signature transaction covers this seqno");
  }
  const merkle::SignedRoot& sr = it->second;

  merkle::Receipt receipt;
  receipt.view = view;
  receipt.seqno = seqno;
  receipt.write_set_digest = write_set;
  receipt.claims_digest = claims;
  ASSIGN_OR_RETURN(receipt.proof, tree_.GetProof(seqno - 1, sr.seqno - 1));
  receipt.signed_root = sr;
  // The receipt carries the signing node's certificate. We may not be the
  // signer; look its certificate up in the store.
  if (sr.node_id == config_.node_id) {
    receipt.node_cert = node_cert_;
  } else {
    auto raw = store_.GetStr(tables::kNodesInfo, sr.node_id);
    if (!raw.has_value()) {
      return Status::Unavailable("signer certificate unknown");
    }
    ASSIGN_OR_RETURN(json::Value j, json::Parse(*raw));
    ASSIGN_OR_RETURN(gov::NodeInfo info, gov::NodeInfo::FromJson(j));
    receipt.node_cert = info.cert;
  }
  return receipt;
}

// ------------------------------------------------------------------ join

void Node::HandleJoinRequest(rpc::EndpointContext* ctx) {
  auto params = ctx->Params();
  if (!params.ok()) {
    ctx->SetError(400, "bad join body");
    return;
  }
  std::string joiner_id = params->GetString("node_id");
  std::string host = params->GetString("host");
  auto quote_bytes = HexDecode(params->GetString("quote"));
  auto pub_bytes = HexDecode(params->GetString("public_key"));
  if (joiner_id.empty() || !quote_bytes.ok() || !pub_bytes.ok() ||
      pub_bytes->size() != crypto::kPublicKeySize) {
    ctx->SetError(400, "join requires node_id, quote, public_key");
    return;
  }
  auto quote = tee::Quote::Deserialize(*quote_bytes);
  if (!quote.ok()) {
    ctx->SetError(400, "malformed quote");
    return;
  }
  // Attestation (paper §2): platform signature, report data binding, and
  // code id governance check (Listing 1: add_node_code).
  if (!tee::Platform::Global().VerifyQuote(*quote).ok()) {
    ctx->SetError(401, "attestation failed: bad platform signature");
    return;
  }
  crypto::PublicKeyBytes joiner_key{};
  std::copy(pub_bytes->begin(), pub_bytes->end(), joiner_key.begin());
  if (quote->report_data != tee::ReportDataForNodeKey(joiner_key)) {
    ctx->SetError(401, "attestation failed: report data mismatch");
    return;
  }
  if (!ctx->tx().Handle(tables::kNodesCodeIds)->HasStr(quote->code_id)) {
    ctx->SetError(401, "attestation failed: code id not trusted");
    return;
  }
  auto existing = ctx->tx().Handle(tables::kNodesInfo)->GetStr(joiner_id);
  if (existing.has_value()) {
    ctx->SetError(409, "node id already known");
    return;
  }
  if (service_key_ == nullptr || encryptor_ == nullptr) {
    ctx->SetError(503, "node holds no service secrets yet");
    return;
  }

  // Issue the node certificate and record the node as PENDING (Figure 6);
  // governance later transitions it to TRUSTED.
  crypto::Certificate joiner_cert = crypto::IssueCertificate(
      joiner_id, "node", joiner_key, *service_key_, "service");
  gov::NodeInfo info;
  info.node_id = joiner_id;
  info.status = gov::NodeStatus::kPending;
  info.cert = joiner_cert;
  info.code_id = quote->code_id;
  info.host = host;
  gov::WriteRecord(ctx->tx().Handle(tables::kNodesInfo), joiner_id,
                   info.ToJson());

  // Service secrets and catch-up state, protected by the STLS session.
  json::Object out;
  out["node_cert"] = HexEncode(joiner_cert.Serialize());
  out["service_cert"] = HexEncode(service_cert_.Serialize());
  out["service_key_seed"] =
      HexEncode(ByteSpan(service_key_->seed().data(), 32));
  out["ledger_secret"] = HexEncode(ledger_secret_.key);

  // Certificates of the current consensus peers. A joiner whose snapshot
  // predates them (or that starts with no snapshot at all) cannot derive
  // node-channel keys for them, yet the raft catch-up that would teach it
  // those keys is itself delivered over node channels. The joiner
  // verifies each certificate against the pinned service identity before
  // trusting it.
  json::Object peer_certs;
  for (const consensus::Configuration& cfg : raft_->active_configs()) {
    for (const std::string& nid : cfg.nodes) {
      if (peer_certs.count(nid) > 0) continue;
      auto record = gov::ReadRecord(ctx->tx().Handle(tables::kNodesInfo), nid);
      if (!record.ok()) continue;
      auto peer_info = gov::NodeInfo::FromJson(*record);
      if (!peer_info.ok()) continue;
      peer_certs[nid] = HexEncode(peer_info->cert.Serialize());
    }
  }
  out["peer_certs"] = std::move(peer_certs);

  // State transfer (paper §4.4: "nodes can begin from a snapshot and use
  // the consensus layer to simply learn the transactions since"). The
  // joiner checks the bundle's evidence receipt against the pinned service
  // identity before installing anything. Without a bundle the joiner gets
  // no state and replays the ledger from seqno 1 through catch-up,
  // starting from ALL active configurations: inside a reconfiguration
  // window there are two, and a joiner seeded with only the first would
  // run consensus against a stale membership.
  if (latest_bundle_.has_value()) {
    out["snapshot_bundle"] = HexEncode(latest_bundle_->Serialize());
  } else {
    json::Array config_json;
    for (const consensus::Configuration& cfg : raft_->active_configs()) {
      json::Object c;
      c["seqno"] = cfg.seqno;
      json::Array nodes;
      for (const std::string& n : cfg.nodes) nodes.emplace_back(n);
      c["nodes"] = std::move(nodes);
      config_json.push_back(json::Value(std::move(c)));
    }
    out["configurations"] = std::move(config_json);
  }
  ctx->SetJsonResponse(200, json::Value(std::move(out)));
}

void Node::StartJoin(const std::string& target_node) {
  join_pending_ = true;
  join_target_ = target_node;
  join_session_ = std::make_unique<rpc::ClientSession>(
      service_identity_, nullptr, std::nullopt, &drbg_);
  EnclaveSendNet(target_node,
                 WrapWire(kSessionRecord, join_session_->Start()));
}

void Node::HandleJoinResponseRecord(ByteSpan record) {
  auto out = join_session_->OnRecord(record);
  if (!out.ok()) {
    LOG_ERROR << config_.node_id << " join session failed: "
              << out.status().ToString();
    return;
  }
  if (out->established && !join_request_sent_) {
    join_request_sent_ = true;
    // Send the join request with our quote.
    tee::Quote quote = tee::Platform::Global().GenerateQuote(
        config_.code_id, tee::ReportDataForNodeKey(node_key_.public_key()));
    json::Object body;
    body["node_id"] = config_.node_id;
    body["host"] = config_.host;
    body["quote"] = HexEncode(quote.Serialize());
    body["public_key"] = HexEncode(
        ByteSpan(node_key_.public_key().data(), crypto::kPublicKeySize));
    http::Request req;
    req.method = "POST";
    req.path = "/node/join";
    req.body = ToBytes(json::Value(std::move(body)).Dump());
    auto sealed = join_session_->Seal(req.Serialize());
    if (sealed.ok()) {
      EnclaveSendNet(join_target_, WrapWire(kSessionRecord, *sealed));
    }
    return;
  }
  for (const Bytes& data : out->app_data) {
    join_parser_.Feed(data);
  }
  auto resp = join_parser_.Next();
  if (!resp.ok() || !resp->has_value()) return;
  if ((*resp)->status != 200) {
    LOG_ERROR << config_.node_id << " join rejected: "
              << ToString((*resp)->body);
    return;
  }
  auto body = json::Parse(ToString((*resp)->body));
  if (!body.ok()) return;
  Status installed = InstallJoinResponse(*body);
  if (!installed.ok()) {
    LOG_ERROR << config_.node_id << " join install failed: "
              << installed.ToString();
  }
}

Status Node::InstallJoinResponse(const json::Value& body) {
  ASSIGN_OR_RETURN(Bytes node_cert_bytes,
                   HexDecode(body.GetString("node_cert")));
  ASSIGN_OR_RETURN(node_cert_,
                   crypto::Certificate::Deserialize(node_cert_bytes));
  ASSIGN_OR_RETURN(Bytes service_cert_bytes,
                   HexDecode(body.GetString("service_cert")));
  ASSIGN_OR_RETURN(service_cert_,
                   crypto::Certificate::Deserialize(service_cert_bytes));
  ASSIGN_OR_RETURN(Bytes seed, HexDecode(body.GetString("service_key_seed")));
  service_key_ = std::make_unique<crypto::KeyPair>(
      crypto::KeyPair::FromSeed(seed));
  if (service_key_->public_key() != service_identity_) {
    return Status::PermissionDenied("join: service key does not match pin");
  }
  ASSIGN_OR_RETURN(Bytes secret, HexDecode(body.GetString("ledger_secret")));
  ledger_secret_ = kv::LedgerSecret{secret};
  encryptor_ = std::make_unique<kv::TxEncryptor>(ledger_secret_);

  // Seed the node-channel key cache from the served peer certificates:
  // until catch-up repopulates the nodes table locally, these are the only
  // way to open channels to the current consensus peers. Nothing is
  // trusted unless it verifies against the pinned service identity.
  const json::Value* peers = body.Get("peer_certs");
  if (peers != nullptr && peers->is_object()) {
    for (const auto& [nid, cert_hex] : peers->AsObject()) {
      if (!cert_hex.is_string()) continue;
      auto cert_bytes = HexDecode(cert_hex.AsString());
      if (!cert_bytes.ok()) continue;
      auto cert = crypto::Certificate::Deserialize(*cert_bytes);
      if (!cert.ok()) continue;
      if (!crypto::VerifyCertificate(
               *cert, ByteSpan(service_identity_.data(),
                               service_identity_.size()))
               .ok()) {
        continue;
      }
      known_node_keys_[nid] = cert->public_key;
    }
  }

  const json::Value* bundle_hex = body.Get("snapshot_bundle");
  if (bundle_hex != nullptr && bundle_hex->is_string()) {
    ASSIGN_OR_RETURN(Bytes bundle_bytes, HexDecode(bundle_hex->AsString()));
    ASSIGN_OR_RETURN(SnapshotBundle bundle,
                     SnapshotBundle::Deserialize(bundle_bytes));
    uint64_t seqno = bundle.seqno;
    RETURN_IF_ERROR(InstallBundle(std::move(bundle)));
    LOG_INFO << config_.node_id << " joined from verified snapshot at "
             << seqno;
  } else {
    // No bundle yet: start empty and learn every transaction through
    // consensus catch-up.
    std::vector<consensus::Configuration> configs;
    const json::Value* config_json = body.Get("configurations");
    if (config_json != nullptr && config_json->is_array()) {
      for (const json::Value& c : config_json->AsArray()) {
        consensus::Configuration cfg;
        cfg.seqno = static_cast<uint64_t>(c.GetInt("seqno"));
        const json::Value* nodes = c.Get("nodes");
        if (nodes != nullptr && nodes->is_array()) {
          for (const json::Value& n : nodes->AsArray()) {
            if (n.is_string()) cfg.nodes.insert(n.AsString());
          }
        }
        configs.push_back(std::move(cfg));
      }
    }
    if (configs.empty()) {
      return Status::InvalidArgument("join: no configurations");
    }
    raft_ = std::make_unique<consensus::RaftNode>(consensus::RaftNode::Joiner(
        config_.node_id, config_.raft, /*base_view=*/0, /*base_seqno=*/0,
        std::move(configs), this));
    raft_->BindMetrics(&metrics_);
    LOG_INFO << config_.node_id << " joined; replaying from seqno 1";
  }
  join_pending_ = false;
  join_session_.reset();
  return Status::Ok();
}

// -------------------------------------------------------------- recovery

void Node::InitRecovery(ledger::Ledger restored,
                        std::optional<SnapshotBundle> bundle) {
  recovery_pending_ = true;
  // New service identity (paper §5.2: "the newly recovered service will
  // have a new service identity, making it clear a recovery occurred").
  service_key_ = std::make_unique<crypto::KeyPair>(
      crypto::KeyPair::Generate(&drbg_));
  service_identity_ = service_key_->public_key();
  service_cert_ = crypto::IssueCertificate("service", "service",
                                           service_identity_, *service_key_,
                                           "");
  node_cert_ = crypto::IssueCertificate(config_.node_id, "node",
                                        node_key_.public_key(), *service_key_,
                                        "service");

  // Replay the public parts of the restored ledger (paper §5.2: "the
  // public parts of transactions are restored"). When the ledger starts
  // past a snapshot horizon, the caller (CreateRecoveryFromDir) has
  // already verified the bundle; public state installs at the snapshot
  // seqno and only the ledger suffix replays (paper §4.4).
  host_ledger_ = std::move(restored);
  std::vector<Bytes> leaf_contents;
  if (bundle.has_value()) {
    auto pub = RestorePublicState(*bundle);
    if (!pub.ok()) {
      LOG_ERROR << "recovery: snapshot public state undecodable: "
                << pub.status().ToString();
      return;
    }
    store_.InstallState(pub.take(), bundle->seqno);
    tree_.AppendLeafHashes(bundle->leaves);
    tx_digests_.clear();
    tx_digests_.resize(bundle->seqno);  // digests for old entries unknown
    recovery_bundle_ = std::move(bundle);
  }
  leaf_contents.reserve(host_ledger_.entries().size());
  for (const ledger::Entry& entry : host_ledger_.entries()) {
    auto ws = kv::WriteSet::Parse(entry.public_ws, {});
    if (ws.ok()) {
      Status applied = store_.ApplyWriteSet(*ws, entry.seqno);
      if (!applied.ok()) {
        LOG_ERROR << "recovery replay failed at " << entry.seqno;
        tree_.AppendBatch(leaf_contents);  // keep the applied prefix's tree
        return;
      }
    }
    TxDigests digests;
    digests.write_set = entry.WriteSetDigest();
    digests.claims = entry.claims_digest;
    tx_digests_.push_back(digests);
    leaf_contents.push_back(merkle::TransactionLeafContent(
        entry.view, entry.seqno, digests.write_set, digests.claims));
  }
  // Rebuild the whole tree from the replayed leaves.
  tree_.AppendBatch(leaf_contents);
  uint64_t base = host_ledger_.last_seqno();
  uint64_t base_view =
      !host_ledger_.entries().empty() ? host_ledger_.entries().back().view
      : recovery_bundle_.has_value() ? recovery_bundle_->view
                                     : 0;
  // The recovered service is committed up to the restored ledger end.
  Status compacted = store_.Compact(base);
  if (!compacted.ok()) {
    LOG_ERROR << "recovery compact failed: " << compacted.ToString();
  }

  raft_ = std::make_unique<consensus::RaftNode>(consensus::RaftNode::Joiner(
      config_.node_id, config_.raft, base_view, base,
      {consensus::Configuration{0, {config_.node_id}}}, this));
  raft_->BindMetrics(&metrics_);
  // A single-node configuration elects itself at the first timeout; the
  // recovery-declaration transaction is emitted in OnRoleChange.
}

void Node::HandleRecoveryShareSubmission(rpc::EndpointContext* ctx) {
  Status sig = VerifyGovSignature(ctx->request(), ctx->caller());
  if (!sig.ok()) {
    ctx->SetError(401, sig.message());
    return;
  }
  if (!recovery_pending_) {
    ctx->SetError(400, "service is not recovering");
    return;
  }
  auto params = ctx->Params();
  if (!params.ok()) {
    ctx->SetError(400, "bad body");
    return;
  }
  auto share = HexDecode(params->GetString("share"));
  if (!share.ok()) {
    ctx->SetError(400, "share must be hex");
    return;
  }
  submitted_shares_[ctx->caller().id] = *share;

  int threshold = gov::ShareManager::RecoveryThreshold(&ctx->tx());
  json::Object out;
  out["submitted"] = static_cast<int64_t>(submitted_shares_.size());
  out["threshold"] = threshold;

  if (static_cast<int>(submitted_shares_.size()) >= threshold) {
    auto secret = gov::ShareManager::RecoverLedgerSecret(&ctx->tx(),
                                                         submitted_shares_);
    if (!secret.ok()) {
      ctx->SetError(400, secret.status().message());
      return;
    }
    CompleteRecovery(secret.take());
    out["recovered"] = true;
  } else {
    out["recovered"] = false;
  }
  ctx->SetJsonResponse(200, json::Value(std::move(out)));
}

void Node::CompleteRecovery(kv::LedgerSecret secret) {
  ledger_secret_ = std::move(secret);
  encryptor_ = std::make_unique<kv::TxEncryptor>(ledger_secret_);

  // Rebuild the store, now decrypting private writes (paper §5.2: "the
  // previous ledger's private state decrypted"). A node that bootstrapped
  // from a snapshot starts from the bundle's full state (opening its
  // sealed private half with the recovered secret) and replays only the
  // ledger suffix on top.
  kv::Store rebuilt;
  if (recovery_bundle_.has_value()) {
    auto full = RestoreState(*recovery_bundle_, ledger_secret_);
    if (!full.ok()) {
      LOG_ERROR << "recovery: cannot open snapshot private state: "
                << full.status().ToString();
      return;
    }
    rebuilt.InstallState(full.take(), recovery_bundle_->seqno);
  }
  for (const ledger::Entry& entry : host_ledger_.entries()) {
    Bytes private_plain;
    if (!entry.private_sealed.empty()) {
      auto aad = crypto::Sha256::Hash(entry.public_ws);
      auto opened = encryptor_->Open(entry.view, entry.seqno,
                                     entry.private_sealed,
                                     ByteSpan(aad.data(), aad.size()));
      if (opened.ok()) {
        private_plain = opened.take();
      } else {
        LOG_ERROR << "recovery: cannot decrypt entry " << entry.seqno;
      }
    }
    auto ws = kv::WriteSet::Parse(entry.public_ws, private_plain);
    if (!ws.ok()) continue;
    Status applied = rebuilt.ApplyWriteSet(*ws, entry.seqno);
    if (!applied.ok()) {
      LOG_ERROR << "recovery rebuild failed at " << entry.seqno;
      return;
    }
  }
  Status compacted = rebuilt.Compact(raft_->commit_seqno());
  if (!compacted.ok()) {
    LOG_ERROR << "recovery rebuild compact failed";
  }
  store_ = std::move(rebuilt);
  recovery_pending_ = false;
  recovery_bundle_.reset();
  submitted_shares_.clear();
  // A snapshot captured before this point lacks the private state and
  // must never become a bundle. Capture the restored state now: the raft
  // log starts at the restored ledger end, so until a bundle exists no
  // node can join the recovered service.
  CaptureSnapshot();

  // Re-key the recovery shares under the new consortium state.
  kv::Tx tx = store_.BeginTx();
  Status reissued = gov::ShareManager::ReissueShares(&tx, ledger_secret_,
                                                     &drbg_);
  if (reissued.ok()) {
    auto committed = CommitAndReplicate(&tx, ledger::EntryType::kInternal);
    if (!committed.ok()) {
      LOG_ERROR << "share reissue commit failed";
    }
  }
  LOG_INFO << config_.node_id << " recovery complete; private state restored";
}

}  // namespace ccf::node
