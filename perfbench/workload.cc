#include "workload.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "json/json.h"
#include "node/client.h"

namespace perfbench {

using namespace ccf;

std::string PreloadMsg(uint64_t id) {
  char buf[kMsgChars + 1];
  std::snprintf(buf, sizeof(buf), "preload-%012llu",
                static_cast<unsigned long long>(id));
  return buf;
}

http::Request LogWriteRequest(uint64_t id, const std::string& msg) {
  http::Request req;
  req.method = "POST";
  req.path = "/app/log";
  req.headers["content-type"] = "application/json";
  req.body = ToBytes("{\"id\": " + std::to_string(id) + ", \"msg\": \"" + msg +
                     "\"}");
  return req;
}

namespace {

http::Request SbPost(const std::string& path, json::Object body) {
  http::Request req;
  req.method = "POST";
  req.path = path;
  req.headers["content-type"] = "application/json";
  req.body = ToBytes(json::Value(std::move(body)).Dump());
  return req;
}

}  // namespace

RequestGen::RequestGen(Kind kind, uint64_t seed, int session)
    : kind_(kind),
      session_(session),
      drbg_("perfbench-session", seed * 64 + static_cast<uint64_t>(session)) {
  if (kind_ == Kind::kSmallBank) {
    zipf_ = std::make_shared<apps::ZipfianSampler>(kAccounts, kZipfSkew);
  }
}

Req RequestGen::Next() {
  Req r;
  uint64_t seq = seq_++;
  switch (kind_) {
    case Kind::kLogWrite: {
      r.op = Op::kLogWrite;
      r.a = static_cast<int64_t>(drbg_.Uniform(kLogIds));
      char buf[kMsgChars + 1];
      std::snprintf(buf, sizeof(buf), "s%01u-%017llu",
                    static_cast<unsigned>(session_) % 10u,
                    static_cast<unsigned long long>(seq % 100000000000000000ull));
      r.msg = buf;
      r.http = LogWriteRequest(static_cast<uint64_t>(r.a), r.msg);
      return r;
    }
    case Kind::kLogRead: {
      r.op = Op::kLogRead;
      r.a = static_cast<int64_t>(drbg_.Uniform(kLogIds));
      r.http.method = "GET";
      r.http.path = "/app/log?id=" + std::to_string(r.a);
      return r;
    }
    case Kind::kSmallBank:
      break;
  }
  // The standard SmallBank mix (as in bench_smallbank): 85% writes over
  // five transaction types, 15% balance reads, Zipf-skewed accounts drawn
  // independently, so a two-account transaction may name one account twice.
  r.a = static_cast<int64_t>(zipf_->Sample(&drbg_));
  r.b = static_cast<int64_t>(zipf_->Sample(&drbg_));
  r.amount = static_cast<int64_t>(drbg_.Uniform(20)) + 1;
  json::Object body;
  switch (drbg_.Uniform(20)) {
    case 0: case 1: case 2:
      r.op = Op::kAmalgamate;
      body["from"] = r.a;
      body["to"] = r.b;
      r.http = SbPost("/app/sb/amalgamate", std::move(body));
      break;
    case 3: case 4: case 5: case 6:
      r.op = Op::kWriteCheck;
      body["account"] = r.a;
      body["amount"] = r.amount;
      r.http = SbPost("/app/sb/write_check", std::move(body));
      break;
    case 7: case 8: case 9: case 10: case 11:
      r.op = Op::kSendPayment;
      body["from"] = r.a;
      body["to"] = r.b;
      body["amount"] = r.amount;
      r.http = SbPost("/app/sb/send_payment", std::move(body));
      break;
    case 12: case 13: case 14:
      r.op = Op::kTransactSavings;
      if (drbg_.Uniform(2) != 0) r.amount = -r.amount;
      body["account"] = r.a;
      body["amount"] = r.amount;
      r.http = SbPost("/app/sb/transact_savings", std::move(body));
      break;
    case 15: case 16:
      r.op = Op::kDepositChecking;
      body["account"] = r.a;
      body["amount"] = r.amount;
      r.http = SbPost("/app/sb/deposit_checking", std::move(body));
      break;
    default:
      r.op = Op::kBalance;
      r.http.method = "GET";
      r.http.path = "/app/sb/balance?account=" + std::to_string(r.a);
      break;
  }
  return r;
}

Result<json::Value> JsonBody(const Result<http::Response>& r) {
  if (!r.ok()) return r.status();
  if (r->status != 200) {
    return Status::Unavailable("status " + std::to_string(r->status));
  }
  return json::Parse(ToString(r->body));
}

std::map<std::string, json::Value> EndpointSchemas(
    const Result<json::Value>& openapi) {
  std::map<std::string, json::Value> out;
  const json::Value* paths = openapi.ok() ? openapi->Get("paths") : nullptr;
  if (paths == nullptr || !paths->is_object()) return out;
  for (const auto& [path, ops] : paths->AsObject()) {
    if (!ops.is_object()) continue;
    for (const auto& [method, op] : ops.AsObject()) {
      const json::Value* content = nullptr;
      if (const json::Value* rb = op.Get("requestBody")) {
        content = rb->Get("content");
      } else if (const json::Value* resps = op.Get("responses")) {
        if (const json::Value* ok = resps->Get("200")) content = ok->Get("content");
      }
      const json::Value* media =
          content != nullptr ? content->Get("application/json") : nullptr;
      const json::Value* schema = media != nullptr ? media->Get("schema") : nullptr;
      if (schema == nullptr) continue;
      std::string upper;
      for (char ch : method) upper.push_back(static_cast<char>(std::toupper(ch)));
      out[upper + " " + path] = *schema;
    }
  }
  return out;
}

Outcome Classify(const Req& req, const Result<http::Response>& r) {
  if (!r.ok()) return Outcome::kFailed;
  int status = r->status;
  if (status == 200) return Outcome::kOk;
  if (status == 409) {
    // Both answer code "Conflict"; OCC retry exhaustion says so in its
    // message, SmallBank's rejections say "insufficient ...".
    auto body = json::Parse(ToString(r->body));
    const json::Value* err = body.ok() ? body->Get("error") : nullptr;
    bool occ = err == nullptr ||
               err->GetString("message").rfind("insufficient", 0) != 0;
    bool app_op = req.op == Op::kTransactSavings || req.op == Op::kSendPayment;
    if (!occ && app_op) return Outcome::kAppReject;
  }
  return Outcome::kFailed;
}

bool Oracle::OnResponse(const Req& req, const http::Response& resp,
                        Outcome outcome) {
  if (outcome != Outcome::kOk) {
    if (outcome == Outcome::kFailed && req.op == Op::kLogWrite) OnUnknown(req);
    return true;
  }
  if (req.op == Op::kLogRead) {
    // Reads of the preloaded ids must return the preloaded message. The
    // first response per id is parsed; later ones must match it byte for
    // byte.
    uint64_t id = static_cast<uint64_t>(req.a);
    auto it = read_bodies_.find(id);
    if (it != read_bodies_.end()) {
      if (it->second == resp.body) return true;
    } else {
      auto v = json::Parse(ToString(resp.body));
      if (v.ok() && v->GetString("msg") == PreloadMsg(id) &&
          static_cast<uint64_t>(v->GetInt("id", -1)) == id) {
        read_bodies_.emplace(id, resp.body);
        return true;
      }
    }
    if (first_error_.empty()) {
      first_error_ = "read of id " + std::to_string(id) + " returned " +
                     ToString(resp.body);
    }
    return false;
  }
  if (req.op == Op::kBalance) return true;
  auto txid = node::Client::TxIdOf(resp);
  if (!txid.has_value()) {
    if (first_error_.empty()) first_error_ = "acknowledged write without tx id";
    return false;
  }
  max_acked_seqno_ = std::max(max_acked_seqno_, txid->second);
  writes_.push_back({txid->first, txid->second, req});
  writes_.back().req.http = {};  // keep the oracle small
  return true;
}

void Oracle::OnUnknown(const Req& req) {
  if (req.op == Op::kLogWrite) uncertain_ids_.insert(static_cast<uint64_t>(req.a));
}

std::map<uint64_t, Oracle::LogWrite> Oracle::ExpectedLog() const {
  std::map<uint64_t, LogWrite> out;
  for (const Acked& w : writes_) {
    uint64_t id = static_cast<uint64_t>(w.req.a);
    if (w.req.op != Op::kLogWrite || uncertain_ids_.count(id) != 0) continue;
    LogWrite& slot = out[id];
    if (w.seqno >= slot.seqno) slot = {w.view, w.seqno, w.req.msg};
  }
  return out;
}

namespace {

struct Model {
  std::map<int64_t, int64_t> savings, checking;
  int64_t net = 0;

  Model() {
    for (int64_t i = 0; i < kAccounts; ++i) {
      savings[i] = kInitialBalance;
      checking[i] = kInitialBalance;
    }
  }

  // Mirrors the SmallBank handlers (src/apps/smallbank.cc) for a request
  // the service acknowledged with 200.
  void Apply(const Req& r) {
    switch (r.op) {
      case Op::kTransactSavings:
        savings[r.a] += r.amount;
        net += r.amount;
        break;
      case Op::kDepositChecking:
        checking[r.a] += r.amount;
        net += r.amount;
        break;
      case Op::kSendPayment:
        checking[r.a] -= r.amount;
        checking[r.b] += r.amount;
        break;
      case Op::kWriteCheck: {
        int64_t charge = r.amount;
        if (r.amount > savings[r.a] + checking[r.a]) charge = r.amount + 1;
        checking[r.a] -= charge;
        net -= charge;
        break;
      }
      case Op::kAmalgamate: {
        int64_t moved = savings[r.a] + checking[r.a];
        savings[r.a] = 0;
        checking[r.a] = 0;
        checking[r.b] += moved;
        break;
      }
      default:
        break;
    }
  }
};

}  // namespace

Oracle::SmallBankState Oracle::ExpectedSmallBank() const {
  std::vector<const Acked*> ops;
  for (const Acked& w : writes_) ops.push_back(&w);
  std::sort(ops.begin(), ops.end(),
            [](const Acked* x, const Acked* y) { return x->seqno < y->seqno; });
  Model m;
  for (const Acked* w : ops) m.Apply(w->req);
  SmallBankState out;
  for (int64_t i = 0; i < kAccounts; ++i) {
    out.balances[i] = m.savings[i] + m.checking[i];
  }
  out.net = m.net;
  return out;
}

}  // namespace perfbench
