#include "node/client.h"

#include "common/hex.h"
#include "common/logging.h"
#include "crypto/sha256.h"
#include "node/wire.h"

namespace ccf::node {

Client::Client(std::string client_id, sim::Environment* env,
               crypto::PublicKeyBytes service_identity,
               const crypto::KeyPair* key,
               std::optional<crypto::Certificate> cert)
    : client_id_(std::move(client_id)),
      env_(env),
      service_identity_(service_identity),
      key_(key),
      cert_(std::move(cert)),
      drbg_("ccf-client-" + client_id_, 0) {
  env_->Register(
      client_id_,
      [this](const std::string& from, ByteSpan data) {
        OnNetMessage(from, data);
      },
      [](uint64_t) {});
}

Client::~Client() { env_->Unregister(client_id_); }

void Client::Connect(const std::string& node_id) {
  node_id_ = node_id;
  session_ = std::make_unique<rpc::ClientSession>(service_identity_, key_,
                                                  cert_, &drbg_);
  parser_ = http::ResponseParser();
  // Outstanding callbacks fail: the session is gone.
  for (auto& cb : pending_) {
    cb(Status::Unavailable("session closed by reconnect"));
  }
  pending_.clear();
  env_->Send(client_id_, node_id_, WrapWire(kSessionRecord, session_->Start()));
}

void Client::SendRequest(http::Request request, ResponseCallback callback) {
  if (session_ == nullptr) {
    callback(Status::FailedPrecondition("client not connected"));
    return;
  }
  pending_.push_back(std::move(callback));
  Bytes wire = request.Serialize();
  if (!session_->established()) {
    queued_requests_.push_back(std::move(wire));
    return;
  }
  auto record = session_->Seal(wire);
  if (record.ok()) {
    env_->Send(client_id_, node_id_, WrapWire(kSessionRecord, *record));
  }
}

void Client::FlushQueue() {
  while (!queued_requests_.empty()) {
    auto record = session_->Seal(queued_requests_.front());
    queued_requests_.pop_front();
    if (record.ok()) {
      env_->Send(client_id_, node_id_, WrapWire(kSessionRecord, *record));
    }
  }
}

void Client::OnNetMessage(const std::string& from, ByteSpan data) {
  if (session_ == nullptr || from != node_id_ || data.empty() ||
      data[0] != kSessionRecord) {
    return;
  }
  auto out = session_->OnRecord(data.subspan(1));
  if (!out.ok()) {
    LOG_DEBUG << client_id_ << " session error: " << out.status().ToString();
    return;
  }
  if (out->established) FlushQueue();
  for (const Bytes& app_data : out->app_data) {
    parser_.Feed(app_data);
  }
  while (true) {
    auto resp = parser_.Next();
    if (!resp.ok() || !resp->has_value()) break;
    ++responses_received_;
    if (!pending_.empty()) {
      ResponseCallback cb = std::move(pending_.front());
      pending_.pop_front();
      cb(std::move(**resp));
    }
  }
}

Result<http::Response> Client::Call(http::Request request,
                                    uint64_t timeout_ms) {
  // Shared, not stack-captured: on timeout the pending callback outlives
  // this frame and may still fire on a later reconnect/teardown.
  auto result = std::make_shared<std::optional<Result<http::Response>>>();
  SendRequest(std::move(request), [result](Result<http::Response> r) {
    *result = std::move(r);
  });
  env_->RunUntil([&] { return result->has_value(); }, timeout_ms);
  if (!result->has_value()) {
    return Status::Unavailable("request timed out");
  }
  return std::move(**result);
}

Result<http::Response> Client::Get(const std::string& path,
                                   uint64_t timeout_ms) {
  http::Request req;
  req.method = "GET";
  req.path = path;
  return Call(std::move(req), timeout_ms);
}

Result<http::Response> Client::PostJson(const std::string& path,
                                        const json::Value& body,
                                        uint64_t timeout_ms) {
  http::Request req;
  req.method = "POST";
  req.path = path;
  req.headers["content-type"] = "application/json";
  req.body = ToBytes(body.Dump());
  return Call(std::move(req), timeout_ms);
}

Result<http::Response> Client::PostJsonSigned(const std::string& path,
                                              const json::Value& body,
                                              uint64_t timeout_ms) {
  if (key_ == nullptr) {
    return Status::FailedPrecondition("client has no signing key");
  }
  http::Request req;
  req.method = "POST";
  req.path = path;
  req.headers["content-type"] = "application/json";
  req.body = ToBytes(body.Dump());
  auto digest = crypto::Sha256::Hash(req.body);
  auto sig = key_->Sign(ByteSpan(digest.data(), digest.size()));
  req.headers["x-ccf-signature"] = HexEncode(ByteSpan(sig.data(), sig.size()));
  return Call(std::move(req), timeout_ms);
}

std::optional<std::pair<uint64_t, uint64_t>> Client::TxIdOf(
    const http::Response& response) {
  std::string header = response.GetHeader(http::kTxIdHeader);
  size_t dot = header.find('.');
  if (dot == std::string::npos) return std::nullopt;
  return std::make_pair(std::strtoull(header.c_str(), nullptr, 10),
                        std::strtoull(header.c_str() + dot + 1, nullptr, 10));
}

}  // namespace ccf::node
