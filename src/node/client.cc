#include "node/client.h"

#include "common/hex.h"
#include "common/logging.h"
#include "crypto/sha256.h"
#include "node/wire.h"

namespace ccf::node {

ClientCore::ClientCore(std::string client_id, const std::string& drbg_label,
                       crypto::PublicKeyBytes service_identity,
                       const crypto::KeyPair* key,
                       std::optional<crypto::Certificate> cert)
    : client_id_(std::move(client_id)),
      service_identity_(service_identity),
      key_(key),
      cert_(std::move(cert)),
      drbg_(drbg_label, 0) {}

void ClientCore::OpenSession(const Status& why) {
  session_ = std::make_unique<rpc::ClientSession>(service_identity_, key_,
                                                  cert_, &drbg_);
  parser_ = http::ResponseParser();
  queued_requests_.clear();
  FailPending(why);
  SendWire(WrapWire(kSessionRecord, session_->Start()));
}

void ClientCore::CloseSession(const Status& why) {
  session_.reset();
  parser_ = http::ResponseParser();
  queued_requests_.clear();
  FailPending(why);
}

void ClientCore::FailPending(const Status& why) {
  // A callback may issue new requests: they land on a fresh deque.
  std::deque<ResponseCallback> failed;
  failed.swap(pending_);
  for (ResponseCallback& cb : failed) cb(why);
}

void ClientCore::SendRequest(http::Request request,
                             ResponseCallback callback) {
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
  Seal(wire);
}

void ClientCore::Seal(ByteSpan request) {
  auto record = session_->Seal(request);
  if (record.ok()) SendWire(WrapWire(kSessionRecord, *record));
}

bool ClientCore::OnSessionRecord(ByteSpan payload) {
  if (session_ == nullptr || payload.empty() ||
      payload[0] != kSessionRecord) {
    return true;
  }
  auto out = session_->OnRecord(payload.subspan(1));
  if (!out.ok()) {
    LOG_DEBUG << client_id_ << " session error: " << out.status().ToString();
    return true;
  }
  if (out->established) {
    while (!queued_requests_.empty()) {
      Bytes wire = std::move(queued_requests_.front());
      queued_requests_.pop_front();
      Seal(wire);
    }
  }
  for (const Bytes& app_data : out->app_data) {
    parser_.Feed(app_data);
  }
  while (true) {
    auto resp = parser_.Next();
    if (!resp.ok() || !resp->has_value()) break;
    ++responses_received_;
    bool server_close = (*resp)->GetHeader("connection") == "close";
    if (!pending_.empty()) {
      ResponseCallback cb = std::move(pending_.front());
      pending_.pop_front();
      cb(std::move(**resp));
    }
    if (server_close) return false;
  }
  return true;
}

Result<http::Response> ClientCore::Call(http::Request request,
                                        uint64_t timeout_ms) {
  // Shared, not stack-captured: on timeout the pending callback outlives
  // this frame and may still fire on a later reconnect/close.
  auto result = std::make_shared<std::optional<Result<http::Response>>>();
  SendRequest(std::move(request), [result](Result<http::Response> r) {
    *result = std::move(r);
  });
  RunUntil([&] { return result->has_value(); }, timeout_ms);
  if (!result->has_value()) {
    return Status::Unavailable("request timed out");
  }
  return std::move(**result);
}

http::Request GetRequest(const std::string& path) {
  http::Request req;
  req.method = "GET";
  req.path = path;
  return req;
}

http::Request JsonPostRequest(const std::string& path,
                              const json::Value& body) {
  http::Request req;
  req.method = "POST";
  req.path = path;
  req.headers["content-type"] = "application/json";
  req.body = ToBytes(body.Dump());
  return req;
}

Result<http::Response> ClientCore::Get(const std::string& path,
                                       uint64_t timeout_ms) {
  return Call(GetRequest(path), timeout_ms);
}

Result<http::Response> ClientCore::PostJson(const std::string& path,
                                            const json::Value& body,
                                            uint64_t timeout_ms) {
  return Call(JsonPostRequest(path, body), timeout_ms);
}

Result<http::Response> ClientCore::PostJsonSigned(const std::string& path,
                                                  const json::Value& body,
                                                  uint64_t timeout_ms) {
  if (key_ == nullptr) {
    return Status::FailedPrecondition("client has no signing key");
  }
  http::Request req = JsonPostRequest(path, body);
  auto digest = crypto::Sha256::Hash(req.body);
  auto sig = key_->Sign(ByteSpan(digest.data(), digest.size()));
  req.headers["x-ccf-signature"] = HexEncode(ByteSpan(sig.data(), sig.size()));
  return Call(std::move(req), timeout_ms);
}

std::optional<std::pair<uint64_t, uint64_t>> ClientCore::TxIdOf(
    const http::Response& response) {
  std::string header = response.GetHeader(http::kTxIdHeader);
  size_t dot = header.find('.');
  if (dot == std::string::npos) return std::nullopt;
  return std::make_pair(std::strtoull(header.c_str(), nullptr, 10),
                        std::strtoull(header.c_str() + dot + 1, nullptr, 10));
}

Client::Client(std::string client_id, sim::Environment* env,
               crypto::PublicKeyBytes service_identity,
               const crypto::KeyPair* key,
               std::optional<crypto::Certificate> cert)
    : ClientCore(client_id, "ccf-client-" + client_id, service_identity, key,
                 std::move(cert)),
      env_(env) {
  env_->Register(
      this->client_id(),
      [this](const std::string& from, ByteSpan data) {
        // A response that said `connection: close` ends the session, as
        // host::LiveClient closes its socket: later requests fail at once.
        if (from == node_id_ && !OnSessionRecord(data)) {
          CloseSession(Status::Unavailable("connection closed"));
        }
      },
      [](uint64_t) {});
}

Client::~Client() { env_->Unregister(client_id()); }

void Client::Connect(const std::string& node_id) {
  node_id_ = node_id;
  OpenSession(Status::Unavailable("session closed by reconnect"));
}

void Client::SendWire(Bytes payload) {
  env_->Send(client_id(), node_id_, std::move(payload));
}

void Client::RunUntil(const std::function<bool()>& done,
                      uint64_t timeout_ms) {
  env_->RunUntil(done, timeout_ms);
}

}  // namespace ccf::node
