#include "host/live_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "common/hex.h"
#include "common/logging.h"
#include "crypto/sha256.h"
#include "host/tcp.h"
#include "host/ticker.h"
#include "node/client.h"
#include "node/wire.h"

namespace ccf::host {

LiveClient::LiveClient(std::string client_id,
                       crypto::PublicKeyBytes service_identity,
                       const crypto::KeyPair* key,
                       std::optional<crypto::Certificate> cert)
    : client_id_(std::move(client_id)),
      service_identity_(service_identity),
      key_(key),
      cert_(std::move(cert)),
      drbg_("ccf-live-client-" + client_id_, 0) {}

LiveClient::~LiveClient() { Close(); }

void LiveClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  session_.reset();
  inbuf_.clear();
  outbuf_.clear();
  out_off_ = 0;
  queued_requests_.clear();
  FailPending(Status::Unavailable("connection closed"));
}

void LiveClient::FailPending(const Status& why) {
  // A callback may issue new requests; keep the deque coherent.
  while (!pending_.empty()) {
    ResponseCallback cb = std::move(pending_.front());
    pending_.pop_front();
    cb(why);
  }
}

Status LiveClient::Connect(const std::string& host, uint16_t port,
                           uint64_t timeout_ms) {
  Close();
  const uint64_t deadline = SteadyNowMs() + timeout_ms;
  ASSIGN_OR_RETURN(fd_, DialNonBlocking(host, port));
  // Wait for the non-blocking connect to resolve.
  for (;;) {
    pollfd pfd{fd_, POLLOUT, 0};
    uint64_t now = SteadyNowMs();
    if (now >= deadline) {
      Close();
      return Status::Unavailable("connect timed out");
    }
    int n = poll(&pfd, 1, static_cast<int>(deadline - now));
    if (n < 0 && errno != EINTR) break;
    if (n > 0) break;
  }
  int err = SoError(fd_);
  if (err != 0) {
    Close();
    return Status::Unavailable(std::string("connect: ") + strerror(err));
  }
  session_ = std::make_unique<rpc::ClientSession>(service_identity_, key_,
                                                  cert_, &drbg_);
  parser_ = http::ResponseParser();
  SendWire(node::WrapWire(node::kSessionRecord, session_->Start()));
  while (!session_->established()) {
    uint64_t now = SteadyNowMs();
    if (now >= deadline) {
      Close();
      return Status::Unavailable("handshake timed out");
    }
    if (!PollOnce(static_cast<int>(deadline - now))) {
      return Status::Unavailable("connection closed during handshake");
    }
  }
  return Status::Ok();
}

void LiveClient::SendWire(ByteSpan session_payload) {
  AppendFrame(&outbuf_, session_payload);
  TryWrite();
}

bool LiveClient::TryWrite() {
  while (out_off_ < outbuf_.size()) {
    // MSG_NOSIGNAL: a node that closed or reset the connection surfaces
    // as EPIPE (a dead connection), not as a process-killing SIGPIPE.
    ssize_t n = send(fd_, outbuf_.data() + out_off_,
                     outbuf_.size() - out_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    out_off_ += static_cast<size_t>(n);
  }
  outbuf_.clear();
  out_off_ = 0;
  return true;
}

void LiveClient::SendRequest(http::Request request, ResponseCallback callback) {
  if (!connected()) {
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
  if (record.ok()) SendWire(node::WrapWire(node::kSessionRecord, *record));
}

void LiveClient::FlushQueue() {
  while (!queued_requests_.empty()) {
    auto record = session_->Seal(queued_requests_.front());
    queued_requests_.pop_front();
    if (record.ok()) SendWire(node::WrapWire(node::kSessionRecord, *record));
  }
}

bool LiveClient::HandleFrame(ByteSpan frame) {
  if (session_ == nullptr || frame.empty() ||
      frame[0] != node::kSessionRecord) {
    return true;  // not a session record; ignore
  }
  auto out = session_->OnRecord(frame.subspan(1));
  if (!out.ok()) {
    LOG_DEBUG << client_id_ << " session error: " << out.status().ToString();
    return true;
  }
  if (out->established) FlushQueue();
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

bool LiveClient::PollOnce(int timeout_ms) {
  if (fd_ < 0) return false;
  short want = POLLIN;
  if (out_off_ < outbuf_.size()) want |= POLLOUT;
  pollfd pfd{fd_, want, 0};
  int n = poll(&pfd, 1, timeout_ms);
  if (n < 0 && errno != EINTR) {
    Close();
    return false;
  }
  if (n <= 0) return true;
  if ((pfd.revents & POLLOUT) != 0 && !TryWrite()) {
    Close();
    return false;
  }
  if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    uint8_t buf[64 * 1024];
    for (;;) {
      ssize_t r = read(fd_, buf, sizeof(buf));
      if (r > 0) {
        inbuf_.insert(inbuf_.end(), buf, buf + r);
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (r < 0 && errno == EINTR) continue;
      Close();  // EOF or error: fails all pending callbacks
      return false;
    }
    std::vector<Bytes> frames;
    if (!ExtractFrames(&inbuf_, &frames)) {
      Close();
      return false;
    }
    for (const Bytes& f : frames) {
      if (!HandleFrame(f)) {
        // Server announced connection: close — honour it.
        Close();
        return false;
      }
    }
  }
  return true;
}

Result<http::Response> LiveClient::Call(http::Request request,
                                        uint64_t timeout_ms) {
  // Shared, not stack-captured: on timeout the pending callback outlives
  // this frame and may still fire on a later close/reconnect.
  auto result = std::make_shared<std::optional<Result<http::Response>>>();
  SendRequest(std::move(request), [result](Result<http::Response> r) {
    *result = std::move(r);
  });
  const uint64_t deadline = SteadyNowMs() + timeout_ms;
  while (!result->has_value()) {
    uint64_t now = SteadyNowMs();
    if (now >= deadline) return Status::Unavailable("request timed out");
    if (!PollOnce(static_cast<int>(std::min<uint64_t>(deadline - now, 50))) &&
        !result->has_value()) {
      return Status::Unavailable("connection closed");
    }
  }
  return std::move(**result);
}

Result<http::Response> LiveClient::Get(const std::string& path,
                                       uint64_t timeout_ms) {
  http::Request req;
  req.method = "GET";
  req.path = path;
  return Call(std::move(req), timeout_ms);
}

Result<http::Response> LiveClient::PostJson(const std::string& path,
                                            const json::Value& body,
                                            uint64_t timeout_ms) {
  http::Request req;
  req.method = "POST";
  req.path = path;
  req.headers["content-type"] = "application/json";
  req.body = ToBytes(body.Dump());
  return Call(std::move(req), timeout_ms);
}

Result<http::Response> LiveClient::PostJsonSigned(const std::string& path,
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

std::optional<std::pair<uint64_t, uint64_t>> LiveClient::TxIdOf(
    const http::Response& response) {
  return node::Client::TxIdOf(response);
}

}  // namespace ccf::host
