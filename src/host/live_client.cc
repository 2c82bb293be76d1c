#include "host/live_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "host/tcp.h"
#include "host/ticker.h"

namespace ccf::host {

LiveClient::LiveClient(std::string client_id,
                       crypto::PublicKeyBytes service_identity,
                       const crypto::KeyPair* key,
                       std::optional<crypto::Certificate> cert)
    : ClientCore(client_id, "ccf-live-client-" + client_id, service_identity,
                 key, std::move(cert)) {}

LiveClient::~LiveClient() { Close(); }

void LiveClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
  outbuf_.clear();
  out_off_ = 0;
  CloseSession(Status::Unavailable("connection closed"));
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
  OpenSession(Status::Unavailable("connection closed"));
  uint64_t now = SteadyNowMs();
  RunUntil([this] { return connected() || fd_ < 0; },
           deadline > now ? deadline - now : 0);
  if (connected()) return Status::Ok();
  bool closed = fd_ < 0;
  Close();
  return Status::Unavailable(closed ? "connection closed during handshake"
                                    : "handshake timed out");
}

void LiveClient::SendWire(Bytes payload) {
  AppendFrame(&outbuf_, payload);
  TryWrite();
}

void LiveClient::RunUntil(const std::function<bool()>& done,
                          uint64_t timeout_ms) {
  const uint64_t deadline = SteadyNowMs() + timeout_ms;
  while (!done()) {
    uint64_t now = SteadyNowMs();
    if (now >= deadline ||
        !PollOnce(static_cast<int>(std::min<uint64_t>(deadline - now, 50)))) {
      return;
    }
  }
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
      if (!OnSessionRecord(f)) {
        // Server announced connection: close -- honour it.
        Close();
        return false;
      }
    }
  }
  return true;
}

}  // namespace ccf::host
