// LiveClient: node::ClientCore over TCP -- a user or member client
// speaking STLS to a live node's RPC port.
//
// Single-threaded and poll-driven: the owning thread calls Connect once
// (dial + handshake, blocking up to a timeout), then either the blocking
// conveniences (Call/Get/PostJson/PostJsonSigned) or the pipelined pair
// SendRequest + PollOnce, which is what the closed-loop bench harness
// drives.
//
// Each TCP frame body is the byte string a simulated Environment::Send
// would carry (0x01 session-record prefix + STLS record), so the enclave
// cannot tell the two drivers apart.

#ifndef CCF_HOST_LIVE_CLIENT_H_
#define CCF_HOST_LIVE_CLIENT_H_

#include <optional>
#include <string>

#include "node/client.h"

namespace ccf::host {

class LiveClient : public node::ClientCore {
 public:
  // `key`/`cert` may be null/empty for anonymous clients.
  LiveClient(std::string client_id, crypto::PublicKeyBytes service_identity,
             const crypto::KeyPair* key = nullptr,
             std::optional<crypto::Certificate> cert = std::nullopt);
  ~LiveClient() override;

  // Dials host:port and completes the STLS handshake (or fails by
  // `timeout_ms`). Reconnecting fails outstanding callbacks first.
  Status Connect(const std::string& host, uint16_t port,
                 uint64_t timeout_ms = 5000);
  // Closes the socket; outstanding callbacks fail.
  void Close();

  // Processes socket IO for up to `timeout_ms` (one poll round) and
  // dispatches any completed responses. Returns false once the connection
  // is closed (all pending callbacks have been failed).
  bool PollOnce(int timeout_ms);

 private:
  void SendWire(Bytes payload) override;
  void RunUntil(const std::function<bool()>& done,
                uint64_t timeout_ms) override;
  bool TryWrite();

  int fd_ = -1;
  Bytes inbuf_;
  Bytes outbuf_;
  size_t out_off_ = 0;
};

}  // namespace ccf::host

#endif  // CCF_HOST_LIVE_CLIENT_H_
