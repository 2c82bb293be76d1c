// User and consortium member clients.
//
// A client opens an STLS session to any CCF node (pinning the service
// identity, paper §6.1), speaks HTTP/1.1 inside it and surfaces responses
// with their transaction IDs. Members sign governance request bodies with
// their certificate key (the COSE-Sign1 analogue).
//
// ClientCore is all of that except the transport: the session, requests
// queued until the handshake completes, response parsing and FIFO callback
// matching, and the request conveniences. A transport implements SendWire
// and RunUntil and hands every payload it receives to OnSessionRecord.
// node::Client below is the simulator transport; host::LiveClient is TCP.

#ifndef CCF_NODE_CLIENT_H_
#define CCF_NODE_CLIENT_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "crypto/cert.h"
#include "http/http.h"
#include "json/json.h"
#include "rpc/session.h"
#include "sim/environment.h"

namespace ccf::node {

// The requests ClientCore::Get and ClientCore::PostJson send.
http::Request GetRequest(const std::string& path);
http::Request JsonPostRequest(const std::string& path,
                              const json::Value& body);

class ClientCore {
 public:
  using ResponseCallback = std::function<void(Result<http::Response>)>;

  ClientCore(const ClientCore&) = delete;
  ClientCore& operator=(const ClientCore&) = delete;
  virtual ~ClientCore() = default;

  // True once the session handshake has completed.
  bool connected() const {
    return session_ != nullptr && session_->established();
  }

  // Pipelines a request; responses are matched to callbacks in FIFO order.
  // Requests sent before the handshake completes go out once it does.
  void SendRequest(http::Request request, ResponseCallback callback);

  // Blocking conveniences: drive the transport until the response arrives
  // (or `timeout_ms` passes).
  Result<http::Response> Call(http::Request request,
                              uint64_t timeout_ms = 5000);
  Result<http::Response> Get(const std::string& path,
                             uint64_t timeout_ms = 5000);
  Result<http::Response> PostJson(const std::string& path,
                                  const json::Value& body,
                                  uint64_t timeout_ms = 5000);
  // Signs the body with the client key (governance requests).
  Result<http::Response> PostJsonSigned(const std::string& path,
                                        const json::Value& body,
                                        uint64_t timeout_ms = 5000);

  // Parses the transaction ID header of a response ("view.seqno").
  static std::optional<std::pair<uint64_t, uint64_t>> TxIdOf(
      const http::Response& response);

  uint64_t responses_received() const { return responses_received_; }
  size_t pending() const { return pending_.size(); }

 protected:
  // `key`/`cert` may be null/empty for anonymous clients. The DRBG is
  // labelled `drbg_label` (fixed per client so simulation runs replay).
  ClientCore(std::string client_id, const std::string& drbg_label,
             crypto::PublicKeyBytes service_identity,
             const crypto::KeyPair* key,
             std::optional<crypto::Certificate> cert);

  // Transport: sends one wire payload (kSessionRecord + STLS record).
  virtual void SendWire(Bytes payload) = 0;
  // Transport: processes IO until `done()` holds or `timeout_ms` passes.
  virtual void RunUntil(const std::function<bool()>& done,
                        uint64_t timeout_ms) = 0;

  // Starts a fresh session and sends its hello. Pending callbacks fail
  // with `why` first; requests they issue queue on the new session.
  void OpenSession(const Status& why);
  // Drops the session; pending callbacks fail with `why`.
  void CloseSession(const Status& why);

  // Handles one received wire payload (anything but a session record is
  // ignored): completes the handshake, flushes queued requests, and
  // dispatches complete responses. Returns false once a response
  // announced `connection: close`; later responses are left unparsed.
  bool OnSessionRecord(ByteSpan payload);

  const std::string& client_id() const { return client_id_; }

 private:
  void Seal(ByteSpan request);
  void FailPending(const Status& why);

  std::string client_id_;
  crypto::PublicKeyBytes service_identity_;
  const crypto::KeyPair* key_;
  std::optional<crypto::Certificate> cert_;
  crypto::Drbg drbg_;

  std::unique_ptr<rpc::ClientSession> session_;
  http::ResponseParser parser_;
  std::deque<Bytes> queued_requests_;  // serialized, awaiting handshake
  std::deque<ResponseCallback> pending_;
  uint64_t responses_received_ = 0;
};

// A client in the simulation: a registered sim::Environment endpoint.
class Client : public ClientCore {
 public:
  Client(std::string client_id, sim::Environment* env,
         crypto::PublicKeyBytes service_identity,
         const crypto::KeyPair* key = nullptr,
         std::optional<crypto::Certificate> cert = std::nullopt);
  ~Client() override;

  // Opens (or re-opens) a session to `node_id`.
  void Connect(const std::string& node_id);

 private:
  void SendWire(Bytes payload) override;
  void RunUntil(const std::function<bool()>& done,
                uint64_t timeout_ms) override;

  sim::Environment* env_;
  std::string node_id_;
};

}  // namespace ccf::node

#endif  // CCF_NODE_CLIENT_H_
