// node::ClientCore over a fake in-memory transport: pipelining and FIFO
// matching, reporting `connection: close`, the pre-handshake queue,
// failing pending callbacks on close and reconnect (including callbacks
// that issue requests), the lifetime of a timed-out Call, and request
// signing preconditions.

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "node/client.h"
#include "node/wire.h"

namespace ccf::node {
namespace {

// The node side: answers each request with 200 and its path as the body,
// queueing payloads until the test delivers them. A client hello starts a
// fresh session, as on a real node.
class FakeServer {
 public:
  void Receive(ByteSpan payload) {
    ByteSpan record = payload.subspan(1);  // after the kSessionRecord byte
    if (record[0] == static_cast<uint8_t>(rpc::RecordType::kClientHello)) {
      session_ = std::make_unique<rpc::ServerSession>(&node_, cert_, &drbg_);
      parser_ = http::RequestParser();
    }
    auto out = session_->OnRecord(record);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (!out->to_send.empty()) Queue(out->to_send);
    for (const Bytes& app : out->app_data) parser_.Feed(app);
    for (auto req = parser_.Next(); req.ok() && req->has_value();
         req = parser_.Next()) {
      paths.push_back((*req)->path);
      http::Response resp;
      resp.body = ToBytes((*req)->path);
      if ((*req)->path == "/close") resp.headers["connection"] = "close";
      Queue(*session_->Seal(resp.Serialize()));
    }
  }

  crypto::PublicKeyBytes identity() const { return service_.public_key(); }

  std::vector<std::string> paths;  // requests received, in order
  std::deque<Bytes> outbox;        // payloads not yet delivered

 private:
  void Queue(ByteSpan record) {
    outbox.push_back(WrapWire(kSessionRecord, record));
  }

  crypto::KeyPair service_ = crypto::KeyPair::FromSeed(ToBytes("service"));
  crypto::KeyPair node_ = crypto::KeyPair::FromSeed(ToBytes("node"));
  crypto::Certificate cert_ = crypto::IssueCertificate(
      "n0", "node", node_.public_key(), service_, "service");
  crypto::Drbg drbg_{"fake-server", 0};
  std::unique_ptr<rpc::ServerSession> session_;
  http::RequestParser parser_;
};

class FakeClient : public ClientCore {
 public:
  explicit FakeClient(FakeServer* server,
                      const crypto::KeyPair* key = nullptr)
      : ClientCore("fake", "fake-client", server->identity(), key,
                   std::nullopt),
        server_(server) {}

  void Reconnect() { OpenSession(Status::Unavailable("reconnect")); }
  void Close() { CloseSession(Status::Unavailable("closed")); }

  // Delivers the server's queued payloads, including any queued meanwhile.
  // Returns false if a response announced `connection: close`.
  bool Deliver() {
    bool open = true;
    while (!server_->outbox.empty()) {
      Bytes payload = std::move(server_->outbox.front());
      server_->outbox.pop_front();
      open = OnSessionRecord(payload) && open;
    }
    return open;
  }

  size_t wire_sends = 0;
  bool deliver_on_run = true;  // false: the server never answers in time

 private:
  void SendWire(Bytes payload) override {
    ++wire_sends;
    server_->Receive(payload);
  }
  void RunUntil(const std::function<bool()>& done, uint64_t) override {
    if (deliver_on_run && !done()) Deliver();
  }

  FakeServer* server_;
};

// Each callback's outcome, as "status:body" or the error text.
struct Log {
  std::vector<std::string> entries;
  ClientCore::ResponseCallback Callback() {
    return [this](Result<http::Response> r) {
      entries.push_back(r.ok() ? std::to_string(r->status) + ":" +
                                     ToString(r->body)
                               : r.status().ToString());
    };
  }
};

using Strings = std::vector<std::string>;

TEST(ClientCore, PipelinedRequestsAnsweredInFifoOrder) {
  FakeServer server;
  FakeClient client(&server);
  client.Reconnect();
  EXPECT_TRUE(client.Deliver());
  ASSERT_TRUE(client.connected());
  Log log;
  for (const char* path : {"/a", "/b", "/close"}) {
    client.SendRequest(GetRequest(path), log.Callback());
  }
  EXPECT_EQ(client.pending(), 3u);
  // The transport learns that the last response closed the connection.
  EXPECT_FALSE(client.Deliver());
  EXPECT_EQ(log.entries, (Strings{"200:/a", "200:/b", "200:/close"}));
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_EQ(client.responses_received(), 3u);
}

TEST(ClientCore, RequestsQueuedBeforeHandshakeFlushInOrder) {
  FakeServer server;
  FakeClient client(&server);
  client.Reconnect();
  Log log;
  for (const char* path : {"/1", "/2", "/3"}) {
    client.SendRequest(GetRequest(path), log.Callback());
  }
  EXPECT_EQ(client.wire_sends, 1u);  // only the hello
  EXPECT_EQ(client.pending(), 3u);
  client.Deliver();  // server hello, then the three responses
  EXPECT_EQ(server.paths, (Strings{"/1", "/2", "/3"}));
  EXPECT_EQ(log.entries, (Strings{"200:/1", "200:/2", "200:/3"}));
}

TEST(ClientCore, CloseAndReconnectFailEveryPendingCallback) {
  FakeServer server;
  FakeClient client(&server);
  client.Reconnect();
  client.Deliver();
  Log log;
  client.SendRequest(GetRequest("/x"), log.Callback());
  client.SendRequest(GetRequest("/y"), log.Callback());
  server.outbox.clear();  // the responses are lost with the session
  client.Reconnect();
  std::string reconnect = Status::Unavailable("reconnect").ToString();
  EXPECT_EQ(log.entries, (Strings{reconnect, reconnect}));
  EXPECT_EQ(client.pending(), 0u);

  client.Deliver();
  client.SendRequest(GetRequest("/z"), log.Callback());
  client.Close();
  EXPECT_EQ(log.entries.back(), Status::Unavailable("closed").ToString());
  EXPECT_FALSE(client.connected());
  // With no session, a request fails at once.
  client.SendRequest(GetRequest("/late"), log.Callback());
  EXPECT_EQ(log.entries.back(),
            Status::FailedPrecondition("client not connected").ToString());
  EXPECT_EQ(log.entries.size(), 4u);
}

TEST(ClientCore, CallbackIssuingRequestDuringFailureLeavesCoreConsistent) {
  FakeServer server;
  FakeClient client(&server);
  client.Reconnect();
  client.Deliver();
  // On reconnect each failed callback retries: the retries queue on the
  // new session and are answered in order once it is up.
  Log log;
  for (std::string path : {"/r1", "/r2"}) {
    client.SendRequest(GetRequest(path), [&, path](Result<http::Response>) {
      client.SendRequest(GetRequest(path + "-retry"), log.Callback());
    });
  }
  server.outbox.clear();
  client.Reconnect();
  EXPECT_EQ(client.pending(), 2u);
  client.Deliver();
  EXPECT_EQ(log.entries, (Strings{"200:/r1-retry", "200:/r2-retry"}));
  EXPECT_EQ(client.pending(), 0u);

  // On close, the retry fails at once instead.
  client.SendRequest(GetRequest("/c"), [&](Result<http::Response>) {
    client.SendRequest(GetRequest("/c-retry"), log.Callback());
  });
  server.outbox.clear();
  client.Close();
  EXPECT_EQ(log.entries.back(),
            Status::FailedPrecondition("client not connected").ToString());
  EXPECT_EQ(client.pending(), 0u);
}

TEST(ClientCore, TimedOutCallIsSafeToCompleteLater) {
  FakeServer server;
  FakeClient client(&server);
  client.Reconnect();
  client.Deliver();
  client.deliver_on_run = false;
  auto timed_out = client.Call(GetRequest("/slow"), 10);
  EXPECT_EQ(timed_out.status().ToString(),
            Status::Unavailable("request timed out").ToString());
  EXPECT_EQ(client.pending(), 1u);
  // The late response completes the abandoned callback (FIFO), and the
  // next Call gets its own response.
  client.Deliver();
  client.deliver_on_run = true;
  auto next = client.Call(GetRequest("/next"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(ToString(next->body), "/next");
  // Same again, completed by a close instead.
  client.deliver_on_run = false;
  EXPECT_FALSE(client.Call(GetRequest("/slow2"), 10).ok());
  client.Close();
  EXPECT_EQ(client.pending(), 0u);
}

TEST(ClientCore, SignedPostNeedsAKey) {
  FakeServer server;
  FakeClient anonymous(&server);
  anonymous.Reconnect();
  anonymous.Deliver();
  auto r = anonymous.PostJsonSigned("/gov/propose", json::Object{});
  EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(anonymous.wire_sends, 1u);  // nothing after the hello

  crypto::KeyPair key = crypto::KeyPair::FromSeed(ToBytes("member"));
  FakeClient member(&server, &key);
  member.Reconnect();
  member.Deliver();
  auto signed_post = member.PostJsonSigned("/gov/propose", json::Object{});
  ASSERT_TRUE(signed_post.ok());
  EXPECT_EQ(signed_post->status, 200);
}

}  // namespace
}  // namespace ccf::node
