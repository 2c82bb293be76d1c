// Host transport unit tests (loopback TCP): framing, client-session
// delivery and reply, node-link hello/reconnect, and ring-backpressure
// parking. No enclave involved — the deliver callback stands in for the
// host-to-enclave ring.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "host/tcp.h"
#include "host/ticker.h"
#include "host/transport.h"

namespace ccf::host {
namespace {

// ------------------------------------------------------------- framing

TEST(Framing, RoundTripAndPartials) {
  Bytes wire;
  AppendFrame(&wire, ToBytes("alpha"));
  AppendFrame(&wire, ToBytes(""));
  AppendFrame(&wire, ToBytes("beta"));

  // Feed the wire bytes one at a time: frames must pop out exactly when
  // complete, independent of segmentation.
  Bytes buf;
  std::vector<Bytes> frames;
  for (uint8_t b : wire) {
    buf.push_back(b);
    ASSERT_TRUE(ExtractFrames(&buf, &frames));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(ToString(frames[0]), "alpha");
  EXPECT_EQ(ToString(frames[1]), "");
  EXPECT_EQ(ToString(frames[2]), "beta");
  EXPECT_TRUE(buf.empty());
}

TEST(Framing, OversizedFrameRejected) {
  Bytes buf = {0xff, 0xff, 0xff, 0x7f};  // ~2GB length prefix
  std::vector<Bytes> frames;
  EXPECT_FALSE(ExtractFrames(&buf, &frames));
}

// --------------------------------------------------- raw client helper

// A deliberately dumb blocking TCP client: the transport under test is
// the non-blocking side.
class RawClient {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  ~RawClient() { Close(); }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  // Half-closes, then aborts with SO_LINGER 0 (an RST instead of a FIN
  // handshake). The server socket is in CLOSE_WAIT when the RST lands, so
  // it records EPIPE and its next plain write() raises SIGPIPE.
  void ShutdownWriteThenReset() {
    ::shutdown(fd_, SHUT_WR);
    usleep(20000);  // let the FIN land: the server side enters CLOSE_WAIT
    linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    Close();
    usleep(20000);  // let the RST land
  }

  bool SendRaw(ByteSpan wire) {
    size_t off = 0;
    while (off < wire.size()) {
      ssize_t n = write(fd_, wire.data() + off, wire.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendFrame(const std::string& payload) {
    Bytes wire;
    AppendFrame(&wire, ToBytes(payload));
    return SendRaw(wire);
  }

  // Reads until one frame is complete or the timeout expires. Returns
  // nullopt on EOF/timeout.
  std::optional<std::string> ReadFrame(int timeout_ms = 2000) {
    uint64_t deadline = SteadyNowMs() + static_cast<uint64_t>(timeout_ms);
    std::vector<Bytes> frames;
    for (;;) {
      if (!ExtractFrames(&buf_, &frames)) return std::nullopt;
      if (!frames.empty()) return ToString(frames.front());
      uint64_t now = SteadyNowMs();
      if (now >= deadline) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, static_cast<int>(deadline - now)) <= 0) continue;
      uint8_t tmp[4096];
      ssize_t n = read(fd_, tmp, sizeof(tmp));
      if (n <= 0) return std::nullopt;
      buf_.insert(buf_.end(), tmp, tmp + n);
    }
  }

  // True if the peer closed the connection within the timeout.
  bool WaitForClose(int timeout_ms = 2000) {
    pollfd pfd{fd_, POLLIN, 0};
    uint64_t deadline = SteadyNowMs() + static_cast<uint64_t>(timeout_ms);
    for (;;) {
      uint64_t now = SteadyNowMs();
      if (now >= deadline) return false;
      if (poll(&pfd, 1, static_cast<int>(deadline - now)) <= 0) continue;
      uint8_t tmp[4096];
      ssize_t n = read(fd_, tmp, sizeof(tmp));
      if (n == 0) return true;
      if (n < 0) return true;
    }
  }

 private:
  int fd_ = -1;
  Bytes buf_;
};

// Thread-safe record of what the deliver callback saw.
struct Delivered {
  std::mutex mu;
  std::vector<std::pair<std::string, std::string>> items;
  std::atomic<bool> accept{true};

  bool Deliver(const std::string& from, ByteSpan data) {
    if (!accept.load()) return false;
    std::lock_guard<std::mutex> lk(mu);
    items.emplace_back(from, ToString(data));
    return true;
  }
  size_t Count() {
    std::lock_guard<std::mutex> lk(mu);
    return items.size();
  }
  std::pair<std::string, std::string> At(size_t i) {
    std::lock_guard<std::mutex> lk(mu);
    return items.at(i);
  }
};

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 3000) {
  uint64_t deadline = SteadyNowMs() + static_cast<uint64_t>(timeout_ms);
  while (SteadyNowMs() < deadline) {
    if (pred()) return true;
    usleep(1000);
  }
  return pred();
}

// ------------------------------------------------------ client sessions

TEST(LiveTransport, ClientSessionDeliverReplyAndDisconnect) {
  Delivered delivered;
  std::mutex dmu;
  std::vector<std::string> disconnects;
  TransportConfig cfg;
  cfg.node_id = "n0";
  LiveTransport t(
      cfg,
      [&](const std::string& from, ByteSpan data) {
        return delivered.Deliver(from, data);
      },
      [&](const std::string& peer) {
        std::lock_guard<std::mutex> lk(dmu);
        disconnects.push_back(peer);
        return true;
      });
  ASSERT_TRUE(t.Start().ok());
  ASSERT_NE(t.rpc_port(), 0);

  RawClient c;
  ASSERT_TRUE(c.Connect(t.rpc_port()));
  ASSERT_TRUE(c.SendFrame("ping"));
  ASSERT_TRUE(WaitFor([&] { return delivered.Count() == 1; }));
  auto [from, payload] = delivered.At(0);
  EXPECT_EQ(from, "tcp:1");
  EXPECT_EQ(payload, "ping");

  t.NetSend("tcp:1", ToBytes("pong"));
  auto reply = c.ReadFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "pong");

  c.Close();
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lk(dmu);
    return disconnects.size() == 1 && disconnects[0] == "tcp:1";
  }));
  t.Stop();
}

TEST(LiveTransport, EnclaveInitiatedCloseReachesClient) {
  Delivered delivered;
  TransportConfig cfg;
  cfg.node_id = "n0";
  LiveTransport t(
      cfg,
      [&](const std::string& from, ByteSpan data) {
        return delivered.Deliver(from, data);
      },
      [](const std::string&) { return true; });
  ASSERT_TRUE(t.Start().ok());

  RawClient c;
  ASSERT_TRUE(c.Connect(t.rpc_port()));
  ASSERT_TRUE(c.SendFrame("hi"));
  ASSERT_TRUE(WaitFor([&] { return delivered.Count() == 1; }));
  // Flush a goodbye then close, as the enclave does for connection: close.
  t.NetSend("tcp:1", ToBytes("bye"));
  t.CloseSession("tcp:1");
  auto reply = c.ReadFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "bye");
  EXPECT_TRUE(c.WaitForClose());
  t.Stop();
}

TEST(LiveTransport, OversizedInboundFrameClosesConnection) {
  Delivered delivered;
  TransportConfig cfg;
  cfg.node_id = "n0";
  LiveTransport t(
      cfg,
      [&](const std::string& from, ByteSpan data) {
        return delivered.Deliver(from, data);
      },
      [](const std::string&) { return true; });
  ASSERT_TRUE(t.Start().ok());

  RawClient c;
  ASSERT_TRUE(c.Connect(t.rpc_port()));
  // A length prefix beyond kMaxFrameSize must get the connection closed
  // before any allocation approaching that size happens.
  Bytes huge_header = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_TRUE(c.SendRaw(huge_header));
  EXPECT_TRUE(c.WaitForClose());
  EXPECT_EQ(delivered.Count(), 0u);
  t.Stop();
}

// ------------------------------------------------------ node links

TEST(LiveTransport, NodeLinkHelloRoutingAndReconnect) {
  Delivered got_a, got_b;
  TransportConfig ca;
  ca.node_id = "a";
  auto ta = std::make_unique<LiveTransport>(
      ca,
      [&](const std::string& from, ByteSpan data) {
        return got_a.Deliver(from, data);
      },
      [](const std::string&) { return true; });
  ASSERT_TRUE(ta->Start().ok());
  uint16_t a_node_port = ta->node_port();

  TransportConfig cb;
  cb.node_id = "b";
  cb.peers["a"] = "127.0.0.1:" + std::to_string(a_node_port);
  cb.backoff_min_ms = 10;
  cb.backoff_max_ms = 50;
  LiveTransport tb(
      cb,
      [&](const std::string& from, ByteSpan data) {
        return got_b.Deliver(from, data);
      },
      [](const std::string&) { return true; });
  ASSERT_TRUE(tb.Start().ok());

  // b -> a: queued until the dialled link passes the hello exchange.
  tb.NetSend("a", ToBytes("from-b"));
  ASSERT_TRUE(WaitFor([&] { return got_a.Count() == 1; }));
  EXPECT_EQ(got_a.At(0).first, "b");
  EXPECT_EQ(got_a.At(0).second, "from-b");

  // a -> b rides the accepted link (a learned "b" from the hello).
  ta->NetSend("b", ToBytes("from-a"));
  ASSERT_TRUE(WaitFor([&] { return got_b.Count() == 1; }));
  EXPECT_EQ(got_b.At(0).first, "a");
  EXPECT_EQ(got_b.At(0).second, "from-a");

  // Kill a; traffic queues; restart a on the same port; the queued frame
  // arrives after redial + hello. (SO_REUSEADDR makes the rebind safe.)
  ta->Stop();
  ta.reset();
  tb.NetSend("a", ToBytes("after-crash"));
  TransportConfig ca2;
  ca2.node_id = "a";
  ca2.node_port = a_node_port;
  LiveTransport ta2(
      ca2,
      [&](const std::string& from, ByteSpan data) {
        return got_a.Deliver(from, data);
      },
      [](const std::string&) { return true; });
  ASSERT_TRUE(ta2.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return got_a.Count() == 2; }, 6000));
  EXPECT_EQ(got_a.At(1).second, "after-crash");
  tb.Stop();
  ta2.Stop();
}

// ------------------------------------------------------ backpressure

TEST(LiveTransport, FullRingParksConnectionWithoutLoss) {
  Delivered delivered;
  delivered.accept.store(false);  // simulate a full host->enclave ring
  TransportConfig cfg;
  cfg.node_id = "n0";
  LiveTransport t(
      cfg,
      [&](const std::string& from, ByteSpan data) {
        return delivered.Deliver(from, data);
      },
      [](const std::string&) { return true; });
  ASSERT_TRUE(t.Start().ok());

  RawClient c;
  ASSERT_TRUE(c.Connect(t.rpc_port()));
  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(c.SendFrame("m" + std::to_string(i)));
  }
  // The connection parks: frames wait, none are dropped or delivered.
  ASSERT_TRUE(WaitFor([&] { return t.parked_frames_total() > 0; }));
  EXPECT_EQ(delivered.Count(), 0u);

  delivered.accept.store(true);  // ring drains
  ASSERT_TRUE(WaitFor([&] { return delivered.Count() == kFrames; }));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(delivered.At(i).second, "m" + std::to_string(i));  // in order
  }
  t.Stop();
}

// Regression: a client that sends a request and resets the connection
// before the response is written must cost only its own connection. A
// plain write() of that response raises SIGPIPE, which kills the host.
TEST(LiveTransport, PeerResetBeforeResponseKeepsServing) {
  std::mutex mu;
  std::condition_variable cv;
  bool first_held = false;
  bool first_reset = false;
  LiveTransport* transport = nullptr;
  TransportConfig cfg;
  cfg.node_id = "n0";
  LiveTransport t(
      cfg,
      [&](const std::string& from, ByteSpan data) {
        if (from == "tcp:1") {
          // Hold the IO thread until the client is gone, so the reply is
          // written to a connection the peer has already reset.
          std::unique_lock<std::mutex> lk(mu);
          first_held = true;
          cv.notify_all();
          cv.wait_for(lk, std::chrono::seconds(5), [&] { return first_reset; });
        }
        transport->NetSend(from, ToBytes("re:" + ToString(data)));
        return true;
      },
      [](const std::string&) { return true; });
  transport = &t;
  ASSERT_TRUE(t.Start().ok());

  RawClient first;
  ASSERT_TRUE(first.Connect(t.rpc_port()));
  ASSERT_TRUE(first.SendFrame("request"));
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5),
                            [&] { return first_held; }));
  }
  first.ShutdownWriteThenReset();
  {
    std::lock_guard<std::mutex> lk(mu);
    first_reset = true;
  }
  cv.notify_all();

  RawClient second;
  ASSERT_TRUE(second.Connect(t.rpc_port()));
  ASSERT_TRUE(second.SendFrame("ping"));
  auto reply = second.ReadFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "re:ping");
  t.Stop();
}

}  // namespace
}  // namespace ccf::host
