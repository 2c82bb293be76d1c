#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "crypto/hmac.h"
#include "ds/ringbuffer.h"

namespace ccf::ds {
namespace {

// Resident set size in bytes, from /proc/self/statm.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(RingBuffer, OnlyTouchedCapacityIsResident) {
  // The enclave boundary's two 8 MB rings on each of three nodes, each
  // carrying one small message: the untouched capacity must stay virtual.
  constexpr size_t kRing = size_t{8} << 20;
  size_t before = ResidentBytes();
  std::vector<std::unique_ptr<RingBuffer>> rings;
  Bytes payload(1024, 0xab);
  for (int i = 0; i < 6; ++i) {
    rings.push_back(std::make_unique<RingBuffer>(kRing));
    ASSERT_TRUE(rings.back()->TryWrite(1, payload));
  }
  EXPECT_LT(ResidentBytes(), before + kRing);
}

TEST(RingBuffer, EmptyInitially) {
  RingBuffer rb(256);
  EXPECT_TRUE(rb.Empty());
  uint32_t type;
  Bytes payload;
  EXPECT_FALSE(rb.TryRead(&type, &payload));
}

TEST(RingBuffer, WriteReadSingleMessage) {
  RingBuffer rb(256);
  ASSERT_TRUE(rb.TryWrite(7, ToBytes("hello")));
  EXPECT_FALSE(rb.Empty());
  uint32_t type;
  Bytes payload;
  ASSERT_TRUE(rb.TryRead(&type, &payload));
  EXPECT_EQ(type, 7u);
  EXPECT_EQ(ToString(payload), "hello");
  EXPECT_TRUE(rb.Empty());
}

TEST(RingBuffer, EmptyPayload) {
  RingBuffer rb(256);
  ASSERT_TRUE(rb.TryWrite(3, {}));
  uint32_t type;
  Bytes payload;
  ASSERT_TRUE(rb.TryRead(&type, &payload));
  EXPECT_EQ(type, 3u);
  EXPECT_TRUE(payload.empty());
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer rb(1024);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rb.TryWrite(i, ToBytes("msg" + std::to_string(i))));
  }
  for (int i = 0; i < 10; ++i) {
    uint32_t type;
    Bytes payload;
    ASSERT_TRUE(rb.TryRead(&type, &payload));
    EXPECT_EQ(type, static_cast<uint32_t>(i));
    EXPECT_EQ(ToString(payload), "msg" + std::to_string(i));
  }
}

TEST(RingBuffer, FillsUpAndReportsFull) {
  RingBuffer rb(64);
  int written = 0;
  while (rb.TryWrite(1, ToBytes("12345678"))) ++written;
  EXPECT_GT(written, 0);
  // Draining one message frees space again.
  uint32_t type;
  Bytes payload;
  ASSERT_TRUE(rb.TryRead(&type, &payload));
  EXPECT_TRUE(rb.TryWrite(1, ToBytes("12345678")));
}

TEST(RingBuffer, OversizedMessageRejected) {
  RingBuffer rb(64);
  Bytes big(1000, 0xAA);
  EXPECT_FALSE(rb.TryWrite(1, big));
  // Still usable afterwards.
  EXPECT_TRUE(rb.TryWrite(1, ToBytes("ok")));
}

TEST(RingBuffer, WrapAround) {
  RingBuffer rb(128);
  // Cycle many messages through a small buffer to cross the wrap point
  // repeatedly, with varying sizes.
  crypto::Drbg drbg("rb-wrap", 0);
  for (int i = 0; i < 1000; ++i) {
    size_t len = drbg.Uniform(40);
    Bytes msg = drbg.Generate(len);
    ASSERT_TRUE(rb.TryWrite(i % 1000, msg)) << i;
    uint32_t type;
    Bytes payload;
    ASSERT_TRUE(rb.TryRead(&type, &payload)) << i;
    EXPECT_EQ(type, static_cast<uint32_t>(i % 1000));
    EXPECT_EQ(payload, msg);
  }
  EXPECT_TRUE(rb.Empty());
}

TEST(RingBuffer, BurstsWithPartialDrain) {
  RingBuffer rb(512);
  crypto::Drbg drbg("rb-burst", 0);
  std::vector<Bytes> inflight;
  size_t read_idx = 0;
  for (int round = 0; round < 200; ++round) {
    // Write a burst until full or 5 messages.
    for (int i = 0; i < 5; ++i) {
      Bytes msg = drbg.Generate(drbg.Uniform(60));
      if (rb.TryWrite(9, msg)) inflight.push_back(msg);
    }
    // Drain a couple.
    for (int i = 0; i < 3; ++i) {
      uint32_t type;
      Bytes payload;
      if (rb.TryRead(&type, &payload)) {
        ASSERT_LT(read_idx, inflight.size());
        EXPECT_EQ(payload, inflight[read_idx]);
        ++read_idx;
      }
    }
  }
  // Drain the rest.
  uint32_t type;
  Bytes payload;
  while (rb.TryRead(&type, &payload)) {
    ASSERT_LT(read_idx, inflight.size());
    EXPECT_EQ(payload, inflight[read_idx]);
    ++read_idx;
  }
  EXPECT_EQ(read_idx, inflight.size());
}

TEST(RingBuffer, MultiProducerSingleConsumer) {
  RingBuffer rb(1 << 14);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<int> total_written{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&rb, &total_written, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Payload encodes (producer, seq) for validation.
        Bytes msg(8);
        msg[0] = static_cast<uint8_t>(p);
        msg[1] = static_cast<uint8_t>(i);
        msg[2] = static_cast<uint8_t>(i >> 8);
        while (!rb.TryWrite(static_cast<uint32_t>(p + 1), msg)) {
          std::this_thread::yield();
        }
        total_written.fetch_add(1);
      }
    });
  }

  // Consumer validates per-producer FIFO ordering.
  int consumed = 0;
  int next_seq[kProducers] = {0, 0, 0, 0};
  while (consumed < kProducers * kPerProducer) {
    uint32_t type;
    Bytes payload;
    if (!rb.TryRead(&type, &payload)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(payload.size(), 8u);
    int p = payload[0];
    int seq = payload[1] | (payload[2] << 8);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(type, static_cast<uint32_t>(p + 1));
    EXPECT_EQ(seq, next_seq[p]);
    next_seq[p] = seq + 1;
    ++consumed;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(consumed, kProducers * kPerProducer);
  EXPECT_TRUE(rb.Empty());
}

// Stress case tuned for TSan runs (-DCCF_SANITIZE=thread): a deliberately
// tiny buffer maximizes producer contention, wrap-arounds and full/empty
// transitions, with variable payload sizes and a concurrent Empty() poller
// probing the reader-visible state while writes race.
TEST(RingBuffer, MultiProducerContendedSmallBufferStress) {
  RingBuffer rb(512);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 2000;

  std::atomic<bool> done{false};
  std::thread poller([&rb, &done] {
    while (!done.load()) {
      (void)rb.Empty();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&rb, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Variable length exercises wrap handling; prefix encodes
        // (producer, seq) for validation.
        Bytes msg(3 + (i % 29));
        msg[0] = static_cast<uint8_t>(p);
        msg[1] = static_cast<uint8_t>(i);
        msg[2] = static_cast<uint8_t>(i >> 8);
        while (!rb.TryWrite(static_cast<uint32_t>(p), msg)) {
          std::this_thread::yield();
        }
      }
    });
  }

  int consumed = 0;
  int next_seq[kProducers] = {};
  while (consumed < kProducers * kPerProducer) {
    uint32_t type;
    Bytes payload;
    if (!rb.TryRead(&type, &payload)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_GE(payload.size(), 3u);
    int p = payload[0];
    int seq = payload[1] | (payload[2] << 8);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(type, static_cast<uint32_t>(p));
    ASSERT_EQ(payload.size(), 3u + (seq % 29));
    EXPECT_EQ(seq, next_seq[p]);
    next_seq[p] = seq + 1;
    ++consumed;
  }
  for (auto& t : producers) t.join();
  done.store(true);
  poller.join();
  EXPECT_EQ(consumed, kProducers * kPerProducer);
  EXPECT_TRUE(rb.Empty());
}

}  // namespace
}  // namespace ccf::ds
