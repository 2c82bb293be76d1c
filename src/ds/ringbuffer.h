// Lock-free multi-producer single-consumer ring buffer.
//
// The paper (§7): "The host and the TEE communicate via a pair of lock-free
// multi-producer single-consumer ringbuffers to minimize the expensive
// transitions to/from the TEE." This is that structure: producers reserve
// space with a CAS on the head offset, write the message body, then publish
// it by storing the header word with release semantics; the single consumer
// processes messages in reservation order.
//
// Message layout (8-byte aligned):
//   u64 header = kReadyBit | (type << 32) | payload_size
//   payload bytes, zero-padded to 8 bytes.
// A kPadType message fills the tail of the buffer when a message would
// otherwise straddle the wrap-around point.

#ifndef CCF_DS_RINGBUFFER_H_
#define CCF_DS_RINGBUFFER_H_

#include <atomic>
#include <cstdint>

#include "common/bytes.h"

namespace ccf::ds {

class RingBuffer {
 public:
  // `capacity` is rounded up to a power of two, minimum 64 bytes.
  explicit RingBuffer(size_t capacity);

  ~RingBuffer();

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  // Producer side (any thread). Returns false if there is no space.
  // `type` must be < 2^31 and not kPadType; payload must fit the buffer.
  bool TryWrite(uint32_t type, ByteSpan payload);

  // Consumer side (single thread). Returns false if no message is ready.
  bool TryRead(uint32_t* type, Bytes* payload);

  // True when all published messages have been consumed. Only meaningful
  // when producers are quiescent.
  bool Empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return capacity_; }

  // Bytes reserved but not yet consumed (headers and pad messages
  // included). Approximate under concurrent producers; used for occupancy
  // gauges.
  size_t used_bytes() const {
    return static_cast<size_t>(head_.load(std::memory_order_acquire) -
                               tail_.load(std::memory_order_acquire));
  }

  // Largest payload a buffer of this capacity can carry.
  size_t max_payload_size() const { return capacity_ / 2 - kHeaderSize; }

  static constexpr uint32_t kPadType = 0x7fffffff;

 private:
  static constexpr size_t kHeaderSize = 8;
  static constexpr uint64_t kReadyBit = uint64_t{1} << 63;

  static size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

  std::atomic<uint64_t>& HeaderAt(uint64_t logical_offset) {
    return *reinterpret_cast<std::atomic<uint64_t>*>(
        &storage_[(logical_offset & mask_) / 8]);
  }
  uint8_t* BytesAt(uint64_t logical_offset) {
    return reinterpret_cast<uint8_t*>(storage_) + (logical_offset & mask_);
  }

  size_t capacity_;
  uint64_t mask_;
  // Anonymous private mapping: zero-filled, page-aligned, and resident
  // only where the ring has reached.
  uint64_t* storage_;
  std::atomic<uint64_t> head_{0};  // next logical write offset
  std::atomic<uint64_t> tail_{0};  // next logical read offset
};

}  // namespace ccf::ds

#endif  // CCF_DS_RINGBUFFER_H_
