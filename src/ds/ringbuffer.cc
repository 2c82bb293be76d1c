#include "ds/ringbuffer.h"

#include <sys/mman.h>

#include <cassert>
#include <cstring>
#include <new>

namespace ccf::ds {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

RingBuffer::RingBuffer(size_t capacity)
    : capacity_(RoundUpPow2(capacity)), mask_(capacity_ - 1) {
  void* mem = mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  storage_ = static_cast<uint64_t*>(mem);
}

RingBuffer::~RingBuffer() { munmap(storage_, capacity_); }

bool RingBuffer::TryWrite(uint32_t type, ByteSpan payload) {
  assert(type < kPadType);
  size_t total = kHeaderSize + Align8(payload.size());
  if (total > max_payload_size() + kHeaderSize) {
    return false;  // can never fit
  }

  uint64_t msg_offset;
  uint64_t pad = 0;
  while (true) {
    uint64_t h = head_.load(std::memory_order_acquire);
    uint64_t t = tail_.load(std::memory_order_acquire);
    uint64_t pos = h & mask_;
    pad = (pos + total > capacity_) ? (capacity_ - pos) : 0;
    uint64_t need = pad + total;
    if (h + need - t > capacity_) {
      return false;  // full
    }
    if (head_.compare_exchange_weak(h, h + need, std::memory_order_acq_rel)) {
      msg_offset = h + pad;
      if (pad != 0) {
        // Publish a padding message covering [h, h+pad).
        HeaderAt(h).store(
            kReadyBit | (uint64_t{kPadType} << 32) | (pad - kHeaderSize),
            std::memory_order_release);
      }
      break;
    }
  }

  if (!payload.empty()) {
    std::memcpy(BytesAt(msg_offset + kHeaderSize), payload.data(),
                payload.size());
  }
  HeaderAt(msg_offset)
      .store(kReadyBit | (uint64_t{type} << 32) | payload.size(),
             std::memory_order_release);
  return true;
}

bool RingBuffer::TryRead(uint32_t* type, Bytes* payload) {
  while (true) {
    uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t == head_.load(std::memory_order_acquire)) {
      return false;  // empty
    }
    uint64_t hdr = HeaderAt(t).load(std::memory_order_acquire);
    if ((hdr & kReadyBit) == 0) {
      return false;  // reserved but not yet published
    }
    uint32_t msg_type = static_cast<uint32_t>((hdr >> 32) & 0x7fffffff);
    size_t size = static_cast<size_t>(hdr & 0xffffffff);
    size_t span = kHeaderSize + Align8(size);

    if (msg_type == kPadType) {
      // Zero the padding region and skip it.
      std::memset(BytesAt(t), 0, span);
      tail_.store(t + span, std::memory_order_release);
      continue;
    }

    payload->assign(BytesAt(t + kHeaderSize), BytesAt(t + kHeaderSize) + size);
    *type = msg_type;
    std::memset(BytesAt(t), 0, span);
    tail_.store(t + span, std::memory_order_release);
    return true;
  }
}

}  // namespace ccf::ds
