// Node wire framing: the first byte of every payload a node host sends or
// receives says whether the rest is an STLS session record (clients,
// joiners) or a sealed node-to-node channel message. Inside a channel
// message, one more byte names the channel type. Shared by the node and
// by both clients (node/client.cc, host/live_client.cc).

#ifndef CCF_NODE_WIRE_H_
#define CCF_NODE_WIRE_H_

#include <cstdint>

#include "common/bytes.h"

namespace ccf::node {

enum WireKind : uint8_t {
  kSessionRecord = 1,
  kNodeChannel = 2,
};

// Inner types on node-to-node channels.
enum ChannelType : uint8_t {
  kConsensus = 1,
  kForwardRequest = 2,
  kForwardResponse = 3,
  kSnapshotCatchUp = 4,
};

inline Bytes WrapWire(WireKind kind, ByteSpan payload) {
  Bytes out;
  out.reserve(payload.size() + 1);
  out.push_back(static_cast<uint8_t>(kind));
  Append(&out, payload);
  return out;
}

}  // namespace ccf::node

#endif  // CCF_NODE_WIRE_H_
