// State serialization for snapshots (paper §4.4: "nodes can begin from a
// snapshot and use the consensus layer to simply learn the transactions
// since"). The snapshot format itself is node::SnapshotBundle.
//
// The serialized form is deterministic (maps and keys sorted), so every
// node serializing the same state produces the same bytes, and a digest
// over them can be committed to a public map as snapshot evidence,
// making snapshots verifiable via receipts (paper §3.5).

#ifndef CCF_KV_SNAPSHOT_H_
#define CCF_KV_SNAPSHOT_H_

#include "common/status.h"
#include "kv/store.h"

namespace ccf::kv {

// Serializes a store state deterministically.
Bytes SerializeState(const State& state);
Result<State> DeserializeState(ByteSpan data);

// Splits a state by map visibility (writeset.h IsPublicMap): the returned
// state holds only the public (or only the private) maps. Used by the
// snapshot bundle, which ships public maps in plain text and seals the
// private maps with the ledger secret (node/snapshots.h).
State FilterState(const State& state, bool public_only);

// Re-joins two disjoint halves produced by FilterState. Maps present in
// both inputs are a FailedPrecondition (the halves were not disjoint).
Result<State> MergeStates(const State& a, const State& b);

}  // namespace ccf::kv

#endif  // CCF_KV_SNAPSHOT_H_
