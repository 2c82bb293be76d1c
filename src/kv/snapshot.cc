#include "kv/snapshot.h"

#include <algorithm>
#include <vector>

#include "common/buffer.h"

namespace ccf::kv {

Bytes SerializeState(const State& state) {
  // Sort map names for determinism.
  std::vector<std::string> names;
  state.maps.ForEach([&](const std::string& name, const MapEntry&) {
    names.push_back(name);
    return true;
  });
  std::sort(names.begin(), names.end());

  BufWriter w;
  w.U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const MapEntry* entry = state.maps.Get(name);
    w.Str(name);
    w.U64(entry->version);
    // Sort keys for determinism.
    std::vector<std::pair<Bytes, const VersionedValue*>> items;
    items.reserve(entry->data.size());
    entry->data.ForEach([&](const Bytes& key, const VersionedValue& vv) {
      items.emplace_back(key, &vv);
      return true;
    });
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.U64(items.size());
    for (const auto& [key, vv] : items) {
      w.Blob(key);
      w.Blob(vv->value);
      w.U64(vv->version);
    }
  }
  return w.Take();
}

Result<State> DeserializeState(ByteSpan data) {
  BufReader r(data);
  State state;
  ASSIGN_OR_RETURN(uint32_t map_count, r.U32());
  for (uint32_t m = 0; m < map_count; ++m) {
    ASSIGN_OR_RETURN(std::string name, r.Str());
    MapEntry entry;
    ASSIGN_OR_RETURN(entry.version, r.U64());
    ASSIGN_OR_RETURN(uint64_t item_count, r.U64());
    for (uint64_t i = 0; i < item_count; ++i) {
      ASSIGN_OR_RETURN(Bytes key, r.Blob());
      VersionedValue vv;
      ASSIGN_OR_RETURN(vv.value, r.Blob());
      ASSIGN_OR_RETURN(vv.version, r.U64());
      entry.data = entry.data.Put(key, std::move(vv));
    }
    state.maps = state.maps.Put(name, std::move(entry));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("snapshot: trailing bytes");
  }
  return state;
}

State FilterState(const State& state, bool public_only) {
  State out;
  state.maps.ForEach([&](const std::string& name, const MapEntry& entry) {
    if (IsPublicMap(name) == public_only) {
      out.maps = out.maps.Put(name, entry);
    }
    return true;
  });
  return out;
}

Result<State> MergeStates(const State& a, const State& b) {
  State out = a;
  Status status = Status::Ok();
  b.maps.ForEach([&](const std::string& name, const MapEntry& entry) {
    if (out.maps.Get(name) != nullptr) {
      status = Status::FailedPrecondition("kv: merge overlap on map " + name);
      return false;
    }
    out.maps = out.maps.Put(name, entry);
    return true;
  });
  RETURN_IF_ERROR(status);
  return out;
}

}  // namespace ccf::kv
