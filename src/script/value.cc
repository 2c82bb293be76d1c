#include "script/value.h"

#include <cmath>
#include <utility>
#include <vector>

namespace ccf::script {

bool Value::Truthy() const {
  switch (type()) {
    case Type::kNull: return false;
    case Type::kBool: return AsBool();
    case Type::kNumber: return AsNumber() != 0.0 && !std::isnan(AsNumber());
    case Type::kString: return !AsString().empty();
    default: return true;
  }
}

namespace {

// The identity of an array or object value: its shared storage.
const void* ContainerId(const Value& v) {
  if (v.is_array()) return v.AsArray().get();
  return v.AsObject().get();
}

// Structural equality that ends on values containing themselves: an
// identical container is equal at once, and a pair of containers already
// being compared further up (`in_progress`) counts as equal.
using ContainerPair = std::pair<const void*, const void*>;

bool EqualsOnPath(const Value& a, const Value& b,
                  std::vector<ContainerPair>* in_progress) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Value::Type::kNull: return true;
    case Value::Type::kBool: return a.AsBool() == b.AsBool();
    case Value::Type::kNumber: return a.AsNumber() == b.AsNumber();
    case Value::Type::kString: return a.AsString() == b.AsString();
    case Value::Type::kArray:
    case Value::Type::kObject: {
      const ContainerPair pair(ContainerId(a), ContainerId(b));
      if (pair.first == pair.second) return true;
      for (const ContainerPair& p : *in_progress) {
        if (p == pair) return true;
      }
      in_progress->push_back(pair);
      bool equal = true;
      if (a.is_array()) {
        const auto& x = *a.AsArray();
        const auto& y = *b.AsArray();
        equal = x.size() == y.size();
        for (size_t i = 0; equal && i < x.size(); ++i) {
          equal = EqualsOnPath(x[i], y[i], in_progress);
        }
      } else {
        const auto& x = *a.AsObject();
        const auto& y = *b.AsObject();
        equal = x.size() == y.size();
        for (auto it = x.begin(); equal && it != x.end(); ++it) {
          auto found = y.find(it->first);
          equal = found != y.end() &&
                  EqualsOnPath(it->second, found->second, in_progress);
        }
      }
      in_progress->pop_back();
      return equal;
    }
    case Value::Type::kClosure: return a.AsClosure() == b.AsClosure();
    case Value::Type::kNative: return false;
  }
  return false;
}

// JSON rendering that refuses a container already on the path from the
// root (`path`), instead of recursing without bound; `*cyclic` tells that
// failure apart from a function member.
Result<json::Value> ToJsonOnPath(const Value& v,
                                 std::vector<const void*>* path,
                                 bool* cyclic) {
  if (!v.is_array() && !v.is_object()) return v.ToJson();
  const void* self = ContainerId(v);
  for (const void* p : *path) {
    if (p == self) {
      *cyclic = true;
      return Status::InvalidArgument("script: value contains itself");
    }
  }
  path->push_back(self);
  auto out = [&]() -> Result<json::Value> {
    if (v.is_array()) {
      json::Array arr;
      for (const Value& e : *v.AsArray()) {
        ASSIGN_OR_RETURN(json::Value j, ToJsonOnPath(e, path, cyclic));
        arr.push_back(std::move(j));
      }
      return json::Value(std::move(arr));
    }
    json::Object obj;
    for (const auto& [k, e] : *v.AsObject()) {
      ASSIGN_OR_RETURN(json::Value j, ToJsonOnPath(e, path, cyclic));
      obj[k] = std::move(j);
    }
    return json::Value(std::move(obj));
  }();
  path->pop_back();
  return out;
}

}  // namespace

bool Value::Equals(const Value& other) const {
  std::vector<ContainerPair> in_progress;
  return EqualsOnPath(*this, other, &in_progress);
}

const char* Value::TypeName() const {
  switch (type()) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
    case Type::kClosure: return "function";
    case Type::kNative: return "native function";
  }
  return "?";
}

Result<std::string> Value::ToDisplayString() const {
  switch (type()) {
    case Type::kNull: return std::string("null");
    case Type::kBool: return std::string(AsBool() ? "true" : "false");
    case Type::kNumber: {
      double d = AsNumber();
      if (d == static_cast<int64_t>(d) && std::abs(d) < 1e15) {
        return std::to_string(static_cast<int64_t>(d));
      }
      return std::to_string(d);
    }
    case Type::kString: return AsString();
    case Type::kArray:
    case Type::kObject: {
      std::vector<const void*> path;
      bool cyclic = false;
      auto j = ToJsonOnPath(*this, &path, &cyclic);
      if (cyclic) return j.status();
      return j.ok() ? j->Dump() : std::string("<unrepresentable>");
    }
    case Type::kClosure: return std::string("<function>");
    case Type::kNative: return std::string("<native>");
  }
  return std::string("?");
}

Result<json::Value> Value::ToJson() const {
  switch (type()) {
    case Type::kNull: return json::Value(nullptr);
    case Type::kBool: return json::Value(AsBool());
    case Type::kNumber: {
      double d = AsNumber();
      if (d == static_cast<int64_t>(d) && std::abs(d) < 1e15) {
        return json::Value(static_cast<int64_t>(d));
      }
      return json::Value(d);
    }
    case Type::kString: return json::Value(AsString());
    case Type::kArray:
    case Type::kObject: {
      std::vector<const void*> path;
      bool cyclic = false;
      return ToJsonOnPath(*this, &path, &cyclic);
    }
    default:
      return Status::InvalidArgument("script: function not JSON-representable");
  }
}

Value Value::FromJson(const json::Value& j) {
  switch (j.type()) {
    case json::Value::Type::kNull: return Value();
    case json::Value::Type::kBool: return Value(j.AsBool());
    case json::Value::Type::kInt: return Value(static_cast<double>(j.AsInt()));
    case json::Value::Type::kDouble: return Value(j.AsDouble());
    case json::Value::Type::kString: return Value(j.AsString());
    case json::Value::Type::kArray: {
      Array out;
      for (const json::Value& e : j.AsArray()) out.push_back(FromJson(e));
      return Value(std::move(out));
    }
    case json::Value::Type::kObject: {
      Object out;
      for (const auto& [k, v] : j.AsObject()) out[k] = FromJson(v);
      return Value(std::move(out));
    }
  }
  return Value();
}

}  // namespace ccf::script
