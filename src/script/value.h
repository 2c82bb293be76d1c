// Runtime values for CCL, the small JS-like language standing in for the
// paper's JavaScript runtime (QuickJS). Used by the programmable
// constitution (paper §5.1) and by scripted application endpoints
// (paper §7, Table 5).

#ifndef CCF_SCRIPT_VALUE_H_
#define CCF_SCRIPT_VALUE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "json/json.h"

namespace ccf::script {

class Value;
struct FunctionDecl;  // AST node, defined in ast.h
class Environment;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

// A user-defined function value: AST + captured environment.
struct Closure {
  const FunctionDecl* decl;
  std::shared_ptr<Environment> env;
  // Keeps the owning program alive while the closure exists.
  std::shared_ptr<const void> program_keepalive;
};

// A host function exposed to scripts (e.g. kv.put).
using NativeFn =
    std::function<Result<Value>(std::vector<Value>& args)>;

class Value {
 public:
  enum class Type {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
    kClosure,
    kNative
  };

  Value() : data_(std::monostate{}) {}
  Value(std::nullptr_t) : data_(std::monostate{}) {}        // NOLINT
  Value(bool b) : data_(b) {}                               // NOLINT
  Value(double d) : data_(d) {}                             // NOLINT
  Value(int i) : data_(static_cast<double>(i)) {}           // NOLINT
  Value(int64_t i) : data_(static_cast<double>(i)) {}       // NOLINT
  Value(uint64_t i) : data_(static_cast<double>(i)) {}      // NOLINT
  Value(const char* s) : data_(std::string(s)) {}           // NOLINT
  Value(std::string s) : data_(std::move(s)) {}             // NOLINT
  Value(Array a) : data_(std::make_shared<Array>(std::move(a))) {}   // NOLINT
  Value(Object o) : data_(std::make_shared<Object>(std::move(o))) {}  // NOLINT
  Value(std::shared_ptr<Array> a) : data_(std::move(a)) {}  // NOLINT
  Value(std::shared_ptr<Object> o) : data_(std::move(o)) {}  // NOLINT
  Value(Closure c) : data_(std::make_shared<Closure>(std::move(c))) {}  // NOLINT
  Value(NativeFn f) : data_(std::move(f)) {}                // NOLINT

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }
  bool is_callable() const {
    return type() == Type::kClosure || type() == Type::kNative;
  }

  bool AsBool() const { return std::get<bool>(data_); }
  double AsNumber() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const std::shared_ptr<Array>& AsArray() const {
    return std::get<std::shared_ptr<Array>>(data_);
  }
  const std::shared_ptr<Object>& AsObject() const {
    return std::get<std::shared_ptr<Object>>(data_);
  }
  const std::shared_ptr<Closure>& AsClosure() const {
    return std::get<std::shared_ptr<Closure>>(data_);
  }
  const NativeFn& AsNative() const { return std::get<NativeFn>(data_); }

  // JS-like truthiness.
  bool Truthy() const;
  // Structural equality (functions compare by identity). Ends on values
  // that contain themselves: containers already being compared further up
  // count as equal.
  bool Equals(const Value& other) const;
  // Human-readable rendering (used by str() and error messages). An array
  // or object that contains itself is an error, not a rendering.
  Result<std::string> ToDisplayString() const;

  const char* TypeName() const;

  // JSON bridge (closures/natives are not representable and fail, and so
  // does an array or object that contains itself).
  Result<json::Value> ToJson() const;
  static Value FromJson(const json::Value& j);

 private:
  std::variant<std::monostate, bool, double, std::string,
               std::shared_ptr<Array>, std::shared_ptr<Object>,
               std::shared_ptr<Closure>, NativeFn>
      data_;
};

}  // namespace ccf::script

#endif  // CCF_SCRIPT_VALUE_H_
