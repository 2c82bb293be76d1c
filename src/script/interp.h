// Tree-walking interpreter for CCL.
//
// Execution is bounded by a step budget and a recursion limit so that a
// malicious or buggy constitution/application script cannot hang a node.
// Errors surface as Status values with source line numbers; there are no
// exceptions.

#ifndef CCF_SCRIPT_INTERP_H_
#define CCF_SCRIPT_INTERP_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "script/ast.h"
#include "script/parser.h"
#include "script/value.h"

namespace ccf::script {

class Environment {
 public:
  explicit Environment(std::shared_ptr<Environment> parent = nullptr)
      : parent_(std::move(parent)) {}

  // Defines in this scope; overwrites an existing local binding.
  void Define(const std::string& name, Value v) {
    vars_[name] = std::move(v);
  }
  // Finds a binding anywhere in the scope chain.
  Value* Find(const std::string& name) {
    auto it = vars_.find(name);
    if (it != vars_.end()) return &it->second;
    return parent_ != nullptr ? parent_->Find(name) : nullptr;
  }
  // Drops every binding and the parent link. A closure stored in the scope
  // it captured is a shared_ptr cycle; the owning interpreter clears such
  // scopes when it is destroyed to break it.
  void Clear() {
    std::map<std::string, Value> vars;
    vars.swap(vars_);
    parent_.reset();
  }

 private:
  std::map<std::string, Value> vars_;
  std::shared_ptr<Environment> parent_;
};

struct InterpOptions {
  size_t max_steps = 2'000'000;
  size_t max_call_depth = 200;
};

class Interpreter {
 public:
  explicit Interpreter(InterpOptions options = {});
  // Clears every scope a closure captured (Environment::Clear), so the
  // closure/scope cycles and the programs they keep alive are freed.
  // Closures that escaped stay safe to hold but see empty scopes.
  ~Interpreter();
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // Installs a host value as a global (e.g. the kv bindings).
  void SetGlobal(const std::string& name, Value v);
  Value* GetGlobal(const std::string& name) { return globals_->Find(name); }

  // Executes the program's top level (function declarations populate the
  // global scope). Returns the value of the last expression statement.
  Result<Value> Run(std::shared_ptr<const Program> program);

  // Calls a global function by name. Run must have defined it.
  Result<Value> Call(const std::string& name, std::vector<Value> args);
  // Calls a function value (closure or native).
  Result<Value> CallValue(const Value& fn, std::vector<Value> args);

  // Resets the step budget (call before each endpoint invocation so one
  // request cannot starve the next).
  void ResetBudget() { steps_ = 0; }

 private:
  struct Flow {
    enum class Kind { kNormal, kReturn, kBreak, kContinue };
    Kind kind = Kind::kNormal;
    Value value;
  };

  Status Budget(int line);
  Result<Flow> ExecStmt(const Stmt* stmt, std::shared_ptr<Environment> env);
  Result<Flow> ExecBlock(const BlockStmt* block,
                         std::shared_ptr<Environment> env);
  Result<Value> EvalExpr(const Expr* expr, std::shared_ptr<Environment> env);
  Result<Value> EvalBinary(const BinaryExpr* e,
                           std::shared_ptr<Environment> env);
  Result<Value> EvalAssign(const AssignExpr* e,
                           std::shared_ptr<Environment> env);
  Result<Value> MemberGet(const Value& object, const std::string& name,
                          int line);
  Result<Value> IndexGet(const Value& object, const Value& index, int line);
  Result<Value> CallClosure(const std::shared_ptr<Closure>& closure,
                            std::vector<Value>& args, int line);

  void InstallBuiltins();
  // Records a scope a new closure captures (for ~Interpreter).
  void NoteCaptured(const std::shared_ptr<Environment>& env);

  Status Err(int line, const std::string& msg) const {
    return Status::InvalidArgument("ccl:" + std::to_string(line) + ": " + msg);
  }

  InterpOptions options_;
  std::shared_ptr<Environment> globals_;
  std::vector<std::shared_ptr<const Program>> programs_;  // keepalive
  // Scopes captured by closures. Expired entries are pruned whenever the
  // list doubles, so it stays within twice the live captured scopes.
  std::vector<std::weak_ptr<Environment>> captured_;
  size_t prune_captured_at_ = 64;
  size_t steps_ = 0;
  size_t depth_ = 0;
};

}  // namespace ccf::script

#endif  // CCF_SCRIPT_INTERP_H_
