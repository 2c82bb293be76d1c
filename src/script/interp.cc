#include "script/interp.h"

#include <algorithm>
#include <cmath>

namespace ccf::script {

Interpreter::Interpreter(InterpOptions options)
    : options_(options), globals_(std::make_shared<Environment>()) {
  InstallBuiltins();
}

Interpreter::~Interpreter() {
  for (const std::weak_ptr<Environment>& scope : captured_) {
    if (auto env = scope.lock()) env->Clear();
  }
}

void Interpreter::NoteCaptured(const std::shared_ptr<Environment>& env) {
  if (captured_.size() >= prune_captured_at_) {
    std::erase_if(captured_, [](const std::weak_ptr<Environment>& scope) {
      return scope.expired();
    });
    prune_captured_at_ = std::max<size_t>(64, 2 * captured_.size());
  }
  captured_.push_back(env);
}

void Interpreter::SetGlobal(const std::string& name, Value v) {
  globals_->Define(name, std::move(v));
}

Status Interpreter::Budget(int line) {
  if (++steps_ > options_.max_steps) {
    return Status::Aborted("ccl:" + std::to_string(line) +
                           ": step budget exhausted");
  }
  return Status::Ok();
}

Result<Value> Interpreter::Run(std::shared_ptr<const Program> program) {
  programs_.push_back(program);
  Value last;
  for (const StmtPtr& stmt : program->stmts) {
    ASSIGN_OR_RETURN(Flow flow, ExecStmt(stmt.get(), globals_));
    if (flow.kind == Flow::Kind::kReturn) return flow.value;
    if (flow.kind != Flow::Kind::kNormal) {
      return Err(stmt->line, "break/continue outside loop");
    }
    last = std::move(flow.value);
  }
  return last;
}

Result<Value> Interpreter::Call(const std::string& name,
                                std::vector<Value> args) {
  Value* fn = globals_->Find(name);
  if (fn == nullptr) {
    return Status::NotFound("ccl: no such function '" + name + "'");
  }
  return CallValue(*fn, std::move(args));
}

Result<Value> Interpreter::CallValue(const Value& fn,
                                     std::vector<Value> args) {
  if (fn.type() == Value::Type::kNative) {
    return fn.AsNative()(args);
  }
  if (fn.type() == Value::Type::kClosure) {
    return CallClosure(fn.AsClosure(), args, 0);
  }
  return Status::InvalidArgument("ccl: value is not callable");
}

Result<Value> Interpreter::CallClosure(const std::shared_ptr<Closure>& closure,
                                       std::vector<Value>& args, int line) {
  if (depth_ + 1 > options_.max_call_depth) {
    return Err(line, "call depth limit exceeded");
  }
  ++depth_;
  auto env = std::make_shared<Environment>(closure->env);
  const FunctionDecl* decl = closure->decl;
  for (size_t i = 0; i < decl->params.size(); ++i) {
    env->Define(decl->params[i], i < args.size() ? args[i] : Value());
  }
  auto result = ExecBlock(decl->body.get(), env);
  --depth_;
  if (!result.ok()) return result.status();
  if (result->kind == Flow::Kind::kReturn) return result->value;
  if (result->kind != Flow::Kind::kNormal) {
    return Err(line, "break/continue escaped function");
  }
  return Value();
}

// ------------------------------------------------------------ Statements

Result<Interpreter::Flow> Interpreter::ExecBlock(
    const BlockStmt* block, std::shared_ptr<Environment> env) {
  for (const StmtPtr& stmt : block->stmts) {
    ASSIGN_OR_RETURN(Flow flow, ExecStmt(stmt.get(), env));
    if (flow.kind != Flow::Kind::kNormal) return flow;
  }
  return Flow{};
}

Result<Interpreter::Flow> Interpreter::ExecStmt(
    const Stmt* stmt, std::shared_ptr<Environment> env) {
  RETURN_IF_ERROR(Budget(stmt->line));
  switch (stmt->kind) {
    case Stmt::Kind::kExpr: {
      const auto* s = static_cast<const ExprStmt*>(stmt);
      ASSIGN_OR_RETURN(Value v, EvalExpr(s->expr.get(), env));
      Flow flow;
      flow.value = std::move(v);
      return flow;
    }
    case Stmt::Kind::kLet: {
      const auto* s = static_cast<const LetStmt*>(stmt);
      Value init;
      if (s->init != nullptr) {
        ASSIGN_OR_RETURN(init, EvalExpr(s->init.get(), env));
      }
      env->Define(s->name, std::move(init));
      return Flow{};
    }
    case Stmt::Kind::kFunction: {
      const auto* s = static_cast<const FunctionStmt*>(stmt);
      Closure closure{&s->decl, env, programs_.empty() ? nullptr
                                                       : programs_.back()};
      NoteCaptured(env);
      env->Define(s->decl.name, Value(std::move(closure)));
      return Flow{};
    }
    case Stmt::Kind::kBlock: {
      auto inner = std::make_shared<Environment>(env);
      return ExecBlock(static_cast<const BlockStmt*>(stmt), inner);
    }
    case Stmt::Kind::kIf: {
      const auto* s = static_cast<const IfStmt*>(stmt);
      ASSIGN_OR_RETURN(Value cond, EvalExpr(s->cond.get(), env));
      if (cond.Truthy()) {
        return ExecStmt(s->then_stmt.get(), env);
      }
      if (s->else_stmt != nullptr) {
        return ExecStmt(s->else_stmt.get(), env);
      }
      return Flow{};
    }
    case Stmt::Kind::kWhile: {
      const auto* s = static_cast<const WhileStmt*>(stmt);
      while (true) {
        RETURN_IF_ERROR(Budget(s->line));
        ASSIGN_OR_RETURN(Value cond, EvalExpr(s->cond.get(), env));
        if (!cond.Truthy()) break;
        ASSIGN_OR_RETURN(Flow flow, ExecStmt(s->body.get(), env));
        if (flow.kind == Flow::Kind::kReturn) return flow;
        if (flow.kind == Flow::Kind::kBreak) break;
      }
      return Flow{};
    }
    case Stmt::Kind::kFor: {
      const auto* s = static_cast<const ForStmt*>(stmt);
      auto scope = std::make_shared<Environment>(env);
      if (s->init != nullptr) {
        ASSIGN_OR_RETURN(Flow flow, ExecStmt(s->init.get(), scope));
        (void)flow;
      }
      while (true) {
        RETURN_IF_ERROR(Budget(s->line));
        if (s->cond != nullptr) {
          ASSIGN_OR_RETURN(Value cond, EvalExpr(s->cond.get(), scope));
          if (!cond.Truthy()) break;
        }
        ASSIGN_OR_RETURN(Flow flow, ExecStmt(s->body.get(), scope));
        if (flow.kind == Flow::Kind::kReturn) return flow;
        if (flow.kind == Flow::Kind::kBreak) break;
        if (s->step != nullptr) {
          ASSIGN_OR_RETURN(Value step, EvalExpr(s->step.get(), scope));
          (void)step;
        }
      }
      return Flow{};
    }
    case Stmt::Kind::kForOf: {
      const auto* s = static_cast<const ForOfStmt*>(stmt);
      ASSIGN_OR_RETURN(Value iterable, EvalExpr(s->iterable.get(), env));
      std::vector<Value> items;
      if (iterable.is_array()) {
        items = *iterable.AsArray();
      } else if (iterable.is_object()) {
        for (const auto& [k, v] : *iterable.AsObject()) {
          items.emplace_back(k);
        }
      } else if (iterable.is_string()) {
        for (char c : iterable.AsString()) {
          items.emplace_back(std::string(1, c));
        }
      } else {
        return Err(s->line, std::string("cannot iterate over ") +
                                iterable.TypeName());
      }
      for (Value& item : items) {
        RETURN_IF_ERROR(Budget(s->line));
        auto scope = std::make_shared<Environment>(env);
        scope->Define(s->var, std::move(item));
        ASSIGN_OR_RETURN(Flow flow, ExecStmt(s->body.get(), scope));
        if (flow.kind == Flow::Kind::kReturn) return flow;
        if (flow.kind == Flow::Kind::kBreak) break;
      }
      return Flow{};
    }
    case Stmt::Kind::kReturn: {
      const auto* s = static_cast<const ReturnStmt*>(stmt);
      Flow flow;
      flow.kind = Flow::Kind::kReturn;
      if (s->expr != nullptr) {
        ASSIGN_OR_RETURN(flow.value, EvalExpr(s->expr.get(), env));
      }
      return flow;
    }
    case Stmt::Kind::kBreak: {
      Flow flow;
      flow.kind = Flow::Kind::kBreak;
      return flow;
    }
    case Stmt::Kind::kContinue: {
      Flow flow;
      flow.kind = Flow::Kind::kContinue;
      return flow;
    }
  }
  return Err(stmt->line, "unknown statement");
}

// ----------------------------------------------------------- Expressions

Result<Value> Interpreter::EvalExpr(const Expr* expr,
                                    std::shared_ptr<Environment> env) {
  RETURN_IF_ERROR(Budget(expr->line));
  switch (expr->kind) {
    case Expr::Kind::kLiteral:
      return static_cast<const LiteralExpr*>(expr)->value;
    case Expr::Kind::kIdent: {
      const auto* e = static_cast<const IdentExpr*>(expr);
      Value* v = env->Find(e->name);
      if (v == nullptr) {
        return Err(e->line, "undefined variable '" + e->name + "'");
      }
      return *v;
    }
    case Expr::Kind::kUnary: {
      const auto* e = static_cast<const UnaryExpr*>(expr);
      ASSIGN_OR_RETURN(Value v, EvalExpr(e->operand.get(), env));
      if (e->op == '!') return Value(!v.Truthy());
      if (!v.is_number()) {
        return Err(e->line, std::string("cannot negate ") + v.TypeName());
      }
      return Value(-v.AsNumber());
    }
    case Expr::Kind::kBinary:
      return EvalBinary(static_cast<const BinaryExpr*>(expr), env);
    case Expr::Kind::kLogical: {
      const auto* e = static_cast<const LogicalExpr*>(expr);
      ASSIGN_OR_RETURN(Value lhs, EvalExpr(e->lhs.get(), env));
      if (e->is_and) {
        if (!lhs.Truthy()) return lhs;
      } else {
        if (lhs.Truthy()) return lhs;
      }
      return EvalExpr(e->rhs.get(), env);
    }
    case Expr::Kind::kTernary: {
      const auto* e = static_cast<const TernaryExpr*>(expr);
      ASSIGN_OR_RETURN(Value cond, EvalExpr(e->cond.get(), env));
      return EvalExpr(
          cond.Truthy() ? e->then_expr.get() : e->else_expr.get(), env);
    }
    case Expr::Kind::kAssign:
      return EvalAssign(static_cast<const AssignExpr*>(expr), env);
    case Expr::Kind::kCall: {
      const auto* e = static_cast<const CallExpr*>(expr);
      ASSIGN_OR_RETURN(Value callee, EvalExpr(e->callee.get(), env));
      std::vector<Value> args;
      args.reserve(e->args.size());
      for (const ExprPtr& a : e->args) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(a.get(), env));
        args.push_back(std::move(v));
      }
      if (callee.type() == Value::Type::kNative) {
        auto result = callee.AsNative()(args);
        if (!result.ok()) {
          return Err(e->line, result.status().message());
        }
        return result;
      }
      if (callee.type() == Value::Type::kClosure) {
        return CallClosure(callee.AsClosure(), args, e->line);
      }
      return Err(e->line,
                 std::string("cannot call ") + callee.TypeName());
    }
    case Expr::Kind::kMember: {
      const auto* e = static_cast<const MemberExpr*>(expr);
      ASSIGN_OR_RETURN(Value object, EvalExpr(e->object.get(), env));
      return MemberGet(object, e->name, e->line);
    }
    case Expr::Kind::kIndex: {
      const auto* e = static_cast<const IndexExpr*>(expr);
      ASSIGN_OR_RETURN(Value object, EvalExpr(e->object.get(), env));
      ASSIGN_OR_RETURN(Value index, EvalExpr(e->index.get(), env));
      return IndexGet(object, index, e->line);
    }
    case Expr::Kind::kArrayLit: {
      const auto* e = static_cast<const ArrayLitExpr*>(expr);
      Array out;
      out.reserve(e->elements.size());
      for (const ExprPtr& el : e->elements) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(el.get(), env));
        out.push_back(std::move(v));
      }
      return Value(std::move(out));
    }
    case Expr::Kind::kObjectLit: {
      const auto* e = static_cast<const ObjectLitExpr*>(expr);
      Object out;
      for (const auto& [key, val_expr] : e->props) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(val_expr.get(), env));
        out[key] = std::move(v);
      }
      return Value(std::move(out));
    }
    case Expr::Kind::kFunction: {
      const auto* e = static_cast<const FunctionExpr*>(expr);
      Closure closure{&e->decl, env,
                      programs_.empty() ? nullptr : programs_.back()};
      NoteCaptured(env);
      return Value(std::move(closure));
    }
  }
  return Err(expr->line, "unknown expression");
}

Result<Value> Interpreter::EvalBinary(const BinaryExpr* e,
                                      std::shared_ptr<Environment> env) {
  ASSIGN_OR_RETURN(Value lhs, EvalExpr(e->lhs.get(), env));
  ASSIGN_OR_RETURN(Value rhs, EvalExpr(e->rhs.get(), env));
  const std::string& op = e->op;

  if (op == "==") return Value(lhs.Equals(rhs));
  if (op == "!=") return Value(!lhs.Equals(rhs));

  if (op == "+") {
    if (lhs.is_number() && rhs.is_number()) {
      return Value(lhs.AsNumber() + rhs.AsNumber());
    }
    if (lhs.is_string() || rhs.is_string()) {
      return Value(lhs.ToDisplayString() + rhs.ToDisplayString());
    }
    return Err(e->line, std::string("cannot add ") + lhs.TypeName() +
                            " and " + rhs.TypeName());
  }

  if (op == "<" || op == "<=" || op == ">" || op == ">=") {
    int cmp;
    if (lhs.is_number() && rhs.is_number()) {
      double a = lhs.AsNumber(), b = rhs.AsNumber();
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else if (lhs.is_string() && rhs.is_string()) {
      cmp = lhs.AsString().compare(rhs.AsString());
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    } else {
      return Err(e->line, std::string("cannot compare ") + lhs.TypeName() +
                              " and " + rhs.TypeName());
    }
    if (op == "<") return Value(cmp < 0);
    if (op == "<=") return Value(cmp <= 0);
    if (op == ">") return Value(cmp > 0);
    return Value(cmp >= 0);
  }

  if (!lhs.is_number() || !rhs.is_number()) {
    return Err(e->line, "'" + op + "' requires numbers");
  }
  double a = lhs.AsNumber(), b = rhs.AsNumber();
  if (op == "-") return Value(a - b);
  if (op == "*") return Value(a * b);
  if (op == "/") {
    if (b == 0) return Err(e->line, "division by zero");
    return Value(a / b);
  }
  if (op == "%") {
    if (b == 0) return Err(e->line, "modulo by zero");
    return Value(std::fmod(a, b));
  }
  return Err(e->line, "unknown operator '" + op + "'");
}

Result<Value> Interpreter::EvalAssign(const AssignExpr* e,
                                      std::shared_ptr<Environment> env) {
  ASSIGN_OR_RETURN(Value value, EvalExpr(e->value.get(), env));

  auto apply_op = [&](const Value& old) -> Result<Value> {
    if (e->op.empty()) return value;
    if (e->op == "+" ) {
      if (old.is_number() && value.is_number()) {
        return Value(old.AsNumber() + value.AsNumber());
      }
      if (old.is_string() || value.is_string()) {
        return Value(old.ToDisplayString() + value.ToDisplayString());
      }
      return Err(e->line, "invalid '+=' operands");
    }
    if (!old.is_number() || !value.is_number()) {
      return Err(e->line, "compound assignment requires numbers");
    }
    double a = old.AsNumber(), b = value.AsNumber();
    if (e->op == "-") return Value(a - b);
    if (e->op == "*") return Value(a * b);
    if (e->op == "/") {
      if (b == 0) return Err(e->line, "division by zero");
      return Value(a / b);
    }
    return Err(e->line, "unknown compound operator");
  };

  if (e->target->kind == Expr::Kind::kIdent) {
    const auto* t = static_cast<const IdentExpr*>(e->target.get());
    Value* slot = env->Find(t->name);
    if (slot == nullptr) {
      return Err(e->line, "assignment to undeclared variable '" + t->name +
                              "' (use let)");
    }
    ASSIGN_OR_RETURN(Value next, apply_op(*slot));
    *slot = next;
    return next;
  }
  if (e->target->kind == Expr::Kind::kMember) {
    const auto* t = static_cast<const MemberExpr*>(e->target.get());
    ASSIGN_OR_RETURN(Value object, EvalExpr(t->object.get(), env));
    if (!object.is_object()) {
      return Err(e->line, std::string("cannot set property on ") +
                              object.TypeName());
    }
    Object& obj = *object.AsObject();
    auto it = obj.find(t->name);
    Value old = it != obj.end() ? it->second : Value();
    ASSIGN_OR_RETURN(Value next, apply_op(old));
    obj[t->name] = next;
    return next;
  }
  if (e->target->kind == Expr::Kind::kIndex) {
    const auto* t = static_cast<const IndexExpr*>(e->target.get());
    ASSIGN_OR_RETURN(Value object, EvalExpr(t->object.get(), env));
    ASSIGN_OR_RETURN(Value index, EvalExpr(t->index.get(), env));
    if (object.is_object()) {
      if (!index.is_string()) {
        return Err(e->line, "object index must be a string");
      }
      Object& obj = *object.AsObject();
      auto it = obj.find(index.AsString());
      Value old = it != obj.end() ? it->second : Value();
      ASSIGN_OR_RETURN(Value next, apply_op(old));
      obj[index.AsString()] = next;
      return next;
    }
    if (object.is_array()) {
      if (!index.is_number()) {
        return Err(e->line, "array index must be a number");
      }
      Array& arr = *object.AsArray();
      auto i = static_cast<int64_t>(index.AsNumber());
      if (i < 0 || i > static_cast<int64_t>(arr.size())) {
        return Err(e->line, "array index out of range");
      }
      if (i == static_cast<int64_t>(arr.size())) arr.emplace_back();
      ASSIGN_OR_RETURN(Value next, apply_op(arr[i]));
      arr[i] = next;
      return next;
    }
    return Err(e->line, std::string("cannot index ") + object.TypeName());
  }
  return Err(e->line, "invalid assignment target");
}

Result<Value> Interpreter::MemberGet(const Value& object,
                                     const std::string& name, int line) {
  if (object.is_object()) {
    const Object& obj = *object.AsObject();
    auto it = obj.find(name);
    return it != obj.end() ? it->second : Value();
  }
  if (object.is_array()) {
    auto arr = object.AsArray();
    if (name == "length") return Value(arr->size());
    if (name == "push") {
      return Value(NativeFn([arr](std::vector<Value>& args) -> Result<Value> {
        for (Value& v : args) arr->push_back(std::move(v));
        return Value(arr->size());
      }));
    }
    if (name == "pop") {
      return Value(NativeFn([arr](std::vector<Value>&) -> Result<Value> {
        if (arr->empty()) return Value();
        Value v = std::move(arr->back());
        arr->pop_back();
        return v;
      }));
    }
    if (name == "includes") {
      return Value(NativeFn([arr](std::vector<Value>& args) -> Result<Value> {
        if (args.empty()) return Value(false);
        for (const Value& v : *arr) {
          if (v.Equals(args[0])) return Value(true);
        }
        return Value(false);
      }));
    }
    if (name == "join") {
      return Value(NativeFn([arr](std::vector<Value>& args) -> Result<Value> {
        std::string sep = !args.empty() && args[0].is_string()
                              ? args[0].AsString()
                              : ",";
        std::string out;
        for (size_t i = 0; i < arr->size(); ++i) {
          if (i > 0) out += sep;
          out += (*arr)[i].ToDisplayString();
        }
        return Value(std::move(out));
      }));
    }
    return Err(line, "unknown array member '" + name + "'");
  }
  if (object.is_string()) {
    const std::string s = object.AsString();
    if (name == "length") return Value(s.size());
    if (name == "startsWith") {
      return Value(NativeFn([s](std::vector<Value>& args) -> Result<Value> {
        if (args.empty() || !args[0].is_string()) return Value(false);
        return Value(s.rfind(args[0].AsString(), 0) == 0);
      }));
    }
    return Err(line, "unknown string member '" + name + "'");
  }
  if (object.is_null()) {
    return Err(line, "cannot read property '" + name + "' of null");
  }
  return Err(line, std::string("cannot read property of ") +
                       object.TypeName());
}

Result<Value> Interpreter::IndexGet(const Value& object, const Value& index,
                                    int line) {
  if (object.is_object()) {
    if (!index.is_string()) return Err(line, "object index must be a string");
    const Object& obj = *object.AsObject();
    auto it = obj.find(index.AsString());
    return it != obj.end() ? it->second : Value();
  }
  if (object.is_array()) {
    if (!index.is_number()) return Err(line, "array index must be a number");
    const Array& arr = *object.AsArray();
    auto i = static_cast<int64_t>(index.AsNumber());
    if (i < 0 || i >= static_cast<int64_t>(arr.size())) return Value();
    return arr[i];
  }
  if (object.is_string()) {
    if (!index.is_number()) return Err(line, "string index must be a number");
    const std::string& s = object.AsString();
    auto i = static_cast<int64_t>(index.AsNumber());
    if (i < 0 || i >= static_cast<int64_t>(s.size())) return Value();
    return Value(std::string(1, s[i]));
  }
  return Err(line, std::string("cannot index ") + object.TypeName());
}

// -------------------------------------------------------------- Builtins

void Interpreter::InstallBuiltins() {
  auto define = [&](const std::string& name, NativeFn fn) {
    globals_->Define(name, Value(std::move(fn)));
  };

  define("len", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1) return Status::InvalidArgument("len takes 1 arg");
    const Value& v = args[0];
    if (v.is_string()) return Value(v.AsString().size());
    if (v.is_array()) return Value(v.AsArray()->size());
    if (v.is_object()) return Value(v.AsObject()->size());
    return Status::InvalidArgument(std::string("len of ") + v.TypeName());
  });
  define("str", [](std::vector<Value>& args) -> Result<Value> {
    std::string out;
    for (const Value& v : args) out += v.ToDisplayString();
    return Value(std::move(out));
  });
  define("num", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1) return Status::InvalidArgument("num takes 1 arg");
    if (args[0].is_number()) return args[0];
    if (args[0].is_string()) {
      try {
        return Value(std::stod(args[0].AsString()));
      } catch (...) {
        return Status::InvalidArgument("num: not a number");
      }
    }
    if (args[0].is_bool()) return Value(args[0].AsBool() ? 1.0 : 0.0);
    return Status::InvalidArgument("num: unsupported type");
  });
  define("keys", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_object()) {
      return Status::InvalidArgument("keys takes an object");
    }
    Array out;
    for (const auto& [k, v] : *args[0].AsObject()) out.emplace_back(k);
    return Value(std::move(out));
  });
  define("has", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_object() || !args[1].is_string()) {
      return Status::InvalidArgument("has(obj, key)");
    }
    return Value(args[0].AsObject()->count(args[1].AsString()) > 0);
  });
  define("del", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_object() || !args[1].is_string()) {
      return Status::InvalidArgument("del(obj, key)");
    }
    return Value(args[0].AsObject()->erase(args[1].AsString()) > 0);
  });
  define("floor", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_number()) {
      return Status::InvalidArgument("floor takes a number");
    }
    return Value(std::floor(args[0].AsNumber()));
  });
  define("abs", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_number()) {
      return Status::InvalidArgument("abs takes a number");
    }
    return Value(std::abs(args[0].AsNumber()));
  });
  define("min", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_number() || !args[1].is_number()) {
      return Status::InvalidArgument("min takes two numbers");
    }
    return Value(std::min(args[0].AsNumber(), args[1].AsNumber()));
  });
  define("max", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_number() || !args[1].is_number()) {
      return Status::InvalidArgument("max takes two numbers");
    }
    return Value(std::max(args[0].AsNumber(), args[1].AsNumber()));
  });
  define("typeof", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1) return Status::InvalidArgument("typeof takes 1 arg");
    return Value(std::string(args[0].TypeName()));
  });
  define("json_stringify", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1) {
      return Status::InvalidArgument("json_stringify takes 1 arg");
    }
    ASSIGN_OR_RETURN(json::Value j, args[0].ToJson());
    return Value(j.Dump());
  });
  define("json_parse", [](std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_string()) {
      return Status::InvalidArgument("json_parse takes a string");
    }
    ASSIGN_OR_RETURN(json::Value j, json::Parse(args[0].AsString()));
    return Value::FromJson(j);
  });
}

}  // namespace ccf::script
