#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "script/interp.h"

namespace ccf::script {
namespace {

// Compiles and runs a snippet, returning the last expression value.
Result<Value> Eval(const std::string& src) {
  auto prog = Compile(src);
  if (!prog.ok()) return prog.status();
  Interpreter interp;
  return interp.Run(*prog);
}

double EvalNum(const std::string& src) {
  auto r = Eval(src);
  EXPECT_TRUE(r.ok()) << src << ": " << r.status().ToString();
  if (!r.ok() || !r->is_number()) return -999999;
  return r->AsNumber();
}

std::string EvalStr(const std::string& src) {
  auto r = Eval(src);
  EXPECT_TRUE(r.ok()) << src << ": " << r.status().ToString();
  if (!r.ok()) return "<error>";
  auto rendered = r->ToDisplayString();
  EXPECT_TRUE(rendered.ok()) << src << ": " << rendered.status().ToString();
  return rendered.ok() ? *rendered : "<error>";
}

TEST(CclBasics, Arithmetic) {
  EXPECT_EQ(EvalNum("1 + 2 * 3;"), 7);
  EXPECT_EQ(EvalNum("(1 + 2) * 3;"), 9);
  EXPECT_EQ(EvalNum("10 / 4;"), 2.5);
  EXPECT_EQ(EvalNum("10 % 3;"), 1);
  EXPECT_EQ(EvalNum("-5 + 3;"), -2);
  EXPECT_EQ(EvalNum("2 - -3;"), 5);
}

TEST(CclBasics, Variables) {
  EXPECT_EQ(EvalNum("let x = 4; let y = x * x; y + 1;"), 17);
  EXPECT_EQ(EvalNum("let x = 1; x = x + 1; x += 3; x;"), 5);
  EXPECT_EQ(EvalNum("let x = 10; x -= 2; x *= 3; x /= 4; x;"), 6);
}

TEST(CclBasics, UndeclaredAssignmentFails) {
  EXPECT_FALSE(Eval("y = 3;").ok());
  EXPECT_FALSE(Eval("let x = z + 1;").ok());
}

TEST(CclBasics, Strings) {
  EXPECT_EQ(EvalStr("'a' + 'b' + 'c';"), "abc");
  EXPECT_EQ(EvalStr("'n' + 3;"), "n3");
  EXPECT_EQ(EvalNum("'hello'.length;"), 5);
  EXPECT_EQ(EvalStr("'hello'[1];"), "e");
  EXPECT_EQ(EvalStr("str('x=', 1 < 2);"), "x=true");
  auto r = Eval("'public:foo'.startsWith('public:');");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->AsBool());
}

TEST(CclBasics, ComparisonsAndLogic) {
  EXPECT_EQ(EvalStr("1 < 2;"), "true");
  EXPECT_EQ(EvalStr("'a' < 'b';"), "true");
  EXPECT_EQ(EvalStr("1 == 1 && 2 != 3;"), "true");
  EXPECT_EQ(EvalStr("false || 'fallback';"), "fallback");
  EXPECT_EQ(EvalStr("null && 1;"), "null");  // short-circuit returns lhs
  EXPECT_EQ(EvalStr("!null;"), "true");
  EXPECT_EQ(EvalStr("1 === 1;"), "true");
  EXPECT_EQ(EvalStr("1 !== 2;"), "true");
}

TEST(CclBasics, Ternary) {
  EXPECT_EQ(EvalNum("let x = 5; x > 3 ? 1 : 2;"), 1);
  EXPECT_EQ(EvalNum("let x = 1; x > 3 ? 1 : 2;"), 2);
}

TEST(CclControl, IfElse) {
  EXPECT_EQ(EvalNum(R"(
    let x = 10;
    let result = 0;
    if (x > 5) { result = 1; } else { result = 2; }
    result;
  )"), 1);
}

TEST(CclControl, WhileLoop) {
  EXPECT_EQ(EvalNum(R"(
    let sum = 0;
    let i = 1;
    while (i <= 10) { sum += i; i += 1; }
    sum;
  )"), 55);
}

TEST(CclControl, ForLoop) {
  EXPECT_EQ(EvalNum(R"(
    let sum = 0;
    for (let i = 0; i < 5; i += 1) { sum += i; }
    sum;
  )"), 10);
}

TEST(CclControl, BreakContinue) {
  EXPECT_EQ(EvalNum(R"(
    let sum = 0;
    for (let i = 0; i < 100; i += 1) {
      if (i % 2 == 0) { continue; }
      if (i > 10) { break; }
      sum += i;
    }
    sum;
  )"), 1 + 3 + 5 + 7 + 9);
}

TEST(CclControl, ForOfArray) {
  EXPECT_EQ(EvalNum(R"(
    let total = 0;
    for (let v of [1, 2, 3, 4]) { total += v; }
    total;
  )"), 10);
}

TEST(CclControl, ForOfObjectIteratesKeys) {
  EXPECT_EQ(EvalStr(R"(
    let obj = {b: 1, a: 2, c: 3};
    let ks = '';
    for (let k of obj) { ks += k; }
    ks;
  )"), "abc");  // deterministic sorted order
}

TEST(CclFunctions, DeclarationAndCall) {
  EXPECT_EQ(EvalNum(R"(
    function add(a, b) { return a + b; }
    add(2, 3);
  )"), 5);
}

TEST(CclFunctions, Recursion) {
  EXPECT_EQ(EvalNum(R"(
    function fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fib(12);
  )"), 144);
}

TEST(CclFunctions, ClosuresCaptureEnvironment) {
  EXPECT_EQ(EvalNum(R"(
    function makeCounter() {
      let count = 0;
      return function() { count += 1; return count; };
    }
    let c = makeCounter();
    c(); c();
    c();
  )"), 3);
}

TEST(CclFunctions, HigherOrder) {
  EXPECT_EQ(EvalNum(R"(
    function apply(f, x) { return f(x); }
    apply(function(v) { return v * 10; }, 4);
  )"), 40);
}

TEST(CclFunctions, MissingArgsAreNull) {
  EXPECT_EQ(EvalStr("function f(a, b) { return b; } str(f(1));"), "null");
}

TEST(CclData, Arrays) {
  EXPECT_EQ(EvalNum("[10, 20, 30][1];"), 20);
  EXPECT_EQ(EvalNum("let a = [1]; a.push(2, 3); a.length;"), 3);
  EXPECT_EQ(EvalNum("let a = [1, 2, 3]; a.pop();"), 3);
  EXPECT_EQ(EvalStr("[1, 2].includes(2);"), "true");
  EXPECT_EQ(EvalStr("[1, 2].includes(5);"), "false");
  EXPECT_EQ(EvalStr("['a', 'b'].join('-');"), "a-b");
  EXPECT_EQ(EvalStr("let a = [1]; a[1] = 5; str(a[1]);"), "5");
  EXPECT_EQ(EvalStr("str([1,2][9]);"), "null");  // out of range reads null
}

TEST(CclData, Objects) {
  EXPECT_EQ(EvalNum("let o = {a: 1, b: 2}; o.a + o['b'];"), 3);
  EXPECT_EQ(EvalNum("let o = {}; o.x = 7; o.x;"), 7);
  EXPECT_EQ(EvalStr("let o = {a: 1}; str(o.missing);"), "null");
  EXPECT_EQ(EvalNum("len({a: 1, b: 2});"), 2);
  EXPECT_EQ(EvalStr("has({a: 1}, 'a');"), "true");
  EXPECT_EQ(EvalStr("let o = {a: 1}; del(o, 'a'); has(o, 'a');"), "false");
  EXPECT_EQ(EvalStr("keys({b: 1, a: 2}).join(',');"), "a,b");
}

TEST(CclData, NestedStructures) {
  EXPECT_EQ(EvalNum(R"(
    let conf = {nodes: [{id: 'n0', weight: 2}, {id: 'n1', weight: 3}]};
    let total = 0;
    for (let n of conf.nodes) { total += n.weight; }
    total;
  )"), 5);
}

TEST(CclData, ReferenceSemantics) {
  EXPECT_EQ(EvalNum(R"(
    let a = {count: 0};
    let b = a;
    b.count = 42;
    a.count;
  )"), 42);
}

TEST(CclData, JsonBridge) {
  EXPECT_EQ(EvalStr("json_stringify({b: [1, true, null], a: 'x'});"),
            R"({"a":"x","b":[1,true,null]})");
  EXPECT_EQ(EvalNum("json_parse('{\"v\": 17}').v;"), 17);
  EXPECT_FALSE(Eval("json_parse('{bad');").ok());
}

TEST(CclBuiltins, Misc) {
  EXPECT_EQ(EvalNum("floor(3.7);"), 3);
  EXPECT_EQ(EvalNum("abs(-4);"), 4);
  EXPECT_EQ(EvalNum("min(2, 5) + max(2, 5);"), 7);
  EXPECT_EQ(EvalStr("typeof([]);"), "array");
  EXPECT_EQ(EvalNum("num('42') + 1;"), 43);
}

// Values that contain themselves, directly or through another container.
const char* const kSelfContaining[] = {
    "let a = []; a.push(a);",
    "let a = {}; a.self = a;",
    "let q = {}; let a = [q]; q.list = a;",
};

TEST(CclSelfContaining, RenderingIsAScriptError) {
  for (const char* setup : kSelfContaining) {
    for (const char* expr : {"str(a);", "json_stringify(a);", "'x' + a;"}) {
      auto r = Eval(std::string(setup) + " " + expr);
      ASSERT_FALSE(r.ok()) << setup << " " << expr;
      EXPECT_NE(r.status().message().find("contains itself"),
                std::string::npos)
          << r.status().ToString();
    }
  }
  auto joined = Eval("let a = [1]; a.push(a); a.join('-');");
  EXPECT_FALSE(joined.ok());
  // Sharing without a cycle still renders.
  EXPECT_EQ(EvalStr("let x = [1]; let y = [x, x, {k: x}]; json_stringify(y);"),
            "[[1],[1],{\"k\":[1]}]");
}

TEST(CclSelfContaining, EqualityEnds) {
  for (const char* setup : kSelfContaining) {
    EXPECT_EQ(EvalStr(std::string(setup) + " a == a;"), "true") << setup;
    EXPECT_EQ(EvalStr(std::string(setup) + " a != a;"), "false") << setup;
  }
  // Distinct values of the same shape are equal; a pair already being
  // compared counts as equal.
  EXPECT_EQ(EvalStr("let a = []; a.push(a); let b = []; b.push(b); a == b;"),
            "true");
  EXPECT_EQ(EvalStr("let o = {}; o.me = o; let p = {}; p.me = p; o == p;"),
            "true");
  EXPECT_EQ(EvalStr("let a = [1]; a.push(a); let b = [2]; b.push(b); a == b;"),
            "false");
  EXPECT_EQ(EvalStr("let a = []; a.push(a); let b = []; b.push(b); "
                    "[b].includes(a);"),
            "true");
}

TEST(CclErrors, SyntaxErrorsReported) {
  EXPECT_FALSE(Compile("let = 5;").ok());
  EXPECT_FALSE(Compile("if (x {").ok());
  EXPECT_FALSE(Compile("function () {}").ok());  // statement needs a name
  EXPECT_FALSE(Compile("let x = 1").ok());       // missing semicolon
  EXPECT_FALSE(Compile("1 ++ 2;").ok());
}

TEST(CclErrors, RuntimeErrorsCarryLineNumbers) {
  auto r = Eval("let x = 1;\nlet y = x / 0;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ccl:2"), std::string::npos);
}

TEST(CclErrors, TypeErrors) {
  EXPECT_FALSE(Eval("1 + {};").ok());
  EXPECT_FALSE(Eval("'a' < 1;").ok());
  EXPECT_FALSE(Eval("null.x;").ok());
  EXPECT_FALSE(Eval("(3)(4);").ok());
  EXPECT_FALSE(Eval("[1,2]['x'];").ok());
}

TEST(CclLimits, InfiniteLoopAborted) {
  auto r = Eval("while (true) { }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kAborted);
}

TEST(CclLimits, DeepRecursionAborted) {
  auto r = Eval("function f(n) { return f(n + 1); } f(0);");
  EXPECT_FALSE(r.ok());
}

TEST(CclInterop, HostGlobalsAndNatives) {
  auto prog = Compile(R"(
    function describe() { return greeting + ' ' + double(21); }
  )");
  ASSERT_TRUE(prog.ok());
  Interpreter interp;
  interp.SetGlobal("greeting", Value("hello"));
  interp.SetGlobal("double",
                   Value(NativeFn([](std::vector<Value>& args) -> Result<Value> {
                     return Value(args.at(0).AsNumber() * 2);
                   })));
  ASSERT_TRUE(interp.Run(*prog).ok());
  auto r = interp.Call("describe", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->AsString(), "hello 42");
}

TEST(CclInterop, CallWithArguments) {
  auto prog = Compile(R"(
    function resolve(proposal, votes) {
      let yes = 0;
      for (let m of votes) { if (votes[m]) { yes += 1; } }
      return yes * 2 > proposal.total ? 'Accepted' : 'Open';
    }
  )");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Interpreter interp;
  ASSERT_TRUE(interp.Run(*prog).ok());

  Object votes{{"m0", Value(true)}, {"m1", Value(true)}, {"m2", Value(false)}};
  Object proposal{{"total", Value(3)}};
  auto r = interp.Call("resolve", {Value(proposal), Value(votes)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->AsString(), "Accepted");
}

TEST(CclInterop, NativeErrorPropagates) {
  auto prog = Compile("function f() { return fail(); }");
  ASSERT_TRUE(prog.ok());
  Interpreter interp;
  interp.SetGlobal("fail",
                   Value(NativeFn([](std::vector<Value>&) -> Result<Value> {
                     return Status::PermissionDenied("nope");
                   })));
  ASSERT_TRUE(interp.Run(*prog).ok());
  auto r = interp.Call("f", {});
  EXPECT_FALSE(r.ok());
}

TEST(CclInterop, BudgetResetsBetweenCalls) {
  InterpOptions opts;
  opts.max_steps = 5000;
  Interpreter interp(opts);
  auto prog = Compile(R"(
    function work() {
      let x = 0;
      for (let i = 0; i < 100; i += 1) { x += i; }
      return x;
    }
  )");
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(interp.Run(*prog).ok());
  for (int i = 0; i < 50; ++i) {
    interp.ResetBudget();
    ASSERT_TRUE(interp.Call("work", {}).ok()) << i;
  }
}

// A closure is stored in the scope it captures, a shared_ptr cycle; the
// interpreter must break it when destroyed, or every constitution run,
// proposal, ballot and scripted endpoint call leaks its scopes and its
// compiled program.
TEST(CclLifetime, DestroyedInterpreterFreesGlobalsAndProgram) {
  std::weak_ptr<Environment> globals;
  std::weak_ptr<const Program> program;
  {
    auto prog = Compile("function f() { return 1; }");
    ASSERT_TRUE(prog.ok());
    program = *prog;
    Interpreter interp;
    ASSERT_TRUE(interp.Run(*prog).ok());
    globals = interp.GetGlobal("f")->AsClosure()->env;
    ASSERT_FALSE(globals.expired());
  }
  EXPECT_TRUE(globals.expired());
  EXPECT_TRUE(program.expired());
}

TEST(CclLifetime, DestroyedInterpreterFreesCapturedCallScopes) {
  // Each make_counter call scope holds `next`, which captures that scope.
  std::vector<std::weak_ptr<Environment>> scopes;
  {
    auto prog = Compile(R"(
      function make_counter() {
        let n = 0;
        function next() { n += 1; return n; }
        return next;
      }
    )");
    ASSERT_TRUE(prog.ok());
    Interpreter interp;
    ASSERT_TRUE(interp.Run(*prog).ok());
    for (int i = 0; i < 200; ++i) {
      auto counter = interp.Call("make_counter", {});
      ASSERT_TRUE(counter.ok()) << counter.status().ToString();
      auto first = interp.CallValue(*counter, {});
      ASSERT_TRUE(first.ok());
      EXPECT_EQ(first->AsNumber(), 1);
      scopes.push_back(counter->AsClosure()->env);
    }
  }
  for (const auto& scope : scopes) EXPECT_TRUE(scope.expired());
}

TEST(CclLifetime, DestroyedInterpreterFreesSelfContainingValues) {
  // Each value contains itself: a shared_ptr cycle that no scope clearing
  // reaches.
  std::vector<std::weak_ptr<Array>> arrays;
  std::vector<std::weak_ptr<Object>> objects;
  {
    auto prog = Compile(R"(
      let a = []; a.push(a);
      let b = [0]; b[0] = b;
      let o = {}; o.self = o;
      let p = {}; p['me'] = p;
      let q = {}; let r = [q]; q.list = r;
    )");
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Interpreter interp;
    ASSERT_TRUE(interp.Run(*prog).ok());
    for (const char* name : {"a", "b", "r"}) {
      arrays.push_back(interp.GetGlobal(name)->AsArray());
    }
    for (const char* name : {"o", "p", "q"}) {
      objects.push_back(interp.GetGlobal(name)->AsObject());
    }
  }
  for (const auto& array : arrays) EXPECT_TRUE(array.expired());
  for (const auto& object : objects) EXPECT_TRUE(object.expired());
}

TEST(CclComments, BothStylesIgnored) {
  EXPECT_EQ(EvalNum(R"(
    // line comment
    let x = 1; /* block
    comment */ let y = 2;
    x + y;
  )"), 3);
}

// A realistic constitution-shaped script (paper Listing 1 analogue).
TEST(CclRealistic, ConstitutionActions) {
  auto prog = Compile(R"(
    function resolve(proposal, member_count, ballots) {
      let votes_for = 0;
      for (let id of ballots) {
        if (ballots[id] == true) { votes_for += 1; }
      }
      if (votes_for * 2 > member_count) { return 'Accepted'; }
      return 'Open';
    }

    function validate_add_node_code(args) {
      if (typeof(args.code_id) != 'string') { return 'bad code_id'; }
      return '';
    }
  )");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Interpreter interp;
  ASSERT_TRUE(interp.Run(*prog).ok());

  Object ballots{{"m0", Value(true)}, {"m1", Value(false)}};
  auto open = interp.Call("resolve", {Value(Object{}), Value(3),
                                      Value(ballots)});
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->AsString(), "Open");

  ballots["m2"] = Value(true);
  auto accepted = interp.Call("resolve", {Value(Object{}), Value(3),
                                          Value(ballots)});
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->AsString(), "Accepted");

  auto bad = interp.Call("validate_add_node_code",
                         {Value(Object{{"code_id", Value(42)}})});
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->AsString(), "bad code_id");
}

}  // namespace
}  // namespace ccf::script
