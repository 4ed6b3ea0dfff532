// The MiniScript tree-walker as it ran before the resolve pass, kept as the
// oracle for tests/web_js_resolve_test.cpp.
//
// reference_js.cpp holds that evaluator verbatim: string-dispatched
// operators, host names and builtins, scopes as hash maps, and return,
// break and continue thrown as exceptions.  It walks js::parse()'s AST
// directly, so its function values are AST statements and its Value is a
// copy of the old one.  ChainRunner is its Interpreter minus the memo:
// persistent globals, scripts run in order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "web/js.hpp"

namespace eab::test::reference_js {

using web::js::Expr;
using web::js::HostObject;
using web::js::JsError;
using web::js::JsHost;
using web::js::Program;
using web::js::RunResult;
using web::js::Stmt;

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

struct Value {
  using Storage = std::variant<std::monostate,           // undefined
                               std::nullptr_t,           // null
                               bool, double, std::string,
                               std::shared_ptr<Array>,   // array
                               std::shared_ptr<Object>,  // object literal
                               const Stmt*,              // script function
                               HostObject>;
  Storage storage;

  Value() = default;
  static Value undefined() { return Value(); }
  static Value null() { return make(nullptr); }
  static Value make(Storage s) {
    Value v;
    v.storage = std::move(s);
    return v;
  }

  bool is_undefined() const { return std::holds_alternative<std::monostate>(storage); }
  bool is_string() const { return std::holds_alternative<std::string>(storage); }
  bool is_number() const { return std::holds_alternative<double>(storage); }

  bool truthy() const;
  double to_number() const;
  std::string to_string() const;
};

/// Runs scripts in order against one set of globals, like an Interpreter
/// with no script-outcome memo.
class ChainRunner {
 public:
  explicit ChainRunner(JsHost& host, std::uint64_t op_budget = 50'000'000);

  RunResult run(std::string_view source);
  std::uint64_t total_ops() const { return total_ops_; }
  Value global(const std::string& name);

 private:
  JsHost& host_;
  std::uint64_t op_budget_;
  std::uint64_t total_ops_ = 0;
  std::unordered_map<std::string, Value> globals_;
  /// Function declarations stay alive across scripts.
  std::vector<std::shared_ptr<Program>> retained_programs_;
};

}  // namespace eab::test::reference_js
