// The pre-resolve MiniScript evaluator, verbatim apart from its namespace and
// includes (see reference_js.hpp).
#include <algorithm>
#include <cmath>
#include <optional>

#include "reference_js.hpp"

namespace eab::test::reference_js {
namespace {

/// Thrown to unwind out of a function body on `return`.
struct ReturnSignal {
  Value value;
};
/// Thrown to unwind to the innermost loop on `break` / `continue`.
struct BreakSignal {};
struct ContinueSignal {};

/// The element an index names in a sequence of `size`, or nullopt when it
/// names none: negative, non-integral, NaN or at/past the end.  Checked in
/// doubles, so no out-of-range value ever reaches a cast.
std::optional<std::size_t> element_index(double index, std::size_t size) {
  if (!(index >= 0) || index >= static_cast<double>(size) ||
      index != std::floor(index)) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(index);
}

/// How far past its end an index write may grow an array.
constexpr double kMaxArrayGrowth = 1 << 20;

std::string number_to_string(double d) {
  // Integral doubles print without a decimal point, like JS.
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    return std::to_string(static_cast<long long>(d));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", d);
  return buf;
}

}  // namespace

bool Value::truthy() const {
  if (std::holds_alternative<std::monostate>(storage)) return false;
  if (std::holds_alternative<std::nullptr_t>(storage)) return false;
  if (const bool* b = std::get_if<bool>(&storage)) return *b;
  if (const double* d = std::get_if<double>(&storage)) return *d != 0;
  if (const std::string* s = std::get_if<std::string>(&storage)) return !s->empty();
  return true;  // arrays, functions, host objects
}

double Value::to_number() const {
  if (const double* d = std::get_if<double>(&storage)) return *d;
  if (const bool* b = std::get_if<bool>(&storage)) return *b ? 1 : 0;
  if (const std::string* s = std::get_if<std::string>(&storage)) {
    char* end = nullptr;
    const double v = std::strtod(s->c_str(), &end);
    return end == s->c_str() ? 0 : v;
  }
  return 0;
}

std::string Value::to_string() const {
  if (std::holds_alternative<std::monostate>(storage)) return "undefined";
  if (std::holds_alternative<std::nullptr_t>(storage)) return "null";
  if (const bool* b = std::get_if<bool>(&storage)) return *b ? "true" : "false";
  if (const double* d = std::get_if<double>(&storage)) return number_to_string(*d);
  if (const std::string* s = std::get_if<std::string>(&storage)) return *s;
  if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&storage)) {
    std::string out;
    for (std::size_t i = 0; i < (*arr)->size(); ++i) {
      if (i > 0) out += ",";
      out += (**arr)[i].to_string();
    }
    return out;
  }
  if (std::holds_alternative<const Stmt*>(storage)) return "[function]";
  if (std::holds_alternative<std::shared_ptr<Object>>(storage)) {
    return "[object Object]";
  }
  return "[object]";
}

namespace {

/// Executes a program against an Interpreter's global state.
class Evaluator {
 public:
  Evaluator(std::unordered_map<std::string, Value>& globals, JsHost& host,
            std::uint64_t budget)
      : globals_(globals), host_(host), budget_(budget) {}

  std::uint64_t ops() const { return ops_; }

  void run(const Program& program) {
    try {
      for (const auto& stmt : program.statements) {
        execute(*stmt);
      }
    } catch (ReturnSignal&) {
      fail("return outside function");
    } catch (BreakSignal&) {
      fail("break outside loop");
    } catch (ContinueSignal&) {
      fail("continue outside loop");
    }
  }

 private:
  [[noreturn]] void fail(const std::string& what) { throw JsError(what); }

  void tick() {
    if (++ops_ > budget_) fail("op budget exceeded");
  }

  // --- scope handling -----------------------------------------------------

  using Scope = std::unordered_map<std::string, Value>;

  Value* find_variable(const std::string& name) {
    for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    auto found = globals_.find(name);
    return found == globals_.end() ? nullptr : &found->second;
  }

  void declare(const std::string& name, Value value) {
    if (locals_.empty()) {
      globals_[name] = std::move(value);
    } else {
      locals_.back()[name] = std::move(value);
    }
  }

  void assign(const std::string& name, Value value) {
    if (Value* slot = find_variable(name)) {
      *slot = std::move(value);
    } else {
      globals_[name] = std::move(value);  // implicit global, like JS
    }
  }

  // --- statements ----------------------------------------------------------

  void execute(const Stmt& stmt) {
    tick();
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        evaluate(*stmt.exprs[0]);
        return;
      case Stmt::Kind::kVarDecl:
        declare(stmt.text,
                stmt.exprs.empty() ? Value::undefined() : evaluate(*stmt.exprs[0]));
        return;
      case Stmt::Kind::kBlock:
        for (const auto& child : stmt.stmts) execute(*child);
        return;
      case Stmt::Kind::kIf:
        if (evaluate(*stmt.exprs[0]).truthy()) {
          execute(*stmt.stmts[0]);
        } else if (stmt.stmts.size() > 1) {
          execute(*stmt.stmts[1]);
        }
        return;
      case Stmt::Kind::kWhile:
        while (evaluate(*stmt.exprs[0]).truthy()) {
          try {
            execute(*stmt.stmts[0]);
          } catch (BreakSignal&) {
            break;
          } catch (ContinueSignal&) {
          }
        }
        return;
      case Stmt::Kind::kFor:
        execute(*stmt.stmts[0]);  // init
        while (evaluate(*stmt.exprs[0]).truthy()) {
          try {
            execute(*stmt.stmts[1]);  // body
          } catch (BreakSignal&) {
            break;
          } catch (ContinueSignal&) {
          }
          if (stmt.exprs.size() > 1) evaluate(*stmt.exprs[1]);  // step
        }
        return;
      case Stmt::Kind::kFunction:
        declare(stmt.text, Value::make(&stmt));
        return;
      case Stmt::Kind::kReturn:
        throw ReturnSignal{stmt.exprs.empty() ? Value::undefined()
                                              : evaluate(*stmt.exprs[0])};
      case Stmt::Kind::kBreak:
        throw BreakSignal{};
      case Stmt::Kind::kContinue:
        throw ContinueSignal{};
    }
  }

  // --- expressions ----------------------------------------------------------

  Value evaluate(const Expr& expr) {
    tick();
    switch (expr.kind) {
      case Expr::Kind::kNumber:
        return Value::make(expr.number);
      case Expr::Kind::kString:
        return Value::make(expr.text);
      case Expr::Kind::kBool:
        return Value::make(expr.boolean);
      case Expr::Kind::kNull:
        return expr.text == "undefined" ? Value::undefined() : Value::null();
      case Expr::Kind::kIdentifier:
        return identifier(expr.text);
      case Expr::Kind::kArray: {
        auto array = std::make_shared<Array>();
        for (const auto& element : expr.operands) {
          array->push_back(evaluate(*element));
        }
        return Value::make(array);
      }
      case Expr::Kind::kObject: {
        auto object = std::make_shared<Object>();
        std::size_t begin = 0;
        for (const auto& element : expr.operands) {
          const std::size_t end = expr.text.find('\n', begin);
          const std::string key = expr.text.substr(
              begin, end == std::string::npos ? std::string::npos : end - begin);
          begin = end == std::string::npos ? expr.text.size() : end + 1;
          (*object)[key] = evaluate(*element);
        }
        return Value::make(object);
      }
      case Expr::Kind::kUnary: {
        Value operand = evaluate(*expr.operands[0]);
        if (expr.text == "!") return Value::make(!operand.truthy());
        if (expr.text == "typeof") return Value::make(type_name(operand));
        return Value::make(-operand.to_number());
      }
      case Expr::Kind::kBinary:
        return binary(expr);
      case Expr::Kind::kAssign:
        return assignment(expr);
      case Expr::Kind::kCall:
        return call(expr);
      case Expr::Kind::kMember:
        return member(expr);
      case Expr::Kind::kIndex: {
        Value object = evaluate(*expr.operands[0]);
        if (const auto* obj =
                std::get_if<std::shared_ptr<Object>>(&object.storage)) {
          auto it = (*obj)->find(evaluate(*expr.operands[1]).to_string());
          return it == (*obj)->end() ? Value::undefined() : it->second;
        }
        const double index = evaluate(*expr.operands[1]).to_number();
        if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&object.storage)) {
          const auto at = element_index(index, (*arr)->size());
          return at ? (**arr)[*at] : Value::undefined();
        }
        if (const auto* str = std::get_if<std::string>(&object.storage)) {
          const auto at = element_index(index, str->size());
          return at ? Value::make(std::string(1, (*str)[*at])) : Value::undefined();
        }
        fail("cannot index non-array value");
      }
    }
    fail("unreachable expression kind");
  }

  static std::string type_name(const Value& value) {
    if (std::holds_alternative<std::monostate>(value.storage)) return "undefined";
    if (std::holds_alternative<std::nullptr_t>(value.storage)) return "object";
    if (std::holds_alternative<bool>(value.storage)) return "boolean";
    if (std::holds_alternative<double>(value.storage)) return "number";
    if (std::holds_alternative<std::string>(value.storage)) return "string";
    if (std::holds_alternative<const Stmt*>(value.storage)) return "function";
    return "object";
  }

  Value identifier(const std::string& name) {
    if (name == "document") return Value::make(HostObject::kDocument);
    if (name == "Math") return Value::make(HostObject::kMath);
    if (name == "window") return Value::make(HostObject::kWindow);
    if (Value* slot = find_variable(name)) return *slot;
    return Value::undefined();
  }

  Value binary(const Expr& expr) {
    const std::string& op = expr.text;
    if (op == "&&") {
      Value lhs = evaluate(*expr.operands[0]);
      return lhs.truthy() ? evaluate(*expr.operands[1]) : lhs;
    }
    if (op == "||") {
      Value lhs = evaluate(*expr.operands[0]);
      return lhs.truthy() ? lhs : evaluate(*expr.operands[1]);
    }
    Value lhs = evaluate(*expr.operands[0]);
    Value rhs = evaluate(*expr.operands[1]);
    if (op == "+") {
      if (lhs.is_string() || rhs.is_string()) {
        return Value::make(lhs.to_string() + rhs.to_string());
      }
      return Value::make(lhs.to_number() + rhs.to_number());
    }
    if (op == "-") return Value::make(lhs.to_number() - rhs.to_number());
    if (op == "*") return Value::make(lhs.to_number() * rhs.to_number());
    if (op == "/") return Value::make(lhs.to_number() / rhs.to_number());
    if (op == "%") {
      return Value::make(std::fmod(lhs.to_number(), rhs.to_number()));
    }
    if (op == "==" || op == "!=") {
      bool equal;
      if (lhs.is_number() && rhs.is_number()) {
        equal = lhs.to_number() == rhs.to_number();
      } else {
        equal = lhs.to_string() == rhs.to_string();
      }
      return Value::make(op == "==" ? equal : !equal);
    }
    const double a = lhs.to_number();
    const double b = rhs.to_number();
    if (op == "<") return Value::make(a < b);
    if (op == ">") return Value::make(a > b);
    if (op == "<=") return Value::make(a <= b);
    if (op == ">=") return Value::make(a >= b);
    fail("unknown operator '" + op + "'");
  }

  Value assignment(const Expr& expr) {
    const Expr& target = *expr.operands[0];
    Value value = evaluate(*expr.operands[1]);
    if (expr.text != "=") {
      // Compound assignment: compute current (op) value.
      Value current = evaluate(target);
      const char op = expr.text[0];
      if (op == '+') {
        if (current.is_string() || value.is_string()) {
          value = Value::make(current.to_string() + value.to_string());
        } else {
          value = Value::make(current.to_number() + value.to_number());
        }
      } else if (op == '-') {
        value = Value::make(current.to_number() - value.to_number());
      } else if (op == '*') {
        value = Value::make(current.to_number() * value.to_number());
      } else {
        value = Value::make(current.to_number() / value.to_number());
      }
    }
    if (target.kind == Expr::Kind::kIdentifier) {
      assign(target.text, value);
      return value;
    }
    if (target.kind == Expr::Kind::kMember) {
      // obj.key = v.
      Value object = evaluate(*target.operands[0]);
      if (auto* obj = std::get_if<std::shared_ptr<Object>>(&object.storage)) {
        (**obj)[target.text] = value;
        return value;
      }
      fail("cannot set property on non-object value");
    }
    // Index assignment: arr[i] = v or obj['key'] = v.
    Value object = evaluate(*target.operands[0]);
    if (auto* obj = std::get_if<std::shared_ptr<Object>>(&object.storage)) {
      (**obj)[evaluate(*target.operands[1]).to_string()] = value;
      return value;
    }
    const double index = evaluate(*target.operands[1]).to_number();
    if (auto* arr = std::get_if<std::shared_ptr<Array>>(&object.storage)) {
      const auto size = static_cast<double>((*arr)->size());
      if (!(index >= 0) || index != std::floor(index) ||
          index - size > kMaxArrayGrowth) {
        fail("array index " + number_to_string(index) + " out of range");
      }
      const auto at = static_cast<std::size_t>(index);
      if (at >= (*arr)->size()) (*arr)->resize(at + 1);
      (**arr)[at] = value;
      return value;
    }
    fail("cannot index-assign non-array value");
  }

  Value member(const Expr& expr) {
    Value object = evaluate(*expr.operands[0]);
    if (const auto* obj = std::get_if<std::shared_ptr<Object>>(&object.storage)) {
      auto it = (*obj)->find(expr.text);
      return it == (*obj)->end() ? Value::undefined() : it->second;
    }
    if (expr.text == "length") {
      if (const auto* str = std::get_if<std::string>(&object.storage)) {
        return Value::make(static_cast<double>(str->size()));
      }
      if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&object.storage)) {
        return Value::make(static_cast<double>((*arr)->size()));
      }
    }
    if (const auto* host = std::get_if<HostObject>(&object.storage)) {
      if (*host == HostObject::kMath) {
        if (expr.text == "PI") return Value::make(3.141592653589793);
      }
      // Other host members only make sense as call targets.
      return Value::undefined();
    }
    return Value::undefined();
  }

  Value call(const Expr& expr) {
    const Expr& callee = *expr.operands[0];
    std::vector<Value> args;
    args.reserve(expr.operands.size() - 1);
    for (std::size_t i = 1; i < expr.operands.size(); ++i) {
      args.push_back(evaluate(*expr.operands[i]));
    }

    // Host-object method calls: document.write, Math.floor, ...
    if (callee.kind == Expr::Kind::kMember) {
      Value object = evaluate(*callee.operands[0]);
      if (const auto* host = std::get_if<HostObject>(&object.storage)) {
        return host_call(*host, callee.text, args);
      }
    }
    // Global builtins and script functions.
    if (callee.kind == Expr::Kind::kIdentifier) {
      if (Value builtin_result; builtin(callee.text, args, builtin_result)) {
        return builtin_result;
      }
    }
    Value target = evaluate(callee);
    if (const auto* fn = std::get_if<const Stmt*>(&target.storage)) {
      return invoke(**fn, args);
    }
    fail("call of non-function value");
  }

  Value invoke(const Stmt& fn, const std::vector<Value>& args) {
    if (locals_.size() > 64) fail("call stack overflow");
    Scope scope;
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      scope[fn.params[i]] = i < args.size() ? args[i] : Value::undefined();
    }
    locals_.push_back(std::move(scope));
    Value result = Value::undefined();
    try {
      execute(*fn.stmts[0]);
    } catch (ReturnSignal& signal) {
      result = std::move(signal.value);
    } catch (BreakSignal&) {
      locals_.pop_back();
      fail("break outside loop");
    } catch (ContinueSignal&) {
      locals_.pop_back();
      fail("continue outside loop");
    }
    locals_.pop_back();
    return result;
  }

  Value host_call(HostObject host, const std::string& method,
                  const std::vector<Value>& args) {
    auto arg_number = [&](std::size_t i) {
      return i < args.size() ? args[i].to_number() : 0.0;
    };
    auto arg_string = [&](std::size_t i) {
      return i < args.size() ? args[i].to_string() : std::string();
    };
    switch (host) {
      case HostObject::kDocument:
        if (method == "write" || method == "writeln") {
          host_.document_write(arg_string(0));
          return Value::undefined();
        }
        break;
      case HostObject::kMath:
        if (method == "floor") return Value::make(std::floor(arg_number(0)));
        if (method == "ceil") return Value::make(std::ceil(arg_number(0)));
        if (method == "abs") return Value::make(std::abs(arg_number(0)));
        if (method == "sqrt") return Value::make(std::sqrt(arg_number(0)));
        if (method == "max") return Value::make(std::max(arg_number(0), arg_number(1)));
        if (method == "min") return Value::make(std::min(arg_number(0), arg_number(1)));
        if (method == "random") return Value::make(host_.random());
        break;
      case HostObject::kWindow:
        // window.loadImage(...) etc. route to the same global builtins.
        if (Value result; builtin(method, args, result)) return result;
        break;
    }
    fail("unknown host method '" + method + "'");
  }

  /// Global builtin dispatch; returns false when `name` is not a builtin.
  bool builtin(const std::string& name, const std::vector<Value>& args,
               Value& result) {
    auto arg_string = [&](std::size_t i) {
      return i < args.size() ? args[i].to_string() : std::string();
    };
    if (name == "loadImage") {
      host_.request_resource(arg_string(0), net::ResourceKind::kImage);
      result = Value::undefined();
      return true;
    }
    if (name == "loadScript") {
      host_.request_resource(arg_string(0), net::ResourceKind::kJs);
      result = Value::undefined();
      return true;
    }
    if (name == "loadCss") {
      host_.request_resource(arg_string(0), net::ResourceKind::kCss);
      result = Value::undefined();
      return true;
    }
    if (name == "fetchData") {
      host_.request_resource(arg_string(0), net::ResourceKind::kOther);
      result = Value::undefined();
      return true;
    }
    if (name == "indexOf") {
      const std::string haystack = arg_string(0);
      const std::string needle = arg_string(1);
      const auto pos = haystack.find(needle);
      result = Value::make(pos == std::string::npos ? -1.0
                                                    : static_cast<double>(pos));
      return true;
    }
    if (name == "substring") {
      const std::string text = arg_string(0);
      const auto size = static_cast<double>(text.size());
      // Both ends clamp into [0, size]; a NaN start reads as 0, a NaN end
      // as size.
      const auto from = static_cast<std::size_t>(std::min(
          size, std::max(0.0, args.size() > 1 ? args[1].to_number() : 0.0)));
      const auto until = static_cast<std::size_t>(std::max(
          0.0, std::min(size, args.size() > 2 ? args[2].to_number() : size)));
      result = Value::make(from >= until ? std::string()
                                         : text.substr(from, until - from));
      return true;
    }
    if (name == "charAt") {
      const std::string text = arg_string(0);
      const auto at =
          element_index(args.size() > 1 ? args[1].to_number() : 0.0, text.size());
      result = Value::make(at ? std::string(1, text[*at]) : std::string());
      return true;
    }
    if (name == "split") {
      const std::string text = arg_string(0);
      const std::string separator = arg_string(1);
      auto array = std::make_shared<Array>();
      if (separator.empty()) {
        for (char c : text) array->push_back(Value::make(std::string(1, c)));
      } else {
        std::size_t start = 0;
        for (;;) {
          const std::size_t pos = text.find(separator, start);
          array->push_back(Value::make(
              text.substr(start, pos == std::string::npos ? std::string::npos
                                                          : pos - start)));
          if (pos == std::string::npos) break;
          start = pos + separator.size();
        }
      }
      result = Value::make(array);
      return true;
    }
    if (name == "str") {
      result = Value::make(arg_string(0));
      return true;
    }
    if (name == "len") {
      if (!args.empty()) {
        if (const auto* arr =
                std::get_if<std::shared_ptr<Array>>(&args[0].storage)) {
          result = Value::make(static_cast<double>((*arr)->size()));
          return true;
        }
      }
      result = Value::make(static_cast<double>(arg_string(0).size()));
      return true;
    }
    if (name == "push") {
      if (args.size() >= 2) {
        if (const auto* arr =
                std::get_if<std::shared_ptr<Array>>(&args[0].storage)) {
          (*arr)->push_back(args[1]);
          result = Value::make(static_cast<double>((*arr)->size()));
          return true;
        }
      }
      fail("push() expects (array, value)");
    }
    return false;
  }

  std::unordered_map<std::string, Value>& globals_;
  JsHost& host_;
  std::uint64_t budget_;
  std::uint64_t ops_ = 0;
  std::vector<Scope> locals_;
};

}  // namespace

ChainRunner::ChainRunner(JsHost& host, std::uint64_t op_budget)
    : host_(host), op_budget_(op_budget) {}

RunResult ChainRunner::run(std::string_view source) {
  RunResult result;
  Evaluator evaluator(globals_, host_, op_budget_);
  try {
    auto program = std::make_shared<Program>(web::js::parse(source));
    retained_programs_.push_back(program);  // keep function ASTs alive
    evaluator.run(*program);
    result.completed = true;
  } catch (const JsError& error) {
    result.error = error.what();
  } catch (const std::exception& error) {
    result.error = error.what();
  }
  result.ops = evaluator.ops();
  total_ops_ += result.ops;
  return result;
}

Value ChainRunner::global(const std::string& name) {
  auto it = globals_.find(name);
  return it == globals_.end() ? Value::undefined() : it->second;
}

}  // namespace eab::test::reference_js
