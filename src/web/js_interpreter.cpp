#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>

#include "web/js.hpp"
#include "web/js_resolve.hpp"

namespace eab::web::js {
namespace {

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
    // An array already being joined further up this thread's stack renders
    // as "", as Array.prototype.join does, so an array that contains itself
    // cannot recurse without end.
    thread_local std::vector<const Array*> joining;
    const Array* self = arr->get();
    if (std::find(joining.begin(), joining.end(), self) != joining.end()) {
      return "";
    }
    joining.push_back(self);
    struct Done {
      ~Done() { joining.pop_back(); }
    } done;
    std::string out;
    for (std::size_t i = 0; i < self->size(); ++i) {
      if (i > 0) out += ",";
      out += (*self)[i].to_string();
    }
    return out;
  }
  if (std::holds_alternative<const Function*>(storage)) return "[function]";
  if (std::holds_alternative<std::shared_ptr<Object>>(storage)) {
    return "[object Object]";
  }
  return "[object]";
}

namespace {

[[noreturn, gnu::cold, gnu::noinline]] void fail(const std::string& what) {
  throw JsError(what);
}

[[noreturn, gnu::cold, gnu::noinline]] void budget_exceeded() {
  fail("op budget exceeded");
}

Value number_value(double d) {
  Value value;
  value.storage.emplace<double>(d);
  return value;
}

Value bool_value(bool b) {
  Value value;
  value.storage.emplace<bool>(b);
  return value;
}

Value string_value(std::string s) {
  Value value;
  value.storage.emplace<std::string>(std::move(s));
  return value;
}

std::string type_name(const Value& value) {
  if (std::holds_alternative<std::monostate>(value.storage)) return "undefined";
  if (std::holds_alternative<std::nullptr_t>(value.storage)) return "object";
  if (std::holds_alternative<bool>(value.storage)) return "boolean";
  if (std::holds_alternative<double>(value.storage)) return "number";
  if (std::holds_alternative<std::string>(value.storage)) return "string";
  if (std::holds_alternative<const Function*>(value.storage)) return "function";
  return "object";
}

/// Runs a resolved program against an Interpreter's globals.  Every node
/// executed or evaluated costs one tick, taken before anything else the
/// node does; the op budget cuts the run off at the tick that exceeds it.
class Evaluator {
 public:
  Evaluator(std::vector<Value>& globals, JsHost& host, std::uint64_t budget)
      : globals_(globals), host_(host), budget_(budget) {}

  std::uint64_t ops() const { return ops_; }

  void run(const ResolvedProgram& program) {
    for (const Node& statement : program.statements) {
      switch (execute(statement)) {
        case Completion::kNormal:
          break;
        case Completion::kReturn:
          fail("return outside function");
        case Completion::kBreak:
          fail("break outside loop");
        case Completion::kContinue:
          fail("continue outside loop");
      }
    }
  }

 private:
  /// How a statement ended.  A loop consumes kBreak and kContinue, a call
  /// consumes kReturn; whatever reaches the top level or a function body's
  /// end unconsumed is an error.
  enum class Completion { kNormal, kReturn, kBreak, kContinue };

  struct Local {
    std::uint32_t name;
    Value value;
  };
  /// One call's variables.  Frames are few and small, so a linear scan
  /// beats hashing.
  using Frame = std::vector<Local>;

  void tick() {
    if (++ops_ > budget_) [[unlikely]] budget_exceeded();
  }

  // --- scope handling -----------------------------------------------------
  //
  // Dynamic scoping: a call's frame is visible to everything it calls, so a
  // name is looked up in every live frame, innermost first, and then in the
  // globals.  A name no frame holds is a global, undefined until assigned.

  Value& variable(std::uint32_t name) {
    for (std::size_t depth = depth_; depth-- > 0;) {
      for (Local& local : frames_[depth]) {
        if (local.name == name) return local.value;
      }
    }
    return globals_[name];
  }

  static void set_local(Frame& frame, std::uint32_t name, Value value) {
    for (Local& local : frame) {
      if (local.name == name) {
        local.value = std::move(value);
        return;
      }
    }
    frame.push_back({name, std::move(value)});
  }

  void declare(std::uint32_t name, Value value) {
    if (depth_ == 0) {
      globals_[name] = std::move(value);
    } else {
      set_local(frames_[depth_ - 1], name, std::move(value));
    }
  }

  // --- statements ----------------------------------------------------------

  Completion execute(const Node& node) {
    tick();
    switch (node.op) {
      case Op::kExpression:
        perform(node.kids[0]);
        return Completion::kNormal;
      case Op::kVar:
        declare(node.name, node.kids.empty() ? Value() : evaluate(node.kids[0]));
        return Completion::kNormal;
      case Op::kBlock:
        for (const Node& child : node.kids) {
          if (const Completion done = execute(child); done != Completion::kNormal) {
            return done;
          }
        }
        return Completion::kNormal;
      case Op::kIf:
        if (test(node.kids[0])) return execute(node.kids[1]);
        if (node.kids.size() > 2) return execute(node.kids[2]);
        return Completion::kNormal;
      case Op::kWhile:
        while (test(node.kids[0])) {
          const Completion done = execute(node.kids[1]);
          if (done == Completion::kBreak) break;
          if (done == Completion::kReturn) return done;
        }
        return Completion::kNormal;
      case Op::kFor:
        if (const Completion done = execute(node.kids[0]); done != Completion::kNormal) {
          return done;
        }
        while (test(node.kids[1])) {
          const Completion done = execute(node.kids[2]);
          if (done == Completion::kBreak) break;
          if (done == Completion::kReturn) return done;
          if (node.kids.size() > 3) perform(node.kids[3]);
        }
        return Completion::kNormal;
      case Op::kFunction: {
        Value function;
        function.storage.emplace<const Function*>(node.function.get());
        declare(node.name, std::move(function));
        return Completion::kNormal;
      }
      case Op::kReturn:
        return_value_ = node.kids.empty() ? Value() : evaluate(node.kids[0]);
        return Completion::kReturn;
      case Op::kBreak:
        return Completion::kBreak;
      case Op::kContinue:
        return Completion::kContinue;
      default:
        fail("unreachable statement kind");
    }
  }

  // --- expressions ----------------------------------------------------------

  /// evaluate(node), for a node whose value is dropped: an expression
  /// statement or a for loop's step.
  void perform(const Node& node) {
    if (node.op != Op::kAssignName || node.compound != Compound::kNone) {
      evaluate(node);
      return;
    }
    tick();
    double number;
    std::optional<Value> value;
    if (evaluate_number(node.kids[1], number, value)) {
      variable(node.name).storage.emplace<double>(number);
    } else {
      variable(node.name) = std::move(*value);
    }
  }

  /// evaluate(node), but a number comes back in `number`, with no Value
  /// built; any other result lands in `value`.  Returns whether `number`
  /// holds the result.
  bool evaluate_number(const Node& node, double& number,
                       std::optional<Value>& value) {
    switch (node.op) {
      case Op::kConstant:
        tick();
        if (!node.constant.is_number()) {
          value.emplace(node.constant);
          return false;
        }
        number = node.number;
        return true;
      case Op::kName: {
        tick();
        const Value& variable_value = variable(node.name);
        if (const double* held = std::get_if<double>(&variable_value.storage)) {
          number = *held;
          return true;
        }
        value.emplace(variable_value);
        return false;
      }
      case Op::kAdd:
        tick();
        return add(node, number, value);
      case Op::kNeg:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
        number = number_of(node);
        return true;
      default:
        value.emplace(evaluate(node));
        return false;
    }
  }

  /// evaluate(node).to_number(), with no Value built where the node's
  /// number can be read directly.
  double number_of(const Node& node) {
    switch (node.op) {
      case Op::kConstant:
        tick();
        return node.number;
      case Op::kName:
        tick();
        return variable(node.name).to_number();
      case Op::kNeg:
        tick();
        return -number_of(node.kids[0]);
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod: {
        tick();
        const double lhs = number_of(node.kids[0]);
        const double rhs = number_of(node.kids[1]);
        return arithmetic(node.op, lhs, rhs);
      }
      default: {
        double number;
        std::optional<Value> value;
        return evaluate_number(node, number, value) ? number : value->to_number();
      }
    }
  }

  /// evaluate(node).truthy(), with no Value built for comparisons and
  /// logic.
  bool test(const Node& node) {
    switch (node.op) {
      case Op::kNot:
        tick();
        return !test(node.kids[0]);
      case Op::kAnd:
        tick();
        return test(node.kids[0]) && test(node.kids[1]);
      case Op::kOr:
        tick();
        return test(node.kids[0]) || test(node.kids[1]);
      case Op::kEq:
        tick();
        return equals(node);
      case Op::kNe:
        tick();
        return !equals(node);
      case Op::kLt:
      case Op::kGt:
      case Op::kLe:
      case Op::kGe: {
        tick();
        const double lhs = number_of(node.kids[0]);
        const double rhs = number_of(node.kids[1]);
        return compare(node.op, lhs, rhs);
      }
      default:
        return evaluate(node).truthy();
    }
  }

  /// The operands of the kAdd `node` added, once its own tick is taken.
  bool add(const Node& node, double& number, std::optional<Value>& value) {
    double lhs_number;
    double rhs_number;
    std::optional<Value> lhs;
    std::optional<Value> rhs;
    const bool lhs_is_number = evaluate_number(node.kids[0], lhs_number, lhs);
    const bool rhs_is_number = evaluate_number(node.kids[1], rhs_number, rhs);
    if (lhs_is_number && rhs_is_number) {
      number = lhs_number + rhs_number;
      return true;
    }
    if (lhs_is_number) lhs = number_value(lhs_number);
    if (rhs_is_number) rhs = number_value(rhs_number);
    value.emplace(add(*lhs, *rhs));
    return false;
  }

  /// Whether the operands of the kEq/kNe `node` are equal, once its own
  /// tick is taken: numerically if both are numbers, else as strings.
  bool equals(const Node& node) {
    double lhs_number;
    double rhs_number;
    std::optional<Value> lhs;
    std::optional<Value> rhs;
    const bool lhs_is_number = evaluate_number(node.kids[0], lhs_number, lhs);
    const bool rhs_is_number = evaluate_number(node.kids[1], rhs_number, rhs);
    if (lhs_is_number && rhs_is_number) return lhs_number == rhs_number;
    if (lhs_is_number) lhs = number_value(lhs_number);
    if (rhs_is_number) rhs = number_value(rhs_number);
    if (lhs->is_number() && rhs->is_number()) {
      return lhs->to_number() == rhs->to_number();
    }
    return lhs->to_string() == rhs->to_string();
  }

  static double arithmetic(Op op, double lhs, double rhs) {
    switch (op) {
      case Op::kSub:
        return lhs - rhs;
      case Op::kMul:
        return lhs * rhs;
      case Op::kDiv:
        return lhs / rhs;
      default:
        return remainder_of(lhs, rhs);
    }
  }

  /// std::fmod(lhs, rhs).  Positive integral operands below 2^32 take the
  /// integer remainder instead: the same value, exactly, at a fraction of
  /// the cost.  Zero, negative, fractional and larger operands take fmod.
  static double remainder_of(double lhs, double rhs) {
    constexpr double kLimit = 4294967296.0;  // 2^32
    if (lhs > 0 && lhs < kLimit && rhs > 0 && rhs < kLimit) {
      const auto dividend = static_cast<std::uint32_t>(lhs);
      const auto divisor = static_cast<std::uint32_t>(rhs);
      if (dividend == lhs && divisor == rhs) {
        return static_cast<double>(dividend % divisor);
      }
    }
    return std::fmod(lhs, rhs);
  }

  static bool compare(Op op, double lhs, double rhs) {
    switch (op) {
      case Op::kLt:
        return lhs < rhs;
      case Op::kGt:
        return lhs > rhs;
      case Op::kLe:
        return lhs <= rhs;
      default:
        return lhs >= rhs;
    }
  }

  static Value add(const Value& lhs, const Value& rhs) {
    if (lhs.is_string() || rhs.is_string()) {
      return string_value(lhs.to_string() + rhs.to_string());
    }
    return number_value(lhs.to_number() + rhs.to_number());
  }

  Value evaluate(const Node& node) {
    tick();
    switch (node.op) {
      case Op::kConstant:
        return node.constant;
      case Op::kName:
        return variable(node.name);
      case Op::kArray: {
        auto array = std::make_shared<Array>();
        for (const Node& element : node.kids) {
          array->push_back(evaluate(element));
        }
        return Value::make(array);
      }
      case Op::kObject: {
        auto object = std::make_shared<Object>();
        for (std::size_t i = 0; i < node.kids.size(); ++i) {
          (*object)[node.keys[i]] = evaluate(node.kids[i]);
        }
        return Value::make(object);
      }
      case Op::kNot:
        return bool_value(!evaluate(node.kids[0]).truthy());
      case Op::kTypeof:
        return string_value(type_name(evaluate(node.kids[0])));
      case Op::kNeg:
        return number_value(-number_of(node.kids[0]));
      case Op::kAnd: {
        Value lhs = evaluate(node.kids[0]);
        return lhs.truthy() ? evaluate(node.kids[1]) : lhs;
      }
      case Op::kOr: {
        Value lhs = evaluate(node.kids[0]);
        return lhs.truthy() ? lhs : evaluate(node.kids[1]);
      }
      case Op::kAdd: {
        double number;
        std::optional<Value> value;
        return add(node, number, value) ? number_value(number) : std::move(*value);
      }
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod: {
        const double lhs = number_of(node.kids[0]);
        const double rhs = number_of(node.kids[1]);
        return number_value(arithmetic(node.op, lhs, rhs));
      }
      case Op::kEq:
        return bool_value(equals(node));
      case Op::kNe:
        return bool_value(!equals(node));
      case Op::kLt:
      case Op::kGt:
      case Op::kLe:
      case Op::kGe: {
        const double lhs = number_of(node.kids[0]);
        const double rhs = number_of(node.kids[1]);
        return bool_value(compare(node.op, lhs, rhs));
      }
      case Op::kUnknownOperator:
        evaluate(node.kids[0]);
        evaluate(node.kids[1]);
        fail("unknown operator '" + node.text + "'");
      case Op::kAssignName:
      case Op::kAssignMember:
      case Op::kAssignIndex:
        return assignment(node);
      case Op::kCall:
        return call(node);
      case Op::kMember:
        return member(node);
      case Op::kIndex: {
        Value object = evaluate(node.kids[0]);
        if (const auto* obj =
                std::get_if<std::shared_ptr<Object>>(&object.storage)) {
          auto it = (*obj)->find(evaluate(node.kids[1]).to_string());
          return it == (*obj)->end() ? Value::undefined() : it->second;
        }
        const double index = number_of(node.kids[1]);
        if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&object.storage)) {
          const auto at = element_index(index, (*arr)->size());
          return at ? (**arr)[*at] : Value::undefined();
        }
        if (const auto* str = std::get_if<std::string>(&object.storage)) {
          const auto at = element_index(index, str->size());
          return at ? string_value(std::string(1, (*str)[*at])) : Value::undefined();
        }
        fail("cannot index non-array value");
      }
      default:
        fail("unreachable expression kind");
    }
  }

  Value assignment(const Node& node) {
    const Node& target = node.kids[0];
    Value value = evaluate(node.kids[1]);
    if (node.compound != Compound::kNone) {
      // Compound assignment: compute current (op) value.
      const Value current = evaluate(target);
      switch (node.compound) {
        case Compound::kAdd:
          value = add(current, value);
          break;
        case Compound::kSub:
          value = number_value(current.to_number() - value.to_number());
          break;
        case Compound::kMul:
          value = number_value(current.to_number() * value.to_number());
          break;
        default:
          value = number_value(current.to_number() / value.to_number());
          break;
      }
    }
    if (node.op == Op::kAssignName) {
      variable(node.name) = value;
      return value;
    }
    if (node.op == Op::kAssignMember) {
      // obj.key = v.
      Value object = evaluate(target.kids[0]);
      if (auto* obj = std::get_if<std::shared_ptr<Object>>(&object.storage)) {
        (**obj)[target.text] = value;
        return value;
      }
      fail("cannot set property on non-object value");
    }
    // Index assignment: arr[i] = v or obj['key'] = v.
    Value object = evaluate(target.kids[0]);
    if (auto* obj = std::get_if<std::shared_ptr<Object>>(&object.storage)) {
      (**obj)[evaluate(target.kids[1]).to_string()] = value;
      return value;
    }
    const double index = number_of(target.kids[1]);
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

  Value member(const Node& node) {
    Value object = evaluate(node.kids[0]);
    if (const auto* obj = std::get_if<std::shared_ptr<Object>>(&object.storage)) {
      auto it = (*obj)->find(node.text);
      return it == (*obj)->end() ? Value::undefined() : it->second;
    }
    if (node.method == Method::kLength) {
      if (const auto* str = std::get_if<std::string>(&object.storage)) {
        return number_value(static_cast<double>(str->size()));
      }
      if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&object.storage)) {
        return number_value(static_cast<double>((*arr)->size()));
      }
    }
    if (const auto* host = std::get_if<HostObject>(&object.storage)) {
      if (*host == HostObject::kMath && node.method == Method::kPi) {
        return number_value(3.141592653589793);
      }
      // Other host members only make sense as call targets.
      return Value::undefined();
    }
    return Value::undefined();
  }

  Value call(const Node& node) {
    const Node& callee = node.kids[0];
    std::vector<Value> args;
    args.reserve(node.kids.size() - 1);
    for (std::size_t i = 1; i < node.kids.size(); ++i) {
      args.push_back(evaluate(node.kids[i]));
    }

    if (callee.op == Op::kMember) {
      // Host-object method calls: document.write, Math.floor, ...
      Value object = evaluate(callee.kids[0]);
      if (const auto* host = std::get_if<HostObject>(&object.storage)) {
        return host_call(*host, node.method, callee.text, args);
      }
    } else if (node.method != Method::kNone) {
      // Global builtins win over script functions of the same name.
      return builtin(node.method, args);
    }
    Value target = evaluate(callee);
    if (const auto* fn = std::get_if<const Function*>(&target.storage)) {
      return invoke(**fn, args);
    }
    fail("call of non-function value");
  }

  Value invoke(const Function& fn, const std::vector<Value>& args) {
    if (depth_ > 64) fail("call stack overflow");
    // Frames are reused across calls, so a call allocates nothing once the
    // stack has been this deep before.
    if (depth_ == frames_.size()) frames_.emplace_back();
    Frame& frame = frames_[depth_];
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      set_local(frame, fn.params[i], i < args.size() ? args[i] : Value::undefined());
    }
    ++depth_;
    const Completion done = execute(fn.body);
    --depth_;
    frames_[depth_].clear();
    switch (done) {
      case Completion::kReturn:
        return std::move(return_value_);
      case Completion::kBreak:
        fail("break outside loop");
      case Completion::kContinue:
        fail("continue outside loop");
      case Completion::kNormal:
        break;
    }
    return Value::undefined();
  }

  Value host_call(HostObject host, Method method, const std::string& name,
                  const std::vector<Value>& args) {
    auto arg_number = [&](std::size_t i) {
      return i < args.size() ? args[i].to_number() : 0.0;
    };
    auto arg_string = [&](std::size_t i) {
      return i < args.size() ? args[i].to_string() : std::string();
    };
    switch (host) {
      case HostObject::kDocument:
        if (method == Method::kWrite || method == Method::kWriteln) {
          host_.document_write(arg_string(0));
          return Value::undefined();
        }
        break;
      case HostObject::kMath:
        switch (method) {
          case Method::kFloor:
            return number_value(std::floor(arg_number(0)));
          case Method::kCeil:
            return number_value(std::ceil(arg_number(0)));
          case Method::kAbs:
            return number_value(std::abs(arg_number(0)));
          case Method::kSqrt:
            return number_value(std::sqrt(arg_number(0)));
          case Method::kMax:
            return number_value(std::max(arg_number(0), arg_number(1)));
          case Method::kMin:
            return number_value(std::min(arg_number(0), arg_number(1)));
          case Method::kRandom:
            return number_value(host_.random());
          default:
            break;
        }
        break;
      case HostObject::kWindow:
        // window.loadImage(...) etc. route to the same global builtins.
        if (method >= Method::kLoadImage && method <= Method::kPush) {
          return builtin(method, args);
        }
        break;
    }
    fail("unknown host method '" + name + "'");
  }

  Value request(const std::vector<Value>& args, net::ResourceKind kind) {
    host_.request_resource(args.empty() ? std::string() : args[0].to_string(),
                           kind);
    return Value::undefined();
  }

  /// A global builtin; `method` is one of kLoadImage ... kPush.
  Value builtin(Method method, const std::vector<Value>& args) {
    auto arg_string = [&](std::size_t i) {
      return i < args.size() ? args[i].to_string() : std::string();
    };
    switch (method) {
      case Method::kLoadImage:
        return request(args, net::ResourceKind::kImage);
      case Method::kLoadScript:
        return request(args, net::ResourceKind::kJs);
      case Method::kLoadCss:
        return request(args, net::ResourceKind::kCss);
      case Method::kFetchData:
        return request(args, net::ResourceKind::kOther);
      case Method::kIndexOf: {
        const std::string haystack = arg_string(0);
        const std::string needle = arg_string(1);
        const auto pos = haystack.find(needle);
        return number_value(pos == std::string::npos ? -1.0
                                                     : static_cast<double>(pos));
      }
      case Method::kSubstring: {
        const std::string text = arg_string(0);
        const auto size = static_cast<double>(text.size());
        // Both ends clamp into [0, size]; a NaN start reads as 0, a NaN end
        // as size.
        const auto from = static_cast<std::size_t>(std::min(
            size, std::max(0.0, args.size() > 1 ? args[1].to_number() : 0.0)));
        const auto until = static_cast<std::size_t>(std::max(
            0.0, std::min(size, args.size() > 2 ? args[2].to_number() : size)));
        return string_value(from >= until ? std::string()
                                          : text.substr(from, until - from));
      }
      case Method::kCharAt: {
        const std::string text = arg_string(0);
        const auto at =
            element_index(args.size() > 1 ? args[1].to_number() : 0.0, text.size());
        return string_value(at ? std::string(1, text[*at]) : std::string());
      }
      case Method::kSplit: {
        const std::string text = arg_string(0);
        const std::string separator = arg_string(1);
        auto array = std::make_shared<Array>();
        if (separator.empty()) {
          for (char c : text) array->push_back(string_value(std::string(1, c)));
        } else {
          std::size_t start = 0;
          for (;;) {
            const std::size_t pos = text.find(separator, start);
            array->push_back(string_value(
                text.substr(start, pos == std::string::npos ? std::string::npos
                                                            : pos - start)));
            if (pos == std::string::npos) break;
            start = pos + separator.size();
          }
        }
        return Value::make(array);
      }
      case Method::kStr:
        return string_value(arg_string(0));
      case Method::kLen:
        if (!args.empty()) {
          if (const auto* arr =
                  std::get_if<std::shared_ptr<Array>>(&args[0].storage)) {
            return number_value(static_cast<double>((*arr)->size()));
          }
        }
        return number_value(static_cast<double>(arg_string(0).size()));
      case Method::kPush:
        if (args.size() >= 2) {
          if (const auto* arr =
                  std::get_if<std::shared_ptr<Array>>(&args[0].storage)) {
            (*arr)->push_back(args[1]);
            return number_value(static_cast<double>((*arr)->size()));
          }
        }
        fail("push() expects (array, value)");
      default:
        fail("unreachable builtin");
    }
  }

  std::vector<Value>& globals_;
  JsHost& host_;
  std::uint64_t budget_;
  std::uint64_t ops_ = 0;
  std::vector<Frame> frames_;  ///< frames_[0, depth_) are live
  std::size_t depth_ = 0;
  Value return_value_;  ///< the value a kReturn completion carries
};

}  // namespace


// --- script-outcome memo ------------------------------------------------------
//
// One per process, shared by every Interpreter on every thread.  An outcome
// is keyed on its whole chain: the id of the previous script's stored
// outcome (ids only ever grow, so an evicted entry's id is never reused and
// cannot alias another chain), this script's full source and the op budget,
// all compared for equality on lookup.  A 64-bit hash of the chain picks the
// bucket and the sighting slot, nothing more.

struct ScriptOutcome {
  /// One host call the script made, in program order.
  struct HostCall {
    std::optional<net::ResourceKind> request;  ///< nullopt: document_write
    std::string text;                          ///< the markup or URL
  };

  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t budget = 0;
  std::string source;
  RunResult result;
  std::vector<HostCall> calls;
  std::uint64_t chain_hash = 0;
  std::size_t bytes = 0;  ///< footprint charged against the cap
};

namespace {

using HostCall = ScriptOutcome::HostCall;

/// parent_id of a chain that can no longer be looked up or stored.
constexpr std::uint64_t kUnstored = ~std::uint64_t{0};
/// The memo's byte cap; least recently used outcomes go first past it.
constexpr std::size_t kMemoCapBytes = std::size_t{1} << 20;
/// Direct-mapped slots remembering chain hashes seen once (2^12 slots,
/// 32 KiB).
constexpr int kSketchBits = 12;
/// Allocator and container bookkeeping charged per entry and per string.
constexpr std::size_t kEntryOverhead = 128;
constexpr std::size_t kStringOverhead = 16;

/// Folds one word into a chain hash.
std::uint64_t chain_fold(std::uint64_t hash, std::uint64_t word) {
  hash = (hash ^ word) * 0x9E3779B97F4A7C15ULL;
  return hash ^ (hash >> 32);
}

/// Folds a source's length, then its bytes eight at a time, into a chain
/// hash.
std::uint64_t extend_chain(std::uint64_t hash, std::string_view bytes) {
  hash = chain_fold(hash, bytes.size());
  std::size_t at = 0;
  for (; at + 8 <= bytes.size(); at += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + at, 8);
    hash = chain_fold(hash, word);
  }
  if (at < bytes.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + at, bytes.size() - at);
    hash = chain_fold(hash, word);
  }
  return hash;
}

std::size_t footprint(const ScriptOutcome& outcome) {
  std::size_t bytes = sizeof(ScriptOutcome) + kEntryOverhead +
                      outcome.source.capacity() + kStringOverhead +
                      outcome.result.error.capacity() +
                      outcome.calls.capacity() * sizeof(HostCall);
  for (const HostCall& call : outcome.calls) {
    bytes += call.text.capacity() + kStringOverhead;
  }
  return bytes;
}

class ScriptMemo {
 public:
  using Entry = std::shared_ptr<const ScriptOutcome>;

  struct Probe {
    Entry hit;           ///< the stored outcome, on a hit
    bool admit = false;  ///< on a miss: store the outcome if it is pure
  };

  /// Looks the chain up.  A miss records the sighting and admits the
  /// outcome if this chain was sighted before.
  Probe probe(std::uint64_t chain_hash, std::uint64_t parent_id,
              std::string_view source, std::uint64_t budget) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (parent_id != kUnstored) {
      if (auto found = find(chain_hash, parent_id, source, budget)) {
        lru_.splice(lru_.begin(), lru_, *found);
        ++stats_.hits;
        return {**found, false};
      }
    }
    ++stats_.misses;
    std::uint64_t& slot = sketch_[sketch_slot(chain_hash)];
    const bool sighted = slot == chain_hash;
    slot = chain_hash;
    return {nullptr, sighted && parent_id != kUnstored};
  }

  /// Stores an outcome and returns its id; kUnstored if it alone exceeds
  /// the cap.  An equal outcome stored meanwhile by another thread is
  /// reused instead.
  std::uint64_t insert(ScriptOutcome outcome) {
    outcome.bytes = footprint(outcome);
    if (outcome.bytes > kMemoCapBytes) return kUnstored;
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto found = find(outcome.chain_hash, outcome.parent_id,
                          outcome.source, outcome.budget)) {
      return (**found)->id;
    }
    outcome.id = next_id_++;
    lru_.push_front(std::make_shared<const ScriptOutcome>(std::move(outcome)));
    const ScriptOutcome& stored = *lru_.front();
    index_.emplace(stored.chain_hash, lru_.begin());
    ++stats_.admitted;
    stats_.bytes += stored.bytes;
    while (stats_.bytes > kMemoCapBytes) evict_oldest();
    return stored.id;
  }

  ScriptMemoStats stats() {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
    sketch_.fill(0);
    stats_ = {};  // next_id_ keeps growing: ids are never reused
  }

 private:
  using Lru = std::list<Entry>;

  static std::size_t sketch_slot(std::uint64_t chain_hash) {
    return (chain_hash * 0xBF58476D1CE4E5B9ULL) >> (64 - kSketchBits);
  }

  std::optional<Lru::iterator> find(std::uint64_t chain_hash,
                                    std::uint64_t parent_id,
                                    std::string_view source,
                                    std::uint64_t budget) {
    auto [it, end] = index_.equal_range(chain_hash);
    for (; it != end; ++it) {
      const ScriptOutcome& stored = **it->second;
      if (stored.parent_id == parent_id && stored.budget == budget &&
          stored.source == source) {
        return it->second;
      }
    }
    return std::nullopt;
  }

  void evict_oldest() {
    const Lru::iterator oldest = std::prev(lru_.end());
    auto [it, end] = index_.equal_range((*oldest)->chain_hash);
    while (it->second != oldest) ++it;
    index_.erase(it);
    stats_.bytes -= (*oldest)->bytes;
    ++stats_.evicted;
    lru_.erase(oldest);  // a replaying Interpreter may still hold it
  }

  std::mutex mutex_;
  Lru lru_;  ///< most recently used first
  std::unordered_multimap<std::uint64_t, Lru::iterator> index_;
  std::array<std::uint64_t, std::size_t{1} << kSketchBits> sketch_{};
  std::uint64_t next_id_ = 1;  ///< 0 is the empty chain
  ScriptMemoStats stats_;
};

ScriptMemo& script_memo() {
  static ScriptMemo memo;
  return memo;
}

/// Forwards host calls to the real host, logging them when the outcome is
/// to be stored and counting Math.random() draws.
class RecordingHost final : public JsHost {
 public:
  RecordingHost(JsHost& host, bool record) : host_(host), record_(record) {}

  void document_write(const std::string& html) override {
    if (record_) calls_.push_back({std::nullopt, html});
    host_.document_write(html);
  }
  void request_resource(const std::string& url,
                        net::ResourceKind kind) override {
    if (record_) calls_.push_back({kind, url});
    host_.request_resource(url, kind);
  }
  double random() override {
    ++draws_;
    return host_.random();
  }

  std::vector<HostCall> take_calls() { return std::move(calls_); }
  std::uint64_t draws() const { return draws_; }

 private:
  JsHost& host_;
  bool record_;
  std::vector<HostCall> calls_;
  std::uint64_t draws_ = 0;
};

/// Drops every host call: catching the globals up must not repeat the
/// replayed scripts' effects.  Stored outcomes drew no random values, so
/// random() is never reached.
class DroppingHost final : public JsHost {
 public:
  void document_write(const std::string&) override {}
  void request_resource(const std::string&, net::ResourceKind) override {}
  double random() override { return 0; }
};

}  // namespace

ScriptMemoStats script_memo_stats() { return script_memo().stats(); }

void reset_script_memo() { script_memo().reset(); }

// --- Interpreter ----------------------------------------------------------------

Interpreter::Interpreter(JsHost& host, std::uint64_t op_budget)
    : host_(host), op_budget_(op_budget), chain_hash_(chain_fold(0, op_budget)) {}

RunResult Interpreter::run(std::string_view source) {
  ScriptMemo& memo = script_memo();
  chain_hash_ = extend_chain(chain_hash_, source);
  const ScriptMemo::Probe probe =
      memo.probe(chain_hash_, parent_id_, source, op_budget_);
  if (probe.hit) {
    for (const HostCall& call : probe.hit->calls) {
      if (call.request) {
        host_.request_resource(call.text, *call.request);
      } else {
        host_.document_write(call.text);
      }
    }
    parent_id_ = probe.hit->id;
    total_ops_ += probe.hit->result.ops;
    stale_.push_back(probe.hit);
    return probe.hit->result;
  }

  catch_up();
  RecordingHost recorder(host_, probe.admit);
  RunResult result = evaluate(source, recorder);
  total_ops_ += result.ops;
  if (probe.admit && recorder.draws() == 0) {
    ScriptOutcome outcome;
    outcome.parent_id = parent_id_;
    outcome.budget = op_budget_;
    outcome.source = source;
    outcome.result = result;
    outcome.calls = recorder.take_calls();
    outcome.chain_hash = chain_hash_;
    parent_id_ = memo.insert(std::move(outcome));
  } else {
    parent_id_ = kUnstored;
  }
  return result;
}

RunResult Interpreter::evaluate(std::string_view source, JsHost& host) {
  RunResult result;
  Evaluator evaluator(globals_, host, op_budget_);
  try {
    auto program = std::make_shared<const ResolvedProgram>(
        resolve(parse(source), name_ids_));
    globals_.resize(name_ids_.size());
    if (program->declares_functions) retained_programs_.push_back(program);
    evaluator.run(*program);
    result.completed = true;
  } catch (const JsError& error) {
    result.error = error.what();
  } catch (const std::exception& error) {
    result.error = error.what();
  }
  result.ops = evaluator.ops();
  return result;
}

void Interpreter::catch_up() {
  DroppingHost dropping;
  for (const auto& outcome : stale_) evaluate(outcome->source, dropping);
  stale_.clear();
}

Value Interpreter::global(const std::string& name) {
  catch_up();
  auto it = name_ids_.find(name);
  return it == name_ids_.end() || it->second >= globals_.size()
             ? Value::undefined()
             : globals_[it->second];
}

}  // namespace eab::web::js
