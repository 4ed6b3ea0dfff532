#include "web/js_resolve.hpp"

#include <array>
#include <string_view>
#include <utility>

namespace eab::web::js {
namespace {

struct Named {
  std::string_view name;
  Method method;
};

/// Builtins a bare identifier call reaches.
constexpr std::array<Named, 11> kBuiltins = {{
    {"loadImage", Method::kLoadImage},
    {"loadScript", Method::kLoadScript},
    {"loadCss", Method::kLoadCss},
    {"fetchData", Method::kFetchData},
    {"indexOf", Method::kIndexOf},
    {"substring", Method::kSubstring},
    {"charAt", Method::kCharAt},
    {"split", Method::kSplit},
    {"str", Method::kStr},
    {"len", Method::kLen},
    {"push", Method::kPush},
}};

/// Methods a host object may answer: the builtins (window) and those of
/// document and Math.  Which object answers which is the evaluator's call.
constexpr std::array<Named, 9> kHostMethods = {{
    {"write", Method::kWrite},
    {"writeln", Method::kWriteln},
    {"floor", Method::kFloor},
    {"ceil", Method::kCeil},
    {"abs", Method::kAbs},
    {"sqrt", Method::kSqrt},
    {"max", Method::kMax},
    {"min", Method::kMin},
    {"random", Method::kRandom},
}};

template <std::size_t N>
Method find_method(const std::array<Named, N>& table, std::string_view name) {
  for (const Named& entry : table) {
    if (entry.name == name) return entry.method;
  }
  return Method::kNone;
}

Method call_method(const std::string& name) {
  const Method builtin = find_method(kBuiltins, name);
  return builtin != Method::kNone ? builtin : find_method(kHostMethods, name);
}

constexpr std::array<std::pair<std::string_view, Op>, 13> kBinaryOps = {{
    {"&&", Op::kAnd},
    {"||", Op::kOr},
    {"+", Op::kAdd},
    {"-", Op::kSub},
    {"*", Op::kMul},
    {"/", Op::kDiv},
    {"%", Op::kMod},
    {"==", Op::kEq},
    {"!=", Op::kNe},
    {"<", Op::kLt},
    {">", Op::kGt},
    {"<=", Op::kLe},
    {">=", Op::kGe},
}};

class Resolver {
 public:
  explicit Resolver(std::unordered_map<std::string, std::uint32_t>& names)
      : names_(names) {}

  bool declares_functions() const { return declares_functions_; }

  Node statement(const Stmt& stmt) {
    Node node;
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        node.op = Op::kExpression;
        break;
      case Stmt::Kind::kVarDecl:
        node.op = Op::kVar;
        node.name = intern(stmt.text);
        break;
      case Stmt::Kind::kBlock:
        node.op = Op::kBlock;
        break;
      case Stmt::Kind::kIf:
        node.op = Op::kIf;
        break;
      case Stmt::Kind::kWhile:
        node.op = Op::kWhile;
        break;
      case Stmt::Kind::kFor:
        node.op = Op::kFor;
        node.kids.push_back(statement(*stmt.stmts[0]));
        node.kids.push_back(expression(*stmt.exprs[0]));
        node.kids.push_back(statement(*stmt.stmts[1]));
        if (stmt.exprs.size() > 1) node.kids.push_back(expression(*stmt.exprs[1]));
        return node;
      case Stmt::Kind::kFunction: {
        node.op = Op::kFunction;
        node.name = intern(stmt.text);
        auto function = std::make_unique<Function>();
        function->name = stmt.text;
        for (const std::string& param : stmt.params) {
          function->params.push_back(intern(param));
        }
        function->body = statement(*stmt.stmts[0]);
        node.function = std::move(function);
        declares_functions_ = true;
        return node;
      }
      case Stmt::Kind::kReturn:
        node.op = Op::kReturn;
        break;
      case Stmt::Kind::kBreak:
        node.op = Op::kBreak;
        break;
      case Stmt::Kind::kContinue:
        node.op = Op::kContinue;
        break;
    }
    // The other kinds keep the AST's order: expressions, then statements.
    for (const ExprPtr& expr : stmt.exprs) node.kids.push_back(expression(*expr));
    for (const StmtPtr& child : stmt.stmts) node.kids.push_back(statement(*child));
    return node;
  }

  Node expression(const Expr& expr) {
    Node node;
    switch (expr.kind) {
      case Expr::Kind::kNumber:
        node.constant = Value::make(expr.number);
        break;
      case Expr::Kind::kString:
        node.constant = Value::make(expr.text);
        break;
      case Expr::Kind::kBool:
        node.constant = Value::make(expr.boolean);
        break;
      case Expr::Kind::kNull:
        node.constant = expr.text == "undefined" ? Value::undefined() : Value::null();
        break;
      case Expr::Kind::kIdentifier:
        // Host names win over variables of the same name.
        if (expr.text == "document") {
          node.constant = Value::make(HostObject::kDocument);
        } else if (expr.text == "Math") {
          node.constant = Value::make(HostObject::kMath);
        } else if (expr.text == "window") {
          node.constant = Value::make(HostObject::kWindow);
        } else {
          node.op = Op::kName;
          node.name = intern(expr.text);
        }
        break;
      case Expr::Kind::kArray:
        node.op = Op::kArray;
        break;
      case Expr::Kind::kObject: {
        // Keys travel newline-joined; each value takes the next segment.
        node.op = Op::kObject;
        std::size_t begin = 0;
        for (std::size_t i = 0; i < expr.operands.size(); ++i) {
          const std::size_t end = expr.text.find('\n', begin);
          node.keys.push_back(expr.text.substr(
              begin, end == std::string::npos ? std::string::npos : end - begin));
          begin = end == std::string::npos ? expr.text.size() : end + 1;
        }
        break;
      }
      case Expr::Kind::kUnary:
        node.op = expr.text == "!"        ? Op::kNot
                  : expr.text == "typeof" ? Op::kTypeof
                                          : Op::kNeg;
        break;
      case Expr::Kind::kBinary:
        node.op = Op::kUnknownOperator;
        for (const auto& [text, op] : kBinaryOps) {
          if (expr.text == text) node.op = op;
        }
        if (node.op == Op::kUnknownOperator) node.text = expr.text;
        break;
      case Expr::Kind::kAssign: {
        const Expr& target = *expr.operands[0];
        if (target.kind == Expr::Kind::kIdentifier) {
          node.op = Op::kAssignName;
          node.name = intern(target.text);
        } else if (target.kind == Expr::Kind::kMember) {
          node.op = Op::kAssignMember;
        } else {
          node.op = Op::kAssignIndex;
        }
        if (expr.text != "=") {
          switch (expr.text[0]) {
            case '+': node.compound = Compound::kAdd; break;
            case '-': node.compound = Compound::kSub; break;
            case '*': node.compound = Compound::kMul; break;
            default: node.compound = Compound::kDiv; break;
          }
        }
        break;
      }
      case Expr::Kind::kCall: {
        node.op = Op::kCall;
        const Expr& callee = *expr.operands[0];
        if (callee.kind == Expr::Kind::kIdentifier) {
          node.method = find_method(kBuiltins, callee.text);
        } else if (callee.kind == Expr::Kind::kMember) {
          node.method = call_method(callee.text);
        }
        break;
      }
      case Expr::Kind::kMember:
        node.op = Op::kMember;
        node.text = expr.text;
        node.method = expr.text == "length" ? Method::kLength
                      : expr.text == "PI"   ? Method::kPi
                                            : Method::kNone;
        break;
      case Expr::Kind::kIndex:
        node.op = Op::kIndex;
        break;
    }
    node.number = node.constant.to_number();
    for (const ExprPtr& operand : expr.operands) {
      node.kids.push_back(expression(*operand));
    }
    return node;
  }

 private:
  std::uint32_t intern(const std::string& name) {
    const auto next = static_cast<std::uint32_t>(names_.size());
    return names_.try_emplace(name, next).first->second;
  }

  std::unordered_map<std::string, std::uint32_t>& names_;
  bool declares_functions_ = false;
};

}  // namespace

const std::string& function_name(const Function& function) {
  return function.name;
}

ResolvedProgram resolve(const Program& program,
                        std::unordered_map<std::string, std::uint32_t>& names) {
  Resolver resolver(names);
  ResolvedProgram resolved;
  resolved.statements.reserve(program.statements.size());
  for (const StmtPtr& stmt : program.statements) {
    resolved.statements.push_back(resolver.statement(*stmt));
  }
  resolved.declares_functions = resolver.declares_functions();
  return resolved;
}

}  // namespace eab::web::js
