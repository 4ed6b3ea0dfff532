#include "web/js.hpp"

namespace eab::web::js {
namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parse_program() {
    Program program;
    while (!at_end()) {
      program.statements.push_back(statement());
    }
    return program;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }
  bool at_end() const { return peek().type == TokenType::kEnd; }

  [[noreturn]] void error(const std::string& what) const {
    throw JsError("parse error: " + what + " at offset " +
                  std::to_string(peek().offset));
  }

  bool check_punct(std::string_view text) const {
    return peek().type == TokenType::kPunct && peek().text == text;
  }
  bool check_keyword(std::string_view text) const {
    return peek().type == TokenType::kKeyword && peek().text == text;
  }
  bool match_punct(std::string_view text) {
    if (!check_punct(text)) return false;
    advance();
    return true;
  }
  bool match_keyword(std::string_view text) {
    if (!check_keyword(text)) return false;
    advance();
    return true;
  }
  void expect_punct(std::string_view text) {
    if (!match_punct(text)) error("expected '" + std::string(text) + "'");
  }
  std::string expect_identifier() {
    if (peek().type != TokenType::kIdentifier) error("expected identifier");
    return advance().text;
  }

  // --- statements ---

  StmtPtr statement() {
    if (check_keyword("var")) return var_decl(/*consume_semicolon=*/true);
    if (match_keyword("function")) return function_decl();
    if (match_keyword("if")) return if_stmt();
    if (match_keyword("while")) return while_stmt();
    if (match_keyword("for")) return for_stmt();
    if (match_keyword("return")) return return_stmt();
    if (match_keyword("break")) {
      expect_punct(";");
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = Stmt::Kind::kBreak;
      return stmt;
    }
    if (match_keyword("continue")) {
      expect_punct(";");
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = Stmt::Kind::kContinue;
      return stmt;
    }
    if (check_punct("{")) return block();
    return expr_stmt();
  }

  StmtPtr var_decl(bool consume_semicolon) {
    advance();  // 'var'
    // A declaration list becomes a block of single declarations.
    std::vector<StmtPtr> decls;
    do {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = Stmt::Kind::kVarDecl;
      stmt->text = expect_identifier();
      if (match_punct("=")) stmt->exprs.push_back(expression());
      decls.push_back(std::move(stmt));
    } while (match_punct(","));
    if (consume_semicolon) expect_punct(";");
    if (decls.size() == 1) return std::move(decls.front());
    auto blockStmt = std::make_unique<Stmt>();
    blockStmt->kind = Stmt::Kind::kBlock;
    blockStmt->stmts = std::move(decls);
    return blockStmt;
  }

  StmtPtr function_decl() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kFunction;
    stmt->text = expect_identifier();
    expect_punct("(");
    if (!check_punct(")")) {
      do {
        stmt->params.push_back(expect_identifier());
      } while (match_punct(","));
    }
    expect_punct(")");
    stmt->stmts.push_back(block());
    return stmt;
  }

  StmtPtr if_stmt() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kIf;
    expect_punct("(");
    stmt->exprs.push_back(expression());
    expect_punct(")");
    stmt->stmts.push_back(statement());
    if (match_keyword("else")) stmt->stmts.push_back(statement());
    return stmt;
  }

  StmtPtr while_stmt() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kWhile;
    expect_punct("(");
    stmt->exprs.push_back(expression());
    expect_punct(")");
    stmt->stmts.push_back(statement());
    return stmt;
  }

  StmtPtr for_stmt() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kFor;
    expect_punct("(");
    // init: var decl, expression, or empty — stmts[0]
    if (check_keyword("var")) {
      stmt->stmts.push_back(var_decl(/*consume_semicolon=*/true));
    } else if (match_punct(";")) {
      stmt->stmts.push_back(empty_block());
    } else {
      auto init = std::make_unique<Stmt>();
      init->kind = Stmt::Kind::kExpr;
      init->exprs.push_back(expression());
      expect_punct(";");
      stmt->stmts.push_back(std::move(init));
    }
    // condition — exprs[0] (defaults to true)
    if (check_punct(";")) {
      auto truth = std::make_unique<Expr>();
      truth->kind = Expr::Kind::kBool;
      truth->boolean = true;
      stmt->exprs.push_back(std::move(truth));
    } else {
      stmt->exprs.push_back(expression());
    }
    expect_punct(";");
    // step — exprs[1] (optional)
    if (!check_punct(")")) stmt->exprs.push_back(expression());
    expect_punct(")");
    // body — stmts[1]
    stmt->stmts.push_back(statement());
    return stmt;
  }

  StmtPtr return_stmt() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kReturn;
    if (!check_punct(";")) stmt->exprs.push_back(expression());
    expect_punct(";");
    return stmt;
  }

  StmtPtr block() {
    expect_punct("{");
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kBlock;
    while (!check_punct("}")) {
      if (at_end()) error("unterminated block");
      stmt->stmts.push_back(statement());
    }
    expect_punct("}");
    return stmt;
  }

  StmtPtr empty_block() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kBlock;
    return stmt;
  }

  StmtPtr expr_stmt() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kExpr;
    stmt->exprs.push_back(expression());
    expect_punct(";");
    return stmt;
  }

  // --- expressions (precedence climbing) ---

  ExprPtr expression() { return assignment(); }

  ExprPtr assignment() {
    ExprPtr lhs = logical_or();
    for (std::string_view op : {"=", "+=", "-=", "*=", "/="}) {
      if (check_punct(op)) {
        expect_assignable(*lhs);
        advance();
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kAssign;
        node->text = std::string(op);
        node->operands.push_back(std::move(lhs));
        node->operands.push_back(assignment());
        return node;
      }
    }
    return lhs;
  }

  ExprPtr binary_chain(ExprPtr (Parser::*next)(),
                       std::initializer_list<std::string_view> ops) {
    ExprPtr lhs = (this->*next)();
    for (;;) {
      bool matched = false;
      for (auto op : ops) {
        if (check_punct(op)) {
          advance();
          auto node = std::make_unique<Expr>();
          node->kind = Expr::Kind::kBinary;
          node->text = std::string(op);
          node->operands.push_back(std::move(lhs));
          node->operands.push_back((this->*next)());
          lhs = std::move(node);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  ExprPtr logical_or() { return binary_chain(&Parser::logical_and, {"||"}); }
  ExprPtr logical_and() { return binary_chain(&Parser::equality, {"&&"}); }
  ExprPtr equality() { return binary_chain(&Parser::relational, {"==", "!="}); }
  ExprPtr relational() {
    return binary_chain(&Parser::additive, {"<=", ">=", "<", ">"});
  }
  ExprPtr additive() { return binary_chain(&Parser::multiplicative, {"+", "-"}); }
  ExprPtr multiplicative() {
    return binary_chain(&Parser::unary, {"*", "/", "%"});
  }

  ExprPtr unary() {
    if (match_keyword("typeof")) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kUnary;
      node->text = "typeof";
      node->operands.push_back(unary());
      return node;
    }
    for (std::string_view op : {"!", "-"}) {
      if (check_punct(op)) {
        advance();
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kUnary;
        node->text = std::string(op);
        node->operands.push_back(unary());
        return node;
      }
    }
    // Prefix ++/-- desugar to (x = x + 1).
    for (std::string_view op : {"++", "--"}) {
      if (check_punct(op)) {
        advance();
        ExprPtr target = postfix();
        return make_increment(std::move(target), op == "++" ? "+=" : "-=");
      }
    }
    return postfix();
  }

  /// Only a name, an index or a member can be assigned; the evaluator
  /// relies on it.
  void expect_assignable(const Expr& target) const {
    if (target.kind != Expr::Kind::kIdentifier &&
        target.kind != Expr::Kind::kIndex &&
        target.kind != Expr::Kind::kMember) {
      error("invalid assignment target");
    }
  }

  ExprPtr make_increment(ExprPtr target, std::string_view op) {
    expect_assignable(*target);
    auto one = std::make_unique<Expr>();
    one->kind = Expr::Kind::kNumber;
    one->number = 1;
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kAssign;
    node->text = std::string(op);
    node->operands.push_back(std::move(target));
    node->operands.push_back(std::move(one));
    return node;
  }

  ExprPtr postfix() {
    ExprPtr node = primary();
    for (;;) {
      if (match_punct(".")) {
        auto member = std::make_unique<Expr>();
        member->kind = Expr::Kind::kMember;
        member->text = expect_identifier();
        member->operands.push_back(std::move(node));
        node = std::move(member);
        continue;
      }
      if (check_punct("(")) {
        advance();
        auto call = std::make_unique<Expr>();
        call->kind = Expr::Kind::kCall;
        call->operands.push_back(std::move(node));
        if (!check_punct(")")) {
          do {
            call->operands.push_back(expression());
          } while (match_punct(","));
        }
        expect_punct(")");
        node = std::move(call);
        continue;
      }
      if (match_punct("[")) {
        auto index = std::make_unique<Expr>();
        index->kind = Expr::Kind::kIndex;
        index->operands.push_back(std::move(node));
        index->operands.push_back(expression());
        expect_punct("]");
        node = std::move(index);
        continue;
      }
      // Postfix ++/-- (statement use only; value semantics simplified).
      if (check_punct("++") || check_punct("--")) {
        const std::string op = advance().text;
        node = make_increment(std::move(node), op == "++" ? "+=" : "-=");
        continue;
      }
      return node;
    }
  }

  ExprPtr primary() {
    const Token& token = peek();
    switch (token.type) {
      case TokenType::kNumber: {
        advance();
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kNumber;
        node->number = token.number;
        return node;
      }
      case TokenType::kString: {
        advance();
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kString;
        node->text = token.text;
        return node;
      }
      case TokenType::kIdentifier: {
        advance();
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kIdentifier;
        node->text = token.text;
        return node;
      }
      case TokenType::kKeyword: {
        if (token.text == "true" || token.text == "false") {
          advance();
          auto node = std::make_unique<Expr>();
          node->kind = Expr::Kind::kBool;
          node->boolean = token.text == "true";
          return node;
        }
        if (token.text == "null" || token.text == "undefined") {
          advance();
          auto node = std::make_unique<Expr>();
          node->kind = Expr::Kind::kNull;
          node->text = token.text;  // evaluator separates undefined from null
          return node;
        }
        error("unexpected keyword '" + token.text + "'");
      }
      case TokenType::kPunct: {
        if (match_punct("(")) {
          ExprPtr inner = expression();
          expect_punct(")");
          return inner;
        }
        if (match_punct("[")) {
          auto node = std::make_unique<Expr>();
          node->kind = Expr::Kind::kArray;
          if (!check_punct("]")) {
            do {
              node->operands.push_back(expression());
            } while (match_punct(","));
          }
          expect_punct("]");
          return node;
        }
        if (match_punct("{")) {
          // Object literal: keys are identifiers, strings or keywords-as-
          // names; keys travel newline-joined in `text`, values in order.
          auto node = std::make_unique<Expr>();
          node->kind = Expr::Kind::kObject;
          if (!check_punct("}")) {
            do {
              std::string key;
              if (peek().type == TokenType::kIdentifier ||
                  peek().type == TokenType::kKeyword ||
                  peek().type == TokenType::kString) {
                key = advance().text;
              } else {
                error("expected property name");
              }
              expect_punct(":");
              if (!node->text.empty()) node->text.push_back('\n');
              node->text += key;
              node->operands.push_back(expression());
            } while (match_punct(","));
          }
          expect_punct("}");
          return node;
        }
        error("unexpected token '" + token.text + "'");
      }
      case TokenType::kEnd:
        error("unexpected end of script");
    }
    error("unreachable");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Program parse(std::string_view source) {
  Parser parser(tokenize(source));
  return parser.parse_program();
}

}  // namespace eab::web::js
