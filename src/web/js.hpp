// MiniScript — a small JavaScript-like engine.
//
// The paper's hardest separation problem (Section 4.1) is JavaScript: scripts
// run in the page's global context, must execute in document order, and there
// is no way to know whether one will trigger a fetch without running it.  To
// reproduce that, corpus pages embed real scripts in a JS subset and both
// pipelines *execute* them through this engine:
//
//   source -> lexer -> recursive-descent parser -> AST
//          -> resolve (js_resolve.hpp) -> evaluator over the resolved program
//
// The resolve pass runs once per parsed script.  It turns operators into
// opcodes, document/Math/window into constants, builtin and host-method
// names into ids and identifiers into per-Interpreter name ids, so the
// evaluator compares no strings and its globals are a dense vector.  Scoping
// stays dynamic: a call pushes a frame its callees also see, and a name is
// looked up through every live frame before the globals.  return, break and
// continue travel as completion codes, not exceptions.
//
// Scripts reach the outside world through a JsHost: document.write() feeds
// markup back into the HTML parser (possibly discovering more resources) and
// the load*()/fetch() builtins request subresources.  The interpreter counts
// every evaluation step; the browser cost model converts that count into CPU
// time, which is also Table 1's "JavaScript Running Time" feature.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "net/resource.hpp"

namespace eab::web::js {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokenType {
  kNumber,
  kString,
  kIdentifier,
  kKeyword,
  kPunct,
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
  double number = 0;
  std::size_t offset = 0;  ///< source offset for diagnostics
};

/// Tokenizes a script. Throws JsError on malformed literals.
std::vector<Token> tokenize(std::string_view source);

/// The script's layout-free text: every run of whitespace and comments
/// outside string literals cut to one space, string literals copied byte
/// for byte.  One pass by tokenize's rules, so the text lexes to the same
/// tokens (offsets aside) and runs identically.  From a byte tokenize
/// rejects as unexpected, the rest is copied as is.  nullopt exactly when
/// tokenize reports an unterminated string literal or block comment.
std::optional<std::string> layout_free_text(std::string_view source);

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

struct Expr {
  enum class Kind {
    kNumber,
    kString,
    kBool,
    kNull,
    kIdentifier,
    kArray,     ///< [a, b, c]
    kObject,    ///< {k: v, ...}; operands are values, keys joined in text
    kUnary,     ///< op operand
    kBinary,    ///< lhs op rhs (also && and ||, short-circuiting)
    kAssign,    ///< target (identifier/index) = value, or +=
    kCall,      ///< callee(args); callee may be a member expression
    kMember,    ///< object.name
    kIndex,     ///< object[expr]
  };

  Kind kind;
  double number = 0;
  bool boolean = false;
  std::string text;  ///< identifier / string value / operator / member name
  std::vector<ExprPtr> operands;
};

struct Stmt {
  enum class Kind {
    kExpr,
    kVarDecl,   ///< text = name, operands[0] = initialiser (optional)
    kBlock,
    kIf,        ///< exprs[0] cond, stmts[0] then, stmts[1] else (optional)
    kWhile,
    kFor,       ///< init (stmt), cond (expr), step (expr), body
    kFunction,  ///< text = name, params, body
    kReturn,
    kBreak,
    kContinue,
  };

  Kind kind;
  std::string text;
  std::vector<std::string> params;
  std::vector<ExprPtr> exprs;
  std::vector<StmtPtr> stmts;
};

/// A parsed program.
struct Program {
  std::vector<StmtPtr> statements;
};

/// Parses a script. Throws JsError with a source offset on syntax errors.
Program parse(std::string_view source);

// ---------------------------------------------------------------------------
// Values and runtime
// ---------------------------------------------------------------------------

class JsError : public std::runtime_error {
 public:
  explicit JsError(const std::string& message) : std::runtime_error(message) {}
};

struct Value;
using Array = std::vector<Value>;
/// Script objects: ordered keys keep printing and iteration deterministic.
using Object = std::map<std::string, Value>;

/// Sentinels for host-provided namespace objects (document, Math, window).
enum class HostObject { kDocument, kMath, kWindow };

/// A script function: its resolved declaration (js_resolve.hpp).
struct Function;
/// The name a script function was declared with.
const std::string& function_name(const Function& function);

struct Value {
  using Storage = std::variant<std::monostate,           // undefined
                               std::nullptr_t,           // null
                               bool, double, std::string,
                               std::shared_ptr<Array>,   // array
                               std::shared_ptr<Object>,  // object literal
                               const Function*,          // script function
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

/// The environment a script can observe and act on.
class JsHost {
 public:
  virtual ~JsHost() = default;
  /// document.write(html): markup appended to the document.
  virtual void document_write(const std::string& html) = 0;
  /// loadImage/loadScript/loadCss/fetch builtins: a subresource request.
  virtual void request_resource(const std::string& url,
                                net::ResourceKind kind) = 0;
  /// Math.random() — hosts supply deterministic randomness.
  virtual double random() = 0;
};

/// Outcome of running one script.
struct RunResult {
  std::uint64_t ops = 0;          ///< evaluation steps executed
  bool completed = false;         ///< false when aborted by error/budget
  std::string error;              ///< diagnostic when !completed
};

/// A stored script outcome (defined with the memo in js_interpreter.cpp).
struct ScriptOutcome;
/// A script after the resolve pass (js_resolve.hpp).
struct ResolvedProgram;

/// Interpreter with a persistent global scope, so consecutive scripts on one
/// page share state exactly as the paper requires.
///
/// A script's outcome is a pure function of the scripts run before it on
/// the page, its own tokens and the op budget, unless it draws
/// Math.random().  run() therefore consults a process-wide script-outcome
/// memo keyed on exactly that chain, each script by its layout-free text: a
/// hit replays the stored RunResult and host-call log instead of
/// evaluating, and the globals catch up lazily, by re-running the replayed
/// scripts with host effects dropped, before the next evaluated script or
/// global() reads them.  Results, host calls and op counts are identical
/// either way; only host time differs.
class Interpreter {
 public:
  explicit Interpreter(JsHost& host, std::uint64_t op_budget = 50'000'000);

  /// Parses and runs a script in the page's global context. Runtime errors
  /// and budget exhaustion are reported in the result, not thrown: a broken
  /// script must not take the whole page load down.
  RunResult run(std::string_view source);

  /// Total ops across all scripts run so far.
  std::uint64_t total_ops() const { return total_ops_; }

  /// Reads a global variable (tests / diagnostics).
  Value global(const std::string& name);

  /// The memo's chain hash after the scripts run so far (tests).
  std::uint64_t chain_hash() const { return chain_hash_; }

 private:
  /// Evaluates `source` against the globals, routing host calls to `host`;
  /// sets `parsed` once the source has parsed and resolved.
  RunResult evaluate(std::string_view source, JsHost& host, bool& parsed);
  /// Applies the replayed scripts' effects on the globals.
  void catch_up();

  JsHost& host_;
  std::uint64_t op_budget_;
  std::uint64_t total_ops_ = 0;
  /// Every identifier the page's resolved scripts mention, interned to the
  /// index of its slot in globals_.
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  /// One slot per interned name; a name never assigned reads undefined.
  std::vector<Value> globals_;
  /// Scripts that declare functions stay alive: function values point into
  /// them.
  std::vector<std::shared_ptr<const ResolvedProgram>> retained_programs_;
  /// Chain hash over the op budget and every script's memo key so far.
  std::uint64_t chain_hash_;
  /// Memo id of the last script's stored outcome, 0 before the first
  /// script.  Once a script's outcome is not stored, nothing later in the
  /// chain can be looked up or stored either.
  std::uint64_t parent_id_ = 0;
  /// Replayed outcomes whose effects on globals_ are still pending.
  std::vector<std::shared_ptr<const ScriptOutcome>> stale_;
};

/// Host-only counters of the script-outcome memo.  They describe host
/// work, not the simulation, and stay out of every deterministic output.
struct ScriptMemoStats {
  std::uint64_t hits = 0;       ///< runs replayed from a stored outcome
  std::uint64_t misses = 0;     ///< runs evaluated
  std::uint64_t admitted = 0;   ///< outcomes stored
  std::uint64_t evicted = 0;    ///< outcomes dropped to stay under the cap
  std::uint64_t bytes = 0;      ///< current footprint of the stored outcomes
  std::uint64_t caught_up = 0;  ///< replayed scripts re-run for the globals
};

/// The process-wide memo's counters since start-up or the last reset.
ScriptMemoStats script_memo_stats();

/// Empties the memo and zeroes the counters, so the next run of every
/// script is evaluated (tests and bench_obs_overhead measure cold runs with
/// this).
void reset_script_memo();

}  // namespace eab::web::js
