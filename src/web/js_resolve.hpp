// MiniScript's resolve pass: the form of a script the evaluator runs.
//
// resolve() walks a parsed Program once and lowers every name the evaluator
// would otherwise compare as a string:
//   * operators become opcodes (Op);
//   * document, Math and window become constants;
//   * builtin functions (loadImage ... push), host methods (write, floor ...)
//     and the members length and PI become Method ids;
//   * identifiers become name ids, interned per Interpreter, which index its
//     dense vector of globals;
//   * literals become Values, built once.
//
// Scoping is dynamic, so a name id is not a (depth, slot) pair: a call pushes
// a frame its callees also see, and a read scans every live frame, innermost
// first, before it takes the global slot.
//
// The pass never fails: an operator the evaluator does not know, a host
// method that does not exist or a call of a non-function still fails only
// when its node runs, after the same ops as before.  The evaluator ticks once
// per node it executes or evaluates, exactly as the AST walker it replaced.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "web/js.hpp"

namespace eab::web::js {

/// What a resolved node does.  Expressions and statements share one enum,
/// so each node dispatches on a single switch.
enum class Op : std::uint8_t {
  // --- expressions ---
  kConstant,         ///< a literal, or document/Math/window: `constant`
  kName,             ///< an identifier read: `name`
  kArray,            ///< [kids...]
  kObject,           ///< {keys[i]: kids[i], ...}
  kNot,              ///< !kids[0]
  kNeg,              ///< -kids[0]
  kTypeof,           ///< typeof kids[0]
  kAnd,              ///< kids[0] && kids[1], short-circuiting
  kOr,               ///< kids[0] || kids[1], short-circuiting
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kGt,
  kLe,
  kGe,
  kUnknownOperator,  ///< kids[0] `text` kids[1]: fails once both ran
  kAssignName,       ///< `name` = kids[1]; kids[0] reads the target
  kAssignMember,     ///< kids[0] (a kMember) = kids[1]
  kAssignIndex,      ///< kids[0] (a kIndex) = kids[1]
  kCall,             ///< kids[0](kids[1], ...); `method` from the callee's name
  kMember,           ///< kids[0].`text`; `method` is kLength or kPi if named so
  kIndex,            ///< kids[0][kids[1]]
  // --- statements ---
  kExpression,       ///< kids[0]
  kVar,              ///< var `name` = kids[0] (optional)
  kBlock,            ///< kids in order
  kIf,               ///< kids[0] cond, kids[1] then, kids[2] else (optional)
  kWhile,            ///< kids[0] cond, kids[1] body
  kFor,              ///< kids[0] init, kids[1] cond, kids[2] body, kids[3] step
  kFunction,         ///< declares `function` as `name`
  kReturn,           ///< kids[0] value (optional)
  kBreak,
  kContinue,
};

/// A builtin function, host method or host member, resolved from its name.
enum class Method : std::uint8_t {
  kNone,
  // Global builtins, also callable as window.<name>.
  kLoadImage,
  kLoadScript,
  kLoadCss,
  kFetchData,
  kIndexOf,
  kSubstring,
  kCharAt,
  kSplit,
  kStr,
  kLen,
  kPush,
  // document methods.
  kWrite,
  kWriteln,
  // Math methods.
  kFloor,
  kCeil,
  kAbs,
  kSqrt,
  kMax,
  kMin,
  kRandom,
  // Members read without a call.
  kLength,
  kPi,
};

/// The arithmetic a compound assignment (+=, -=, *=, /=) applies first.
enum class Compound : std::uint8_t { kNone, kAdd, kSub, kMul, kDiv };

struct Node {
  Op op = Op::kConstant;
  Method method = Method::kNone;        ///< kCall, kMember
  Compound compound = Compound::kNone;  ///< kAssign*
  std::uint32_t name = 0;    ///< kName, kAssignName, kVar, kFunction
  double number = 0;         ///< kConstant: constant.to_number()
  Value constant;            ///< kConstant
  std::string text;          ///< kMember: property; kUnknownOperator: operator
  std::vector<Node> kids;
  std::vector<std::string> keys;       ///< kObject
  std::unique_ptr<Function> function;  ///< kFunction
};

struct Function {
  std::string name;
  std::vector<std::uint32_t> params;  ///< name ids
  Node body;
};

struct ResolvedProgram {
  std::vector<Node> statements;
  /// Function values point into the program, so it must outlive them.
  bool declares_functions = false;
};

/// Resolves a parsed program, interning every identifier it names in
/// `names` (name -> id, ids dense from 0).
ResolvedProgram resolve(const Program& program,
                        std::unordered_map<std::string, std::uint32_t>& names);

}  // namespace eab::web::js
