// Differential oracle for MiniScript's resolve pass: js::Interpreter, which
// resolves each script and runs the resolved form, against the AST walker
// it replaced (support/reference_js, kept verbatim).
//
// Both run the same chains of scripts through support/js_chain.hpp's rig.
// Per script they must agree on the op count, completion, error text and
// ordered host-call log; at the end of the chain on every global.  The
// script-outcome memo is reset before every Interpreter chain, so each of
// its scripts is evaluated, never replayed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/page_spec.hpp"
#include "support/fuzz_inputs.hpp"
#include "support/js_chain.hpp"
#include "support/reference_js.hpp"
#include "util/rng.hpp"
#include "web/js.hpp"

namespace eab::web::js {
namespace {

using test::ChainRecord;
using test::page_scripts;
using test::run_chain;
using test::table3_pages;

constexpr std::uint64_t kDefaultBudget = 50'000'000;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// The first difference between two records, or "" when they agree.
std::string first_difference(const ChainRecord& resolved,
                             const ChainRecord& reference) {
  const std::size_t scripts =
      std::min(resolved.scripts.size(), reference.scripts.size());
  for (std::size_t i = 0; i < scripts; ++i) {
    const test::ScriptRecord& got = resolved.scripts[i];
    const test::ScriptRecord& want = reference.scripts[i];
    if (got == want) continue;
    return "script " + std::to_string(i) + ": ops " + std::to_string(got.ops) +
           " vs " + std::to_string(want.ops) + ", completed " +
           std::to_string(got.completed) + " vs " + std::to_string(want.completed) +
           ", error '" + got.error + "' vs '" + want.error + "', " +
           std::to_string(got.host_calls.size()) + " vs " +
           std::to_string(want.host_calls.size()) + " host calls";
  }
  if (resolved.globals != reference.globals) {
    for (std::size_t i = 0; i < resolved.globals.size(); ++i) {
      if (i >= reference.globals.size() ||
          resolved.globals[i] != reference.globals[i]) {
        return "global " + resolved.globals[i] + " vs " +
               (i < reference.globals.size() ? reference.globals[i] : "<none>");
      }
    }
  }
  if (resolved.total_ops != reference.total_ops) return "total ops";
  return resolved == reference ? "" : "script count";
}

/// Runs `chain` through the Interpreter (memo cold) and the reference, and
/// expects identical records.  Returns the reference record.
ChainRecord expect_same(const std::vector<std::string>& chain,
                        std::uint64_t budget, std::uint64_t seed,
                        const std::string& label) {
  reset_script_memo();
  const ChainRecord resolved = run_chain(chain, budget, seed);
  EXPECT_EQ(script_memo_stats().hits, 0u) << label;
  const ChainRecord reference =
      run_chain<test::reference_js::ChainRunner>(chain, budget, seed);
  EXPECT_EQ(first_difference(resolved, reference), "") << label;
  return reference;
}

TEST(ResolveOracle, CorpusChainsMatchTheReference) {
  // Every Table-3 page x 4 spec variants x 3 seeds, as perfbench's
  // page_loads draws them.
  for (const corpus::PageSpec& page : table3_pages()) {
    for (const std::uint64_t seed : kSeeds) {
      for (const corpus::PageSpec& spec : corpus::spec_variants(page, 4, seed)) {
        const std::vector<std::string> chain = page_scripts(spec, seed);
        ASSERT_FALSE(chain.empty()) << spec.site;
        const ChainRecord record = expect_same(
            chain, kDefaultBudget, seed, spec.site + " seed " + std::to_string(seed));
        for (const test::ScriptRecord& script : record.scripts) {
          EXPECT_TRUE(script.completed) << spec.site << ": " << script.error;
        }
      }
    }
  }
}

TEST(ResolveOracle, TruncatedCorpusScriptsMatchTheReference) {
  // Each script cut at seeded offsets, as a truncated fetch delivers it:
  // lex and parse errors, and partial runs that leave globals half set.
  const std::vector<corpus::PageSpec> pages = table3_pages();
  for (std::size_t page = 0; page < pages.size(); ++page) {
    for (const std::uint64_t seed : kSeeds) {
      Rng rng(seed * 1000 + page);
      std::vector<std::string> chain = page_scripts(pages[page], seed);
      for (std::string& source : chain) {
        source.resize(rng.uniform_index(source.size() + 1));
      }
      expect_same(chain, kDefaultBudget, seed,
                  pages[page].site + " truncated, seed " + std::to_string(seed));
    }
  }
}

TEST(ResolveOracle, JsFuzzSoupsMatchTheReference) {
  // The JsFuzz rounds, as one chain per seed under their tight budget.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    expect_same(test::js_fuzz_inputs(seed * 100), 100'000, seed,
                "fuzz seed " + std::to_string(seed * 100));
  }
}

TEST(ResolveOracle, BudgetSweepCutsAtTheSameOp) {
  // Budgets 1-64 cut every script in its first statements; n - 1, n and
  // n + 1, for each script's op count n, cut it at its last op or just let
  // it finish.  The op budget applies to each script on its own.
  for (const corpus::PageSpec& page : table3_pages()) {
    const std::vector<std::string> chain = page_scripts(page, 1);
    const ChainRecord full = expect_same(chain, kDefaultBudget, 1, page.site);
    std::vector<std::uint64_t> budgets;
    for (std::uint64_t budget = 1; budget <= 64; ++budget) budgets.push_back(budget);
    for (const test::ScriptRecord& script : full.scripts) {
      for (const std::uint64_t budget : {script.ops - 1, script.ops, script.ops + 1}) {
        if (budget > 64) budgets.push_back(budget);
      }
    }
    for (const std::uint64_t budget : budgets) {
      expect_same(chain, budget, 1, page.site + " budget " + std::to_string(budget));
    }
  }
}

TEST(ResolveOracle, HandWrittenSemanticsMatchTheReference) {
  // Paths the corpus never takes: functions and their frames, dynamic
  // scope, control flow through calls and loops, host names, builtins and
  // every runtime error.
  const std::vector<std::vector<std::string>> chains = {
      {"var x = 1; function inner() { seen = x; x = x + 1; }"
       "function outer() { var x = 10; inner(); return x; } var r = outer();"},
      {"function f() { if (true) { var h = 5; } { var d = 6; } return h + d; }"
       "var r = f();"},
      {"function f(a, a) { return a; } var r = f(1, 2); var s = f(3);"},
      {"var Math = 5; var r = Math.floor(2.7) + Math.PI + Math.max(1, 2);",
       "document = 3; document.write('x'); document.writeln(document);",
       "var w = window; window.loadImage('a.png'); window.fetchData(w);"},
      {"function len(s) { return 99; } var r = len('ab'); var q = len([1, 2, 3]);"},
      {"var u = undefined; var t = typeof u; var n = null; var e = u == n;"},
      {"var depth = 0; function g() { depth = depth + 1; g(); } g();"},
      {"function f(n) { if (n < 1) { return 0; } return n + f(n - 1); }"
       "var r = f(30);"},
      {"var n = 0; for (var i = 0; i < 20; i++) { if (i % 3 == 0) { continue; }"
       " if (i > 15) { break; } n += i; }",
       "var m = 0; while (true) { m++; if (m > 7) { break; } }"},
      {"function f() { for (var i = 0; i < 5; i++) { if (i == 3) { return i; } }"
       " return -1; } var r = f();"},
      {"function f() { while (true) { var k = 1; break; } return k; } var r = f();"},
      {"break;", "continue;", "return 1;", "function f() { break; } f();",
       "function g() { continue; } g();", "var ok = 1;"},
      {"undefinedFn();", "var x = 5; x();", "var y = 5[0];", "var o = 5; o.p = 1;",
       "var a = 'abc'; a[0] = 'z';", "Math.nope(1);", "document.floor(1);",
       "window.write('x');", "push(1, 2);", "push([1]);", "var b = [1]; b[-1] = 5;",
       "var ok = 2;"},
      {"var o = {a: 1, 'b c': 2, if: 3}; o.d = 4; o['e'] = o.a + o['b c'];"
       "o.a += 10; o['b c'] *= 3; var keys = o.if + o.d + o.e;"},
      {"var a = [1, 'two', [3]]; a[5] = 6; a[1] += 'x'; a[0] -= 4;"
       "var l = a.length + len(a) + a[2].length; var s = '' + a; var c = a[2][0];"},
      {"var s = 'hello'; var t = s[1] + s.length + charAt(s, 4) + substring(s, 1, 3);"
       "var p = split('a,b,,c', ','); var q = split('xyz', ''); var i = indexOf(s, 'll');"
       "var st = str(12.5) + str(); var tf = typeof f + typeof s + typeof p + typeof Math;"},
      {"var x = 1 && 0 || 'y'; var z = !x && x; var q = -'3' * '2' + true + null;"
       "var d = 7 / 0 + 7 % 0; var c = 'a' < 'b'; var e = '10' == 10; var ne = 1 != '1';"},
      {"function mk() { return {n: 1}; } var o = mk(); o.n += 1;"
       "function id(v) { return v; } var f = id(id); var r = f(5); var obj = {f: id};"
       "var r2 = obj.f(7); var r3 = obj.missing;"},
      {"function outer() { var v = 'outer'; function nested() { return v; }"
       " return nested(); } var r = outer(); var later = nested();"},
      {"var x = 2; x *= x + 1; x /= 3; x -= 1; var s = 'a'; s += 1; s += null;"},
      {"var r = Math.random() + Math.random(); var a = Math.abs(-2) + Math.sqrt(16)"
       " + Math.ceil(1.2) + Math.min(4, 3) + Math.max(-1, -2);"},
      {"var n = 0; for (;;) { n++; if (n == 4) { break; } }"
       "for (var k = 0; k < 3;) { k++; }"},
      {"function f(a) { a = a + 1; return a; } var a = 10; var r = f(a);"},
      {"function setg() { fresh = 42; } setg(); var seen = fresh;"},
      {"var i = 0; function step() { i++; return i < 5; } while (step()) { }"},
      // Remainders: the integer fast path and every case left to fmod,
      // whose zeros carry the dividend's sign.
      {"var m = [7 % 3, -7 % 3, 7 % -3, 6 % 3, -6 % 3, 0 % 5, -0 % 5, 7.5 % 2,"
       " 7 % 0.5, 4294967297 % 10, 4294967295 % 4294967294, 5 % 0, 0 % 0,"
       " '9' % 4, true % 2, null % 3]; var n = 12; n = n % 5; var k = (n + 8) % 7;"},
  };
  for (std::size_t i = 0; i < chains.size(); ++i) {
    expect_same(chains[i], kDefaultBudget, 7, "hand-written chain " + std::to_string(i));
    expect_same(chains[i], 25, 7, "hand-written chain " + std::to_string(i) + ", budget 25");
  }
}

// --- random well-formed programs ---------------------------------------------
//
// A small grammar over a handful of names, so programs read and write the
// same variables from the globals, from functions and from their callees.

class ProgramMaker {
 public:
  explicit ProgramMaker(std::uint64_t seed) : rng_(seed) {}

  std::string program(int statements) {
    std::string out;
    for (int i = 0; i < statements; ++i) out += statement(3, false);
    return out;
  }

 private:
  std::size_t pick(std::size_t n) { return rng_.uniform_index(n); }

  std::string name() {
    static const char* const kNames[] = {"a", "b", "i", "s", "arr", "obj", "f", "g"};
    return kNames[pick(8)];
  }

  std::string expression(int depth) {
    if (depth <= 0) {
      switch (pick(6)) {
        case 0: return std::to_string(pick(20));
        case 1: return "'t" + std::to_string(pick(3)) + "'";
        case 2: return pick(2) ? "true" : "null";
        case 3: return "undefined";
        default: return name();
      }
    }
    static const char* const kOps[] = {"+", "-", "*", "/", "%", "<", ">", "<=",
                                       ">=", "==", "!=", "&&", "||"};
    switch (pick(12)) {
      case 0: return "(" + expression(depth - 1) + " " + kOps[pick(13)] + " " +
                     expression(depth - 1) + ")";
      case 1: return "!" + expression(depth - 1);
      case 2: return "-" + expression(depth - 1);
      case 3: return "typeof " + expression(depth - 1);
      case 4: return std::string(pick(4) ? (pick(2) ? "f" : "g") : name()) + "(" +
                     expression(depth - 1) + ")";
      case 5: return "[" + expression(depth - 1) + ", " + expression(depth - 1) + "]";
      case 6: return "{k: " + expression(depth - 1) + "}";
      case 7: return name() + "." + (pick(2) ? "k" : "length");
      case 8: return name() + "[" + expression(depth - 1) + "]";
      case 9: return "Math.floor(" + expression(depth - 1) + ")";
      case 10: return "len(" + expression(depth - 1) + ")";
      default: return "(" + name() + " = " + expression(depth - 1) + ")";
    }
  }

  std::string statement(int depth, bool in_loop) {
    std::size_t kind = pick(depth <= 0 ? 4 : 12);
    if (!in_loop && (kind == 8 || kind == 9)) kind = 0;
    switch (kind) {
      case 0: return "var " + name() + " = " + expression(2) + ";\n";
      case 1: return name() + " = " + expression(2) + ";\n";
      case 2: return name() + (pick(2) ? " += " : " -= ") + expression(1) + ";\n";
      case 3: return "document.write(" + expression(1) + ");\n";
      case 4: return "if (" + expression(2) + ") {\n" + statement(depth - 1, in_loop) +
                     "} else {\n" + statement(depth - 1, in_loop) + "}\n";
      case 5: return "for (var i = 0; i < " + std::to_string(pick(6)) + "; i++) {\n" +
                     statement(depth - 1, true) + statement(depth - 1, true) + "}\n";
      case 6: return "while (" + expression(1) + ") {\n" + statement(depth - 1, true) +
                     "break;\n}\n";
      case 7: return std::string("function ") + (pick(2) ? "f" : "g") + "(a) {\n" +
                     statement(depth - 1, false) + statement(depth - 1, false) + "return " +
                     expression(2) + ";\n}\n";
      case 8: return "if (" + expression(1) + ") { continue; }\n";
      case 9: return "if (" + expression(1) + ") { break; }\n";
      case 10: return name() + "[" + expression(1) + "] = " + expression(1) + ";\n";
      default: return name() + ".k = " + expression(1) + ";\n";
    }
  }

  Rng rng_;
};

TEST(ResolveOracle, RandomProgramsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    ProgramMaker maker(seed);
    std::vector<std::string> chain;
    for (int script = 0; script < 4; ++script) chain.push_back(maker.program(8));
    expect_same(chain, 20'000, seed, "random chain " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace eab::web::js
