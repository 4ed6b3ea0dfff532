#include "web/js.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace eab::web::js {
namespace {

/// Records everything a script does to the outside world.
class RecordingHost : public JsHost {
 public:
  void document_write(const std::string& html) override {
    writes.push_back(html);
  }
  void request_resource(const std::string& url,
                        net::ResourceKind kind) override {
    requests.emplace_back(url, kind);
  }
  double random() override { return next_random; }

  std::vector<std::string> writes;
  std::vector<std::pair<std::string, net::ResourceKind>> requests;
  double next_random = 0.5;
};

struct JsFixture : ::testing::Test {
  RecordingHost host;
  Interpreter interp{host};

  Value run_and_get(const std::string& source, const std::string& global) {
    const RunResult result = interp.run(source);
    EXPECT_TRUE(result.completed) << result.error;
    return interp.global(global);
  }
};

// --- lexer ---------------------------------------------------------------

TEST(JsLexer, TokenKinds) {
  const auto tokens = tokenize("var x = 12.5; // comment\n'str' >= &&");
  ASSERT_GE(tokens.size(), 7u);
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[2].text, "=");
  EXPECT_EQ(tokens[3].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[3].number, 12.5);
  EXPECT_EQ(tokens[5].type, TokenType::kString);
  EXPECT_EQ(tokens[5].text, "str");
  EXPECT_EQ(tokens[6].text, ">=");
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(JsLexer, StringEscapes) {
  const auto tokens = tokenize(R"("a\nb\"c\\d")");
  EXPECT_EQ(tokens[0].text, "a\nb\"c\\d");
}

TEST(JsLexer, BlockComments) {
  const auto tokens = tokenize("1 /* skip \n lines */ 2");
  ASSERT_EQ(tokens.size(), 3u);  // two numbers + end
}

TEST(JsLexer, ErrorsOnBadInput) {
  EXPECT_THROW(tokenize("\"unterminated"), JsError);
  EXPECT_THROW(tokenize("var x = @;"), JsError);
  EXPECT_THROW(tokenize("/* never closed"), JsError);
}

// --- parser --------------------------------------------------------------

TEST(JsParser, SyntaxErrorsCarryOffsets) {
  try {
    parse("var = 5;");
    FAIL() << "expected JsError";
  } catch (const JsError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  EXPECT_THROW(parse("if (x { }"), JsError);
  EXPECT_THROW(parse("function () {}"), JsError);
  EXPECT_THROW(parse("x = ;"), JsError);
  EXPECT_THROW(parse("{ unclosed"), JsError);
}

TEST(JsParser, AcceptsRepresentativePrograms) {
  EXPECT_NO_THROW(parse("var a = 1, b = 2; a = a + b;"));
  EXPECT_NO_THROW(parse("for (var i = 0; i < 10; i = i + 1) { work(i); }"));
  EXPECT_NO_THROW(parse("function f(a, b) { return a * b; } f(2, 3);"));
  EXPECT_NO_THROW(parse("while (x < 3) { x += 1; }"));
  EXPECT_NO_THROW(parse("var a = [1, 2, 3]; a[0] = a[1] + a[2];"));
  EXPECT_NO_THROW(parse("for (;;) { break_me = 1; }"));
}

TEST(JsParser, IncrementNeedsAnAssignableTarget) {
  // ++ and -- desugar to += and -=, so they take the same targets as an
  // assignment.  Any other operand used to reach the evaluator, which read
  // past the end of the operand's children and crashed.
  for (const char* source :
       {"++5;", "var x = --undefined;", "f()++;", "(a + b)--;", "++'s';"}) {
    EXPECT_THROW(parse(source), JsError) << source;
  }
  EXPECT_NO_THROW(parse("x++; ++a[0]; --o.k; o.k--;"));
}

// --- interpreter ----------------------------------------------------------

TEST_F(JsFixture, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(run_and_get("var x = 2 + 3 * 4;", "x").to_number(), 14);
  EXPECT_DOUBLE_EQ(run_and_get("var y = (2 + 3) * 4;", "y").to_number(), 20);
  EXPECT_DOUBLE_EQ(run_and_get("var z = 17 % 5;", "z").to_number(), 2);
  EXPECT_DOUBLE_EQ(run_and_get("var w = -3 + 1;", "w").to_number(), -2);
}

TEST_F(JsFixture, StringConcatenation) {
  EXPECT_EQ(run_and_get("var s = 'a' + 'b' + 1;", "s").to_string(), "ab1");
  EXPECT_EQ(run_and_get("var t = 1 + 2 + 'x';", "t").to_string(), "3x");
}

TEST_F(JsFixture, ComparisonAndLogic) {
  EXPECT_TRUE(run_and_get("var a = 3 < 5 && 5 <= 5;", "a").truthy());
  EXPECT_FALSE(run_and_get("var b = 1 == 2 || false;", "b").truthy());
  EXPECT_TRUE(run_and_get("var c = 'x' == 'x';", "c").truthy());
  EXPECT_TRUE(run_and_get("var d = !0;", "d").truthy());
}

TEST_F(JsFixture, ShortCircuitSkipsSideEffects) {
  interp.run("var hit = 0; function boom() { hit = 1; return true; }");
  interp.run("var r = false && boom();");
  EXPECT_DOUBLE_EQ(interp.global("hit").to_number(), 0);
  interp.run("var r2 = true || boom();");
  EXPECT_DOUBLE_EQ(interp.global("hit").to_number(), 0);
}

TEST_F(JsFixture, WhileAndForLoops) {
  EXPECT_DOUBLE_EQ(
      run_and_get("var s = 0; for (var i = 1; i <= 10; i = i + 1) { s += i; }",
                  "s")
          .to_number(),
      55);
  EXPECT_DOUBLE_EQ(
      run_and_get("var n = 0; while (n < 7) { n += 2; }", "n").to_number(), 8);
}

TEST_F(JsFixture, IncrementOperators) {
  EXPECT_DOUBLE_EQ(
      run_and_get("var k = 0; for (var i = 0; i < 4; i++) { k++; }", "k")
          .to_number(),
      4);
  EXPECT_DOUBLE_EQ(run_and_get("var m = 5; --m;", "m").to_number(), 4);
}

TEST_F(JsFixture, FunctionsParamsReturnRecursion) {
  interp.run("function add(a, b) { return a + b; } var r = add(2, 40);");
  EXPECT_DOUBLE_EQ(interp.global("r").to_number(), 42);
  interp.run(
      "function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }"
      "var f = fib(10);");
  EXPECT_DOUBLE_EQ(interp.global("f").to_number(), 55);
}

TEST_F(JsFixture, FunctionLocalsDoNotLeak) {
  interp.run("function f() { var secret = 1; return 2; } f();");
  EXPECT_TRUE(interp.global("secret").is_undefined());
}

TEST_F(JsFixture, GlobalsPersistAcrossScripts) {
  interp.run("var counter = 1;");
  interp.run("counter = counter + 1;");
  EXPECT_DOUBLE_EQ(interp.global("counter").to_number(), 2);
}

TEST_F(JsFixture, FunctionsPersistAcrossScripts) {
  interp.run("function mk(u) { loadImage(u); }");
  interp.run("mk('late.jpg');");
  ASSERT_EQ(host.requests.size(), 1u);
  EXPECT_EQ(host.requests[0].first, "late.jpg");
}

TEST_F(JsFixture, Arrays) {
  interp.run("var a = [10, 20]; a[2] = 30; var n = len(a); var s = a[0] + a[2];");
  EXPECT_DOUBLE_EQ(interp.global("n").to_number(), 3);
  EXPECT_DOUBLE_EQ(interp.global("s").to_number(), 40);
  interp.run("push(a, 99); var m = a.length;");
  EXPECT_DOUBLE_EQ(interp.global("m").to_number(), 4);
}

TEST_F(JsFixture, StringLengthAndIndex) {
  interp.run("var s = 'hello'; var n = s.length; var c = s[1];");
  EXPECT_DOUBLE_EQ(interp.global("n").to_number(), 5);
  EXPECT_EQ(interp.global("c").to_string(), "e");
}

TEST_F(JsFixture, DocumentWriteReachesHost) {
  interp.run("document.write('<div>' + 'x' + '</div>');");
  ASSERT_EQ(host.writes.size(), 1u);
  EXPECT_EQ(host.writes[0], "<div>x</div>");
}

TEST_F(JsFixture, ResourceBuiltinsReachHost) {
  interp.run(
      "loadImage('a.jpg'); loadScript('b.js'); loadCss('c.css');"
      "fetchData('d.bin'); window.loadImage('e.png');");
  ASSERT_EQ(host.requests.size(), 5u);
  EXPECT_EQ(host.requests[0].second, net::ResourceKind::kImage);
  EXPECT_EQ(host.requests[1].second, net::ResourceKind::kJs);
  EXPECT_EQ(host.requests[2].second, net::ResourceKind::kCss);
  EXPECT_EQ(host.requests[3].second, net::ResourceKind::kOther);
  EXPECT_EQ(host.requests[4].first, "e.png");
}

TEST_F(JsFixture, MathBuiltins) {
  interp.run(
      "var f = Math.floor(3.9); var c = Math.ceil(3.1); var a = Math.abs(-2);"
      "var mx = Math.max(1, 7); var mn = Math.min(1, 7);"
      "var r = Math.random();");
  EXPECT_DOUBLE_EQ(interp.global("f").to_number(), 3);
  EXPECT_DOUBLE_EQ(interp.global("c").to_number(), 4);
  EXPECT_DOUBLE_EQ(interp.global("a").to_number(), 2);
  EXPECT_DOUBLE_EQ(interp.global("mx").to_number(), 7);
  EXPECT_DOUBLE_EQ(interp.global("mn").to_number(), 1);
  EXPECT_DOUBLE_EQ(interp.global("r").to_number(), 0.5);
}

TEST_F(JsFixture, DynamicUrlConstruction) {
  interp.run(
      "var base = 'http://s/img/';"
      "for (var i = 0; i < 3; i = i + 1) { loadImage(base + 'p' + i + '.jpg'); }");
  ASSERT_EQ(host.requests.size(), 3u);
  EXPECT_EQ(host.requests[2].first, "http://s/img/p2.jpg");
}

TEST_F(JsFixture, RuntimeErrorsReportedNotThrown) {
  const RunResult r1 = interp.run("undefinedFn();");
  EXPECT_FALSE(r1.completed);
  EXPECT_FALSE(r1.error.empty());
  const RunResult r2 = interp.run("var x = 5[0];");
  EXPECT_FALSE(r2.completed);
  const RunResult r3 = interp.run("return 5;");
  EXPECT_FALSE(r3.completed);
}

TEST_F(JsFixture, IncrementOfALiteralIsASyntaxError) {
  const RunResult result = interp.run("var x = --undefined;");
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.ops, 0u);
  EXPECT_NE(result.error.find("invalid assignment target"), std::string::npos)
      << result.error;
}

TEST_F(JsFixture, SyntaxErrorReportedNotThrown) {
  const RunResult result = interp.run("var = broken");
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("parse error"), std::string::npos);
}

TEST_F(JsFixture, InterpreterSurvivesErrorAndContinues) {
  interp.run("var ok = 1;");
  interp.run("totally broken ((");
  interp.run("ok = ok + 1;");
  EXPECT_DOUBLE_EQ(interp.global("ok").to_number(), 2);
}

TEST(JsInterpreter, OpBudgetStopsRunaways) {
  RecordingHost host;
  Interpreter interp(host, 10'000);
  const RunResult result = interp.run("while (true) { var x = 1; }");
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("budget"), std::string::npos);
  EXPECT_LE(result.ops, 10'001u);
}

TEST(JsInterpreter, StackOverflowGuard) {
  RecordingHost host;
  Interpreter interp(host);
  const RunResult result = interp.run("function f() { return f(); } f();");
  EXPECT_FALSE(result.completed);
}

TEST_F(JsFixture, OpsScaleWithWork) {
  const RunResult small = interp.run("for (var i = 0; i < 10; i++) { }");
  const RunResult large = interp.run("for (var j = 0; j < 1000; j++) { }");
  EXPECT_GT(large.ops, small.ops * 20);
  EXPECT_EQ(interp.total_ops(), small.ops + large.ops);
}

TEST_F(JsFixture, CompoundAssignmentOperators) {
  interp.run("var x = 10; x += 5; x -= 3; x *= 2; x /= 4;");
  EXPECT_DOUBLE_EQ(interp.global("x").to_number(), 6);
  interp.run("var s = 'a'; s += 'b';");
  EXPECT_EQ(interp.global("s").to_string(), "ab");
}

TEST_F(JsFixture, ValueCoercions) {
  EXPECT_DOUBLE_EQ(run_and_get("var a = '12' * 2;", "a").to_number(), 24);
  EXPECT_TRUE(run_and_get("var b = 'nonempty';", "b").truthy());
  EXPECT_FALSE(run_and_get("var c = '';", "c").truthy());
  EXPECT_FALSE(run_and_get("var d = null;", "d").truthy());
  EXPECT_EQ(run_and_get("var e = undefined;", "e").to_string(), "undefined");
}

TEST_F(JsFixture, BreakExitsLoop) {
  interp.run(
      "var n = 0;"
      "for (var i = 0; i < 100; i++) { if (i == 5) { break; } n = n + 1; }");
  EXPECT_DOUBLE_EQ(interp.global("n").to_number(), 5);
  interp.run("var m = 0; while (true) { m = m + 1; if (m >= 3) { break; } }");
  EXPECT_DOUBLE_EQ(interp.global("m").to_number(), 3);
}

TEST_F(JsFixture, ContinueSkipsIteration) {
  interp.run(
      "var evens = 0;"
      "for (var i = 0; i < 10; i++) { if (i % 2 == 1) { continue; }"
      " evens = evens + 1; }");
  EXPECT_DOUBLE_EQ(interp.global("evens").to_number(), 5);
}

TEST_F(JsFixture, BreakOutsideLoopIsError) {
  EXPECT_FALSE(interp.run("break;").completed);
  EXPECT_FALSE(interp.run("continue;").completed);
  EXPECT_FALSE(interp.run("function f() { break; } f();").completed);
}

TEST_F(JsFixture, TypeofOperator) {
  interp.run(
      "var tn = typeof 1; var ts = typeof 'x'; var tb = typeof true;"
      "var tu = typeof undefined; var to = typeof null;"
      "function g() {} var tf = typeof g; var ta = typeof [1];");
  EXPECT_EQ(interp.global("tn").to_string(), "number");
  EXPECT_EQ(interp.global("ts").to_string(), "string");
  EXPECT_EQ(interp.global("tb").to_string(), "boolean");
  EXPECT_EQ(interp.global("tu").to_string(), "undefined");
  EXPECT_EQ(interp.global("to").to_string(), "object");
  EXPECT_EQ(interp.global("tf").to_string(), "function");
  EXPECT_EQ(interp.global("ta").to_string(), "object");
}

TEST_F(JsFixture, StringBuiltins) {
  interp.run(
      "var i1 = indexOf('hello world', 'world');"
      "var i2 = indexOf('hello', 'zzz');"
      "var sub = substring('browser', 1, 4);"
      "var tail = substring('browser', 4);"
      "var ch = charAt('abc', 1);");
  EXPECT_DOUBLE_EQ(interp.global("i1").to_number(), 6);
  EXPECT_DOUBLE_EQ(interp.global("i2").to_number(), -1);
  EXPECT_EQ(interp.global("sub").to_string(), "row");
  EXPECT_EQ(interp.global("tail").to_string(), "ser");
  EXPECT_EQ(interp.global("ch").to_string(), "b");
}

TEST_F(JsFixture, SplitBuiltin) {
  interp.run(
      "var parts = split('a,b,c', ',');"
      "var n = parts.length; var first = parts[0]; var last = parts[2];"
      "var chars = split('xy', '');");
  EXPECT_DOUBLE_EQ(interp.global("n").to_number(), 3);
  EXPECT_EQ(interp.global("first").to_string(), "a");
  EXPECT_EQ(interp.global("last").to_string(), "c");
  interp.run("var c0 = chars[0];");
  EXPECT_EQ(interp.global("c0").to_string(), "x");
}

TEST_F(JsFixture, UrlParsingWithBuiltins) {
  // A realistic corpus-script pattern: derive an image path from a URL.
  interp.run(
      "var url = 'http://site/img/photo.jpg';"
      "var slash = indexOf(url, '/img/');"
      "var name = substring(url, slash + 5);"
      "if (typeof name == 'string' && name.length > 0) { loadImage(name); }");
  ASSERT_EQ(host.requests.size(), 1u);
  EXPECT_EQ(host.requests[0].first, "photo.jpg");
}

TEST_F(JsFixture, ObjectLiteralsGetAndSet) {
  interp.run(
      "var cfg = {width: 300, name: 'banner', 'with-dash': 7};"
      "var w = cfg.width; var n = cfg.name; var d = cfg['with-dash'];"
      "cfg.height = 150; cfg['depth'] = 2;"
      "var h = cfg.height; var dp = cfg.depth; var missing = cfg.nope;");
  EXPECT_DOUBLE_EQ(interp.global("w").to_number(), 300);
  EXPECT_EQ(interp.global("n").to_string(), "banner");
  EXPECT_DOUBLE_EQ(interp.global("d").to_number(), 7);
  EXPECT_DOUBLE_EQ(interp.global("h").to_number(), 150);
  EXPECT_DOUBLE_EQ(interp.global("dp").to_number(), 2);
  EXPECT_TRUE(interp.global("missing").is_undefined());
}

TEST_F(JsFixture, ObjectsShareByReference) {
  interp.run(
      "var a = {count: 1}; var b = a; b.count = 5; var c = a.count;");
  EXPECT_DOUBLE_EQ(interp.global("c").to_number(), 5);
}

TEST_F(JsFixture, NestedObjectsAndArrays) {
  interp.run(
      "var site = {imgs: ['a.jpg', 'b.jpg'], meta: {lang: 'en'}};"
      "for (var i = 0; i < site.imgs.length; i++) { loadImage(site.imgs[i]); }"
      "var lang = site.meta.lang;");
  ASSERT_EQ(host.requests.size(), 2u);
  EXPECT_EQ(host.requests[1].first, "b.jpg");
  EXPECT_EQ(interp.global("lang").to_string(), "en");
}

TEST_F(JsFixture, TypeofObjectAndToString) {
  interp.run("var o = {}; var t = typeof o; var s = '' + o;");
  EXPECT_EQ(interp.global("t").to_string(), "object");
  EXPECT_EQ(interp.global("s").to_string(), "[object Object]");
}

TEST_F(JsFixture, SetPropertyOnNonObjectFails) {
  const RunResult result = interp.run("var n = 5; n.x = 1;");
  EXPECT_FALSE(result.completed);
}

// --- index bounds ------------------------------------------------------------
//
// Indexes are doubles; one that names no element must never reach a
// size_t cast (undefined behaviour, and a crash in an optimised build).
// The lexer has no exponent syntax, so `huge` (about 1e300) is computed.

const char* const kHuge =
    "var huge = 1; for (var k = 0; k < 300; k++) { huge = huge * 10; }";

TEST_F(JsFixture, ReadsAtIndexesNamingNoElementAreEmpty) {
  interp.run(std::string(kHuge) +
             "var a = [1, 2, 3]; var s = 'abc'; var nan = 0 / 0;"
             "var r1 = a[-1]; var r2 = a[1.5]; var r3 = a[nan]; var r4 = a[3];"
             "var r5 = a[huge]; var r6 = s[-1]; var r7 = s[0.5]; var r8 = s[huge];"
             "var c1 = charAt(s, -1); var c2 = charAt(s, 1.5);"
             "var c3 = charAt(s, nan); var c4 = charAt(s, huge);"
             "var c5 = charAt(s, 3);");
  for (const char* name : {"r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8"}) {
    EXPECT_TRUE(interp.global(name).is_undefined()) << name;
  }
  for (const char* name : {"c1", "c2", "c3", "c4", "c5"}) {
    EXPECT_EQ(interp.global(name).to_string(), "") << name;
  }
}

TEST_F(JsFixture, SubstringClampsHugeNegativeAndNaNBounds) {
  interp.run(std::string(kHuge) +
             "var nan = 0 / 0;"
             "var a = substring('browser', huge); var b = substring('browser', -5, 3);"
             "var c = substring('browser', 2, huge);"
             "var d = substring('browser', 2, -1);"
             "var e = substring('browser', nan, 3);"
             "var f = substring('browser', 1, nan);");
  EXPECT_EQ(interp.global("a").to_string(), "");
  EXPECT_EQ(interp.global("b").to_string(), "bro");
  EXPECT_EQ(interp.global("c").to_string(), "owser");
  EXPECT_EQ(interp.global("d").to_string(), "");
  EXPECT_EQ(interp.global("e").to_string(), "bro");
  EXPECT_EQ(interp.global("f").to_string(), "rowser");
}

TEST_F(JsFixture, NegativeIndexWriteFailsInsteadOfCrashing) {
  const RunResult result = interp.run("var b = [1]; b[-1] = 5;");
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("out of range"), std::string::npos) << result.error;
  EXPECT_EQ(interp.global("b").to_string(), "1");
}

TEST_F(JsFixture, WritesAtBadOrFarIndexesFail) {
  // Non-integral, NaN, infinite, and more than 2^20 past the end.
  for (const std::string index :
       {"-1", "1.5", "0 / 0", "1 / 0", "1000000000", "huge", "1048578"}) {
    const RunResult result =
        interp.run(std::string(kHuge) + "var b = [1]; b[" + index + "] = 5;");
    EXPECT_FALSE(result.completed) << index;
    EXPECT_NE(result.error.find("out of range"), std::string::npos)
        << index << ": " << result.error;
  }
  // Growth within the limit still pads with undefined.
  const RunResult grown = interp.run("var g = [1]; g[1000] = 2; var n = len(g);");
  EXPECT_TRUE(grown.completed) << grown.error;
  EXPECT_DOUBLE_EQ(interp.global("n").to_number(), 1001);
}

TEST_F(JsFixture, InRangeIndexingKeepsItsOpCount) {
  // The bounds checks add no evaluation step: the op count of in-range
  // reads, writes and string builtins is pinned to its earlier value.
  const RunResult result = interp.run(
      "var a = [1, 2]; a[5] = 3; var x = a[1] + a[7] + a[0];"
      "var s = charAt('abc', 2) + substring('abcdef', 1, 3) + 'xyz'[1];"
      "a[6] = s;");
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.ops, 39u);
  EXPECT_EQ(interp.global("s").to_string(), "cbcy");
}

// --- semantics a resolve pass could break ------------------------------------
//
// Each case pins its op count: the resolved evaluator must tick exactly as
// the AST walker it replaced did.

TEST_F(JsFixture, CalleeSeesAndAssignsItsCallersLocals) {
  // Scoping is dynamic: inner() runs in outer()'s frame, not the globals.
  const RunResult result = interp.run(
      "var x = 1; var seen = 0;"
      "function inner() { seen = x; x = x + 1; }"
      "function outer() { var x = 10; inner(); return x; }"
      "var r = outer();");
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.ops, 26u);
  EXPECT_DOUBLE_EQ(interp.global("r").to_number(), 11);
  EXPECT_DOUBLE_EQ(interp.global("seen").to_number(), 10);
  EXPECT_DOUBLE_EQ(interp.global("x").to_number(), 1);
}

TEST_F(JsFixture, VarInANestedBlockLandsInTheFunctionsFrame) {
  const RunResult result = interp.run(
      "function f() { if (true) { var hidden = 5; } { var deeper = 6; }"
      " return hidden + deeper; }"
      "var r = f();");
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.ops, 17u);
  EXPECT_DOUBLE_EQ(interp.global("r").to_number(), 11);
  EXPECT_TRUE(interp.global("hidden").is_undefined());
  EXPECT_TRUE(interp.global("deeper").is_undefined());
}

TEST_F(JsFixture, HostNamesBeatVariables) {
  const RunResult math = interp.run("var Math = 5; var r = Math.floor(2.7);");
  EXPECT_TRUE(math.completed) << math.error;
  EXPECT_EQ(math.ops, 6u);
  EXPECT_DOUBLE_EQ(interp.global("r").to_number(), 2);
  // The variable is still stored; only reads of the name see the host.
  EXPECT_DOUBLE_EQ(interp.global("Math").to_number(), 5);

  const RunResult doc = interp.run("document = 3; document.write(\"x\");");
  EXPECT_TRUE(doc.completed) << doc.error;
  EXPECT_EQ(doc.ops, 7u);
  ASSERT_EQ(host.writes.size(), 1u);
  EXPECT_EQ(host.writes[0], "x");
  EXPECT_DOUBLE_EQ(interp.global("document").to_number(), 3);
}

TEST_F(JsFixture, BuiltinsBeatScriptFunctions) {
  const RunResult result = interp.run(
      "function len(s) { return 99; } var r = len(\"ab\");");
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.ops, 4u);
  EXPECT_DOUBLE_EQ(interp.global("r").to_number(), 2);
}

TEST_F(JsFixture, UndefinedLiteral) {
  const RunResult result = interp.run(
      "var u = undefined; var t = typeof u; var same = u == undefined;"
      "var n = null; var differs = n == undefined;");
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.ops, 15u);
  EXPECT_TRUE(interp.global("u").is_undefined());
  EXPECT_EQ(interp.global("t").to_string(), "undefined");
  EXPECT_TRUE(interp.global("same").truthy());
  EXPECT_FALSE(interp.global("differs").truthy());
}

// --- arrays that contain themselves -------------------------------------------
//
// Stringifying an array joins its elements; one already being joined renders
// as "", as Array.prototype.join does, instead of recursing without end.

TEST_F(JsFixture, SelfContainingArrayWritesEmpty) {
  const RunResult result =
      interp.run("var a = [1]; a[0] = a; document.write('' + a);");
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.ops, 14u);
  ASSERT_EQ(host.writes.size(), 1u);
  EXPECT_EQ(host.writes[0], "");
}

TEST_F(JsFixture, SelfContainingArrayJoinsItsOtherElements) {
  const RunResult result =
      interp.run("var a = [1]; a[1] = a; document.write('' + a);");
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.ops, 14u);
  ASSERT_EQ(host.writes.size(), 1u);
  EXPECT_EQ(host.writes[0], "1,");
}

TEST_F(JsFixture, SelfContainingArrayCompares) {
  const RunResult result = interp.run(
      "var a = [1]; a[1] = a; var same = a == '1,'; var b = [a, 2];"
      "var nested = b == '1,,2';");
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.ops, 20u);
  EXPECT_TRUE(interp.global("same").truthy());
  EXPECT_TRUE(interp.global("nested").truthy());
}

TEST(JsInterpreter, CallStackOverflowAtSixtyFiveFrames) {
  RecordingHost host;
  Interpreter interp(host);
  const RunResult result =
      interp.run("var depth = 0; function g() { depth = depth + 1; g(); } g();");
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.error, "call stack overflow");
  EXPECT_EQ(result.ops, 591u);
  EXPECT_DOUBLE_EQ(interp.global("depth").to_number(), 65);
}

}  // namespace
}  // namespace eab::web::js
