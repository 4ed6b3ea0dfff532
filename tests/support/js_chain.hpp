// One rig for MiniScript differential tests: run a chain of scripts in one
// interpreter, as one page would, and record everything a caller can
// observe.  web_js_memo_test compares cold against warm runs of the
// Interpreter with it; web_js_resolve_test compares the Interpreter against
// the pre-resolve reference evaluator (reference_js.hpp).
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "corpus/generator.hpp"
#include "corpus/page_spec.hpp"
#include "net/web_server.hpp"
#include "util/rng.hpp"
#include "web/html_parser.hpp"
#include "web/js.hpp"

namespace eab::test {

/// Logs every host call in order and draws Math.random() from a seeded RNG.
class LoggingHost : public web::js::JsHost {
 public:
  explicit LoggingHost(std::uint64_t seed) : rng_(seed) {}

  void document_write(const std::string& html) override {
    log_.push_back("write " + html);
  }
  void request_resource(const std::string& url,
                        net::ResourceKind kind) override {
    log_.push_back("request " + std::to_string(static_cast<int>(kind)) + " " +
                   url);
  }
  double random() override { return rng_.uniform(); }

  std::vector<std::string> take_log() { return std::move(log_); }

 private:
  Rng rng_;
  std::vector<std::string> log_;
};

/// A function value's label: its declared name, whether the evaluator holds
/// functions as AST statements or as resolved declarations.
inline std::string function_label(const web::js::Stmt* fn) { return fn->text; }
inline std::string function_label(const web::js::Function* fn) {
  return web::js::function_name(*fn);
}

/// A value rendered exactly: numbers by bit pattern, arrays and objects by
/// their contents, functions by name (their addresses differ between
/// interpreters).  Depth-limited, since an array may contain itself.  Works
/// for js::Value and for the reference evaluator's copy of its old layout.
template <typename Value>
std::string render(const Value& value, int depth = 0) {
  if (depth > 8) return "...";
  return std::visit(
      [&](const auto& held) -> std::string {
        using Held = std::decay_t<decltype(held)>;
        if constexpr (std::is_same_v<Held, double>) {
          return "d" + std::to_string(std::bit_cast<std::uint64_t>(held));
        } else if constexpr (std::is_same_v<Held, std::string>) {
          return "s'" + held + "'";
        } else if constexpr (std::is_same_v<Held,
                                            std::shared_ptr<std::vector<Value>>>) {
          std::string out = "[";
          for (const Value& element : *held) out += render(element, depth + 1) + ",";
          return out + "]";
        } else if constexpr (std::is_same_v<
                                 Held, std::shared_ptr<std::map<std::string, Value>>>) {
          std::string out = "{";
          for (const auto& [key, element] : *held) {
            out += key + ":" + render(element, depth + 1) + ",";
          }
          return out + "}";
        } else if constexpr (std::is_same_v<Held, web::js::HostObject>) {
          return "h" + std::to_string(static_cast<int>(held));
        } else if constexpr (std::is_pointer_v<Held>) {
          return "f " + function_label(held);
        } else {
          return value.to_string();  // undefined, null, booleans
        }
      },
      value.storage);
}

struct ScriptRecord {
  std::uint64_t ops = 0;
  bool completed = false;
  std::string error;
  std::vector<std::string> host_calls;
  bool operator==(const ScriptRecord&) const = default;
};

struct ChainRecord {
  std::vector<ScriptRecord> scripts;
  std::uint64_t total_ops = 0;
  std::vector<std::string> globals;  ///< "name=value" for every identifier
  bool operator==(const ChainRecord&) const = default;
};

/// Every name a chain's scripts mention.  Any global a chain sets is among
/// them; a source that does not even lex sets none.
inline std::set<std::string> identifiers(const std::vector<std::string>& chain) {
  std::set<std::string> names;
  for (const std::string& source : chain) {
    try {
      for (const web::js::Token& token : web::js::tokenize(source)) {
        if (token.type == web::js::TokenType::kIdentifier) names.insert(token.text);
      }
    } catch (const web::js::JsError&) {
    }
  }
  return names;
}

/// Runs a chain of scripts in one `Runner` (js::Interpreter, or the
/// reference evaluator's ChainRunner), as one page would.
template <typename Runner = web::js::Interpreter>
ChainRecord run_chain(const std::vector<std::string>& chain,
                      std::uint64_t budget, std::uint64_t seed) {
  LoggingHost host(seed);
  Runner interpreter(host, budget);
  ChainRecord record;
  for (const std::string& source : chain) {
    const web::js::RunResult result = interpreter.run(source);
    record.scripts.push_back(
        {result.ops, result.completed, result.error, host.take_log()});
  }
  record.total_ops = interpreter.total_ops();
  for (const std::string& name : identifiers(chain)) {
    record.globals.push_back(name + "=" + render(interpreter.global(name)));
  }
  return record;
}

/// The Table-3 pages: the mobile benchmark, then the full one.
inline std::vector<corpus::PageSpec> table3_pages() {
  std::vector<corpus::PageSpec> pages = corpus::mobile_benchmark();
  for (corpus::PageSpec& spec : corpus::full_benchmark()) {
    pages.push_back(std::move(spec));
  }
  return pages;
}

/// A corpus page's scripts: its inline scripts, then its external ones, in
/// document order.
inline std::vector<std::string> page_scripts(const corpus::PageSpec& spec,
                                             std::uint64_t seed) {
  net::WebServer server;
  const std::string url = corpus::PageGenerator(seed).host_page(spec, server);
  const web::ParsedHtml page = web::parse_html(server.find(url)->body);
  std::vector<std::string> chain = page.inline_scripts;
  for (const web::ResourceRef& ref : page.references) {
    if (ref.kind != net::ResourceKind::kJs) continue;
    if (const net::Resource* script = server.find(ref.url)) {
      chain.push_back(script->body);
    }
  }
  return chain;
}

}  // namespace eab::test
