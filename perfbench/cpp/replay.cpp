#include "replay.hpp"

#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "browser/layout.hpp"
#include "corpus/generator.hpp"
#include "net/web_server.hpp"
#include "util/rng.hpp"
#include "web/css.hpp"
#include "web/html_parser.hpp"
#include "web/js.hpp"

namespace perfbench {
namespace {

using namespace eab;

/// Captures what scripts hand the browser, like PageLoad's JsHost side.
class ReplayHost : public web::js::JsHost {
 public:
  explicit ReplayHost(std::uint64_t seed) : rng_(seed) {}

  void document_write(const std::string& html) override {
    writes.push_back(html);
  }
  void request_resource(const std::string& url,
                        net::ResourceKind kind) override {
    requests.emplace_back(url, kind);
  }
  double random() override { return rng_.uniform(); }

  std::vector<std::string> writes;
  std::vector<std::pair<std::string, net::ResourceKind>> requests;

 private:
  Rng rng_;
};

class Replay {
 public:
  Replay(const net::WebServer& server, const browser::PipelineConfig& pipeline,
         std::uint64_t seed, SpanRecorder& spans)
      // PageLoad seeds its script randomness with seed ^ 0x9E3779B9.
      : server_(server),
        pipeline_(pipeline),
        spans_(spans),
        host_(seed ^ 0x9E3779B9),
        interpreter_(host_) {}

  ReplayResult run(const std::string& main_url) {
    const net::Resource* main = server_.find(main_url);
    if (main == nullptr) return result_;
    requested_.insert(main_url);
    web::ParsedHtml page;
    {
      SpanScope span(spans_, "web.html.parse");
      page = web::parse_html(main->body);
    }
    discover(page, page.dom.root());
    while (!external_scripts_.empty()) {
      const net::Resource* script = external_scripts_.front();
      external_scripts_.pop_front();
      run_script(script->body, page.dom.root());
    }
    {
      SpanScope span(spans_, "browser.layout");
      browser::estimate_geometry(page.dom.root(), pipeline_.viewport);
    }
    result_.dom_signature = page.dom.signature();
    return result_;
  }

 private:
  void discover(const web::ParsedHtml& harvest, web::DomNode& root) {
    for (const web::ResourceRef& ref : harvest.references) {
      request(ref.url, ref.kind);
    }
    for (const std::string& script : harvest.inline_scripts) {
      run_script(script, root);
    }
  }

  void request(const std::string& url, net::ResourceKind kind) {
    if (kind != net::ResourceKind::kCss && kind != net::ResourceKind::kJs) {
      return;  // images and media are only sized, never parsed
    }
    if (!requested_.insert(url).second) return;
    const net::Resource* resource = server_.find(url);
    if (resource == nullptr) return;
    if (kind == net::ResourceKind::kJs) {
      external_scripts_.push_back(resource);
      return;
    }
    if (pipeline_.mode == browser::PipelineMode::kEnergyAware &&
        pipeline_.defer_css_parse) {
      SpanScope span(spans_, "web.css.scan");
      web::scan_css_urls(resource->body);
    }
    SpanScope span(spans_, "web.css.parse");
    web::parse_css(resource->body);
  }

  void run_script(const std::string& source, web::DomNode& root) {
    {
      // js::parse tokenizes first, so this covers tokenize + parse.
      SpanScope span(spans_, "web.js.parse");
      try {
        web::js::parse(source);
      } catch (const web::js::JsError&) {
        // Interpreter::run reports the same error below.
      }
    }
    host_.writes.clear();
    host_.requests.clear();
    web::js::RunResult run;
    {
      SpanScope span(spans_, "web.js.run");
      run = interpreter_.run(source);
    }
    result_.js_ops += run.ops;
    auto writes = std::move(host_.writes);
    auto requests = std::move(host_.requests);
    for (const auto& [url, kind] : requests) request(url, kind);
    for (const std::string& fragment : writes) {
      web::ParsedHtml harvest;
      {
        SpanScope span(spans_, "web.html.parse");
        web::parse_html_fragment(fragment, root, harvest);
      }
      discover(harvest, root);
    }
  }

  const net::WebServer& server_;
  const browser::PipelineConfig& pipeline_;
  SpanRecorder& spans_;
  ReplayHost host_;
  web::js::Interpreter interpreter_;
  std::set<std::string> requested_;
  std::deque<const net::Resource*> external_scripts_;
  ReplayResult result_;
};

}  // namespace

ReplayResult replay_load(const corpus::PageSpec& spec, std::uint64_t seed,
                         const browser::PipelineConfig& pipeline,
                         SpanRecorder& spans) {
  SpanScope root(spans, "replay");
  net::WebServer server;
  std::string url;
  {
    SpanScope span(spans, "corpus.generate");
    url = corpus::PageGenerator(seed).host_page(spec, server);
  }
  ReplayResult result = Replay(server, pipeline, seed, spans).run(url);
  result.total_bytes = server.total_bytes();
  return result;
}

}  // namespace perfbench
