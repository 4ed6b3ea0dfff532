// Fuzz-style robustness sweeps for the content engines.
//
// The parsers consume whatever a server sends.  These property tests feed
// structured-random and mutated inputs into the HTML/CSS/JS front ends and
// assert the engine-level invariants: never crash, never loop, and always
// produce a usable (possibly empty) result.
#include <gtest/gtest.h>

#include "browser/text_render.hpp"
#include "net/fault.hpp"
#include "net/http_client.hpp"
#include "support/fuzz_inputs.hpp"
#include "util/rng.hpp"
#include "web/css.hpp"
#include "web/html_parser.hpp"
#include "web/js.hpp"

namespace eab::web {
namespace {

using test::mutate;
using test::random_soup;

const char* const kValidHtml =
    "<!doctype html><html><head><title>t</title>"
    "<link rel='stylesheet' href='a.css'></head>"
    "<body><div class='x'><p>hello &amp; goodbye</p>"
    "<img src='i.jpg' width='10'><script>var a = 1 + 2;</script>"
    "<a href='n.html'>go</a></div></body></html>";

class HtmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HtmlFuzz, SoupNeverCrashesAndRendersSafely) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const std::string soup = random_soup(rng, 50 + rng.uniform_index(400));
    ParsedHtml parsed;
    ASSERT_NO_THROW(parsed = parse_html(soup));
    ASSERT_GE(parsed.dom.node_count(), 1u);
    // Downstream consumers must be able to walk whatever came out.
    browser::Viewport viewport;
    ASSERT_NO_THROW(browser::estimate_geometry(parsed.dom.root(), viewport));
    ASSERT_NO_THROW(browser::render_text(parsed.dom.root(), viewport,
                                         browser::RenderStyle::kFull, 50));
  }
}

TEST_P(HtmlFuzz, MutatedMarkupKeepsInvariants) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int round = 0; round < 40; ++round) {
    const std::string damaged = mutate(rng, kValidHtml);
    ParsedHtml parsed;
    ASSERT_NO_THROW(parsed = parse_html(damaged));
    for (const auto& ref : parsed.references) {
      EXPECT_FALSE(ref.url.empty());
    }
    // The signature function must work on any tree shape.
    ASSERT_NO_THROW(parsed.dom.signature());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlFuzz, ::testing::Values(1, 2, 3, 4, 5));

class CssFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CssFuzz, SoupAndMutationsNeverCrash) {
  Rng rng(GetParam());
  const std::string valid_css =
      ".a, div#b .c { color: red; background: url(x.png); }"
      "@import url(y.css); @media screen { p { margin: 0; } }";
  for (int round = 0; round < 60; ++round) {
    const std::string input = round % 2 == 0
                                  ? random_soup(rng, 30 + rng.uniform_index(300))
                                  : mutate(rng, valid_css);
    ASSERT_NO_THROW(scan_css_urls(input));
    StyleSheet sheet;
    ASSERT_NO_THROW(sheet = parse_css(input));
    // Matching must be safe against any parsed rule set.
    const auto doc = parse_html("<div class='a'><p id='b'>x</p></div>");
    ASSERT_NO_THROW(matching_declarations(sheet, *doc.dom.find_first("p")));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CssFuzz, ::testing::Values(10, 20, 30));

class JsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// Host that tolerates anything the fuzzer-driven scripts do.
class NullHost : public js::JsHost {
 public:
  void document_write(const std::string&) override {}
  void request_resource(const std::string&, net::ResourceKind) override {}
  double random() override { return 0.5; }
};

TEST_P(JsFuzz, GarbageIsReportedNeverThrown) {
  NullHost host;
  js::Interpreter interp(host, 100'000);  // tight budget: loops get cut
  for (const std::string& input : test::js_fuzz_inputs(GetParam())) {
    js::RunResult result;
    ASSERT_NO_THROW(result = interp.run(input));
    // Either it completed, or it carries a diagnostic.
    EXPECT_TRUE(result.completed || !result.error.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsFuzz, ::testing::Values(100, 200, 300));

// --- network-layer truncation -------------------------------------------------
//
// The fuzz suites above damage inputs by hand; these tests damage them the
// way the network actually does — a FaultInjector cuts the body at a random
// wire offset inside a real fetch — and assert the same engine invariants on
// whatever partial payload the HTTP client delivers.

class NetworkTruncationFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Fetches `url` (hosted with `body`) under a truncate-everything plan and
  /// returns the partial body the client delivered.
  std::string truncated_fetch(const std::string& url, net::ResourceKind kind,
                              const std::string& body, std::uint64_t seed) {
    sim::Simulator sim;
    radio::RrcConfig rrc_config;
    radio::RadioPowerModel power;
    radio::LinkConfig link_config;
    net::WebServer server;
    net::Resource resource;
    resource.url = url;
    resource.kind = kind;
    resource.size = body.size();
    resource.body = body;
    server.host(resource);

    radio::RrcMachine rrc(sim, rrc_config, power);
    net::SharedLink link(sim, link_config.dch_bandwidth);
    net::FaultPlan plan;
    plan.seed = seed;
    plan.truncate_rate = 1.0;
    net::FaultInjector injector(sim, link, plan);
    net::HttpClient client(sim, server, link, rrc, link_config);
    client.set_fault_injector(&injector);

    net::FetchResult result;
    client.fetch(url, [&](const net::FetchResult& r) { result = r; });
    sim.run();
    EXPECT_EQ(result.status, net::FetchStatus::kTruncated);
    if (result.resource == nullptr) return {};
    EXPECT_LT(result.resource->body.size(), body.size());
    return result.resource->body;
  }
};

TEST_P(NetworkTruncationFuzz, HtmlSurvivesFetchParseLayout) {
  const std::string full = std::string(kValidHtml);
  for (int round = 0; round < 10; ++round) {
    const std::string partial = truncated_fetch(
        "http://t/" + std::to_string(round) + ".html", net::ResourceKind::kHtml,
        full, GetParam() + round);
    ParsedHtml parsed;
    ASSERT_NO_THROW(parsed = parse_html(partial));
    ASSERT_GE(parsed.dom.node_count(), 1u);
    browser::Viewport viewport;
    ASSERT_NO_THROW(browser::estimate_geometry(parsed.dom.root(), viewport));
    ASSERT_NO_THROW(browser::render_text(parsed.dom.root(), viewport,
                                         browser::RenderStyle::kFull, 50));
  }
}

TEST_P(NetworkTruncationFuzz, CssSurvivesFetchParseMatch) {
  const std::string full =
      ".a, div#b .c { color: red; background: url(x.png); }"
      "@import url(y.css); @media screen { p { margin: 0; } }";
  for (int round = 0; round < 10; ++round) {
    const std::string partial = truncated_fetch(
        "http://t/" + std::to_string(round) + ".css", net::ResourceKind::kCss,
        full, GetParam() + round);
    ASSERT_NO_THROW(scan_css_urls(partial));
    StyleSheet sheet;
    ASSERT_NO_THROW(sheet = parse_css(partial));
    const auto doc = parse_html("<div class='a'><p id='b'>x</p></div>");
    ASSERT_NO_THROW(matching_declarations(sheet, *doc.dom.find_first("p")));
  }
}

TEST_P(NetworkTruncationFuzz, JsSurvivesFetchAndExecution) {
  const std::string full(test::kValidJs);
  NullHost host;
  js::Interpreter interp(host, 100'000);
  for (int round = 0; round < 10; ++round) {
    const std::string partial = truncated_fetch(
        "http://t/" + std::to_string(round) + ".js", net::ResourceKind::kJs,
        full, GetParam() + round);
    js::RunResult result;
    ASSERT_NO_THROW(result = interp.run(partial));
    EXPECT_TRUE(result.completed || !result.error.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkTruncationFuzz,
                         ::testing::Values(1000, 2000, 3000));

TEST(HtmlEntities, DecodedInTextAndAttributes) {
  const auto parsed = parse_html(
      "<p title='a &amp; b'>1 &lt; 2 &gt; 0 &quot;q&quot; &#65;&#x42;"
      " &unknown; &nbsp;</p>");
  EXPECT_EQ(parsed.dom.root().text_content(),
            "1 < 2 > 0 \"q\" AB &unknown;  ");
  EXPECT_EQ(parsed.dom.find_first("p")->attr("title"), "a & b");
}

TEST(HtmlEntities, MalformedReferencesStayLiteral) {
  const auto parsed = parse_html("<p>fish &chips; 5&6 &#; &#xZZ; tail&</p>");
  EXPECT_EQ(parsed.dom.root().text_content(),
            "fish &chips; 5&6 &#; &#xZZ; tail&");
}

TEST(HtmlEntities, NumericOutOfAsciiKeptRaw) {
  const auto parsed = parse_html("<p>&#8364;</p>");  // euro sign
  EXPECT_EQ(parsed.dom.root().text_content(), "&#8364;");
}

}  // namespace
}  // namespace eab::web
