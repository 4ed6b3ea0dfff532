// Differential oracle for the slice-based web front end: parse_html,
// parse_html_fragment, DomTree::signature, scan_css_urls and parse_css
// against the char-at-a-time code they replaced (support/reference_web,
// kept verbatim).
//
// For HTML both sides must agree on the DOM signature (the reference's
// tree signed by the old DomTree::signature), the references (url and kind,
// in order), the inline scripts, the secondary URLs and the text bytes.  For
// CSS on the scanned URL list and on every rule, selector step, declaration,
// import and url_ref of the parsed sheet.  Inputs: every Table-3 page x 4
// spec_variants x seeds 1-3 (documents, sheets and each document.write
// fragment their scripts emit), every 97th-byte prefix of the seed-1
// documents and sheets, the fuzz soups, and hand-written edge cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/generator.hpp"
#include "corpus/page_spec.hpp"
#include "net/web_server.hpp"
#include "support/fuzz_inputs.hpp"
#include "support/js_chain.hpp"
#include "support/reference_web.hpp"
#include "web/css.hpp"
#include "web/html_parser.hpp"
#include "web/js.hpp"

namespace eab::web {
namespace {

namespace ref = test::reference_web;

constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr std::size_t kPrefixStride = 97;

/// Appends `text` length-prefixed, so a rendering is unambiguous whatever
/// bytes the fields hold.
void field(std::string& out, std::string_view text) {
  out += std::to_string(text.size());
  out += ':';
  out += text;
  out += ' ';
}

/// Everything a caller of parse_html can observe except the tree itself,
/// which is compared through its signature.
std::string render_extracts(const ParsedHtml& parsed) {
  std::string out;
  for (const ResourceRef& ref : parsed.references) {
    out += "ref ";
    field(out, ref.url);
    out += std::to_string(static_cast<int>(ref.kind)) + '\n';
  }
  for (const std::string& script : parsed.inline_scripts) {
    out += "script ";
    field(out, script);
    out += '\n';
  }
  for (const std::string& url : parsed.secondary_urls) {
    out += "anchor ";
    field(out, url);
    out += '\n';
  }
  out += "text_bytes " + std::to_string(parsed.text_bytes) + '\n';
  return out;
}

std::string render(const StyleSheet& sheet) {
  std::string out;
  for (const CssRule& rule : sheet.rules) {
    out += "rule\n";
    for (const CssSelector& selector : rule.selectors) {
      out += " selector";
      for (const CssSimpleSelector& step : selector.steps) {
        out += " [";
        field(out, step.tag);
        field(out, step.id);
        for (const std::string& cls : step.classes) field(out, cls);
        out += ']';
      }
      out += '\n';
    }
    for (const CssDeclaration& decl : rule.declarations) {
      out += " decl ";
      field(out, decl.property);
      field(out, decl.value);
      out += '\n';
    }
  }
  for (const std::string& import : sheet.imports) {
    out += "import ";
    field(out, import);
    out += '\n';
  }
  for (const std::string& url : sheet.url_refs) {
    out += "url ";
    field(out, url);
    out += '\n';
  }
  return out;
}

std::string render(const std::vector<std::string>& urls) {
  std::string out;
  for (const std::string& url : urls) field(out, url);
  return out;
}

/// Both parses of one document or fragment agree.
void expect_same_parse(const ParsedHtml& got, const ParsedHtml& want,
                       std::string_view input, const std::string& label) {
  EXPECT_EQ(got.dom.signature(), ref::signature(want.dom))
      << label << "\ninput: " << input;
  EXPECT_EQ(render_extracts(got), render_extracts(want))
      << label << "\ninput: " << input;
}

void expect_same_html(std::string_view html, const std::string& label) {
  expect_same_parse(parse_html(html), ref::parse_html(html), html, label);
}

void expect_same_fragment(std::string_view fragment, const std::string& label) {
  ParsedHtml got;
  ParsedHtml want;
  parse_html_fragment(fragment, got.dom.root(), got);
  ref::parse_html_fragment(fragment, want.dom.root(), want);
  expect_same_parse(got, want, fragment, label);
}

void expect_same_css(std::string_view css, const std::string& label) {
  EXPECT_EQ(render(scan_css_urls(css)), render(ref::scan_css_urls(css)))
      << label << "\ninput: " << css;
  EXPECT_EQ(render(parse_css(css)), render(ref::parse_css(css)))
      << label << "\ninput: " << css;
}

/// Collects document.write output; everything else is a no-op.
class WriteCollector : public js::JsHost {
 public:
  void document_write(const std::string& html) override {
    writes.push_back(html);
  }
  void request_resource(const std::string&, net::ResourceKind) override {}
  double random() override { return 0.5; }

  std::vector<std::string> writes;
};

/// One generated page: its document, its sheets and the fragments its
/// scripts write, run in document order in one interpreter.
struct CorpusPage {
  std::string label;
  std::string html;
  std::vector<std::string> sheets;
  std::vector<std::string> fragments;
};

std::vector<CorpusPage> corpus_pages(std::uint64_t seed) {
  std::vector<CorpusPage> pages;
  for (const corpus::PageSpec& page : test::table3_pages()) {
    for (const corpus::PageSpec& spec : corpus::spec_variants(page, 4, seed)) {
      net::WebServer server;
      const std::string url = corpus::PageGenerator(seed).host_page(spec, server);
      CorpusPage out;
      out.label = spec.site + " seed " + std::to_string(seed);
      out.html = server.find(url)->body;
      const ParsedHtml parsed = parse_html(out.html);
      WriteCollector host;
      js::Interpreter interpreter(host);
      for (const std::string& script : parsed.inline_scripts) {
        interpreter.run(script);
      }
      for (const ResourceRef& ref : parsed.references) {
        const net::Resource* resource = server.find(ref.url);
        if (resource == nullptr) continue;
        if (ref.kind == net::ResourceKind::kCss) out.sheets.push_back(resource->body);
        if (ref.kind == net::ResourceKind::kJs) interpreter.run(resource->body);
      }
      out.fragments = std::move(host.writes);
      pages.push_back(std::move(out));
    }
  }
  return pages;
}

class CorpusOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorpusOracle, DocumentsSheetsAndFragments) {
  std::size_t fragments = 0;
  std::size_t sheets = 0;
  for (const CorpusPage& page : corpus_pages(GetParam())) {
    expect_same_html(page.html, page.label);
    for (const std::string& sheet : page.sheets) expect_same_css(sheet, page.label);
    for (const std::string& fragment : page.fragments) {
      expect_same_fragment(fragment, page.label + " document.write");
    }
    fragments += page.fragments.size();
    sheets += page.sheets.size();
  }
  // Every page writes at least its inline promo and one footer per script.
  EXPECT_GE(fragments, 80u);
  EXPECT_GE(sheets, 80u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusOracle, ::testing::ValuesIn(kSeeds));

// Truncated documents and sheets end inside every kind of construct: a tag,
// an attribute value, a reference, a raw-text body, a comment, a rule.  The
// cost is quadratic in the page size (seed 1 alone parses ~1.5 GB per side),
// so the prefixes cover the seed-1 pages, split over kPrefixShards tests
// that ctest runs in parallel.
constexpr int kPrefixShards = 4;

class PrefixOracle : public ::testing::TestWithParam<int> {};

TEST_P(PrefixOracle, EveryNinetySeventhBytePrefix) {
  const std::vector<CorpusPage> pages = corpus_pages(1);
  for (std::size_t i = static_cast<std::size_t>(GetParam()); i < pages.size();
       i += kPrefixShards) {
    const CorpusPage& page = pages[i];
    const std::string_view html = page.html;
    for (std::size_t n = kPrefixStride; n < html.size(); n += kPrefixStride) {
      expect_same_html(html.substr(0, n),
                       page.label + " prefix " + std::to_string(n));
      if (HasFailure()) return;
    }
    for (const std::string& sheet_body : page.sheets) {
      const std::string_view sheet = sheet_body;
      for (std::size_t n = kPrefixStride; n < sheet.size(); n += kPrefixStride) {
        expect_same_css(sheet.substr(0, n),
                        page.label + " sheet prefix " + std::to_string(n));
        if (HasFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PrefixOracle, ::testing::Range(0, kPrefixShards));

class FuzzOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzOracle, SoupsAndMutations) {
  const std::uint64_t seed = GetParam();
  std::vector<std::string> markup = test::html_soups(seed);
  for (std::string& input : test::html_mutations(seed)) {
    markup.push_back(std::move(input));
  }
  std::vector<std::string> sheets = test::css_fuzz_inputs(seed);
  // Every soup through both front ends: markup as CSS and CSS as markup
  // too, and the JavaScript soups as either.
  for (std::string& input : test::js_fuzz_inputs(seed)) {
    markup.push_back(input);
    sheets.push_back(std::move(input));
  }
  for (const std::string& input : markup) {
    expect_same_html(input, "markup soup, seed " + std::to_string(seed));
    expect_same_fragment(input, "markup soup fragment");
    expect_same_css(input, "markup soup as CSS");
  }
  for (const std::string& input : sheets) {
    expect_same_css(input, "CSS soup, seed " + std::to_string(seed));
    expect_same_html(input, "CSS soup as markup");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 10, 20, 30, 100, 200,
                                           300));

TEST(HandWrittenOracle, Markup) {
  const std::string kCases[] = {
      // Raw-text elements: case-insensitive close, a close tag with a space
      // (not a close), self-closed and unterminated bodies.
      "<script>var a = '</p>';</SCRIPT >after</script>tail",
      "<ScRiPt>if (a < b) x = \"<div>\";</sCrIpT>y",
      "<STYLE>p { color: red }</style><p>t</p>",
      "<script src='a.js'>not inline</script><script></script>",
      "<script/>x</script>", "<style/>y", "<script>never closed",
      "<style>", "<script>a</script", "<script>a</scrip", "<script",
      // Comments and doctypes.
      "<!-- unterminated", "<!---->x<!-- a -- b -->y<!-->z",
      "<!DOCTYPE html><p>x", "<!DocType>", "<!doctype", "<!doc>", "<!x>",
      "<!-- </script> --><script><!-- x --></script>",
      // Literal '<'.
      "a < b", "a <", "<", "<<p>>", "</", "</>", "</ p>x", "< p>", "<1>",
      "a<b", "x</p  y>z", "<p>a<</p>",
      // References in text and attributes.
      "<a href='&#x41;&#200;&amp&amp;&lt;&#;&#x;&#65'>&#x41;&#200;&amp x</a>",
      "<p title=\"&quot;&apos;&nbsp;&gt;\">&quot;&apos;&nbsp;&bogus;&#X4a;</p>",
      "<p>&#99999999;&#0;&#126;&#127;&#x7E;&#x7f;&amp;amp;&&;&#x4G;</p>",
      "<p>&averyveryverylongname; &am&amp;p; tail&</p>",
      // Unquoted, duplicate, bare and damaged attributes.
      "<img src=a.jpg SRC=b.jpg alt=x alt='y' width=1>",
      "<div a=1 a=2 b a=3 B=4>t</div>", "<a b=", "<a b='unterminated",
      "<a b", "<a b =  c d= 'e' f =\"g\">", "<a title='x>y' href=z>w</a>",
      "<a href=\"\">e</a><img src=''><script src=>s</script>",
      "<link rel=stylesheet href=s.css><link rel=STYLESHEET href=t.css>",
      "<a =b c>", "<a \"q\" r>", "<p =>x",
      // Stray '/' in tags.
      "<img / src='x' / >", "<br/ >", "<p / >x</p>", "<div/class=x>y",
      "<a/ href=h/>t", "<p/", "<br/",
      // Bytes >= 0x80 in names, values and text.
      "<d\xC3\xA9v cl\xC3\xA4ss=1>t</d\xC3\xA9v>", "<\xC3\xA9>",
      "<p \xC3\xA9=1 x\xC3\xA9y=2>\xC3\xA9</p>", "<img src=\xC3\xA9.jpg>",
      // Every whitespace class: separators, value ends, blank text.
      "<p\vclass='a'\fid=b>\v\f</p>", "<img src=a.jpg\vwidth=3>",
      "<img src=a.jpg\fwidth=3>", "<img\r\nsrc=a.jpg\twidth=3\r>",
      "<p>\v</p><p>\f</p><p>\r\n\t </p>", "<img src\v=\va.jpg>",
      "<br/\v>", "</p\v>",
      // Nesting and recovery.
      "<p>a<b>b</p>c</b>", "<b><i>x</b></i>", "</div><p>ok</p></span>",
      "<ul><li>a<li>b</ul>", "<iframe src=f.html></iframe><embed src=e.swf>"
      "<object data=o.swf></object>",
      // Tag names with the name-char punctuation.
      "<my-el:x_y a-b:c_d=1>t</MY-EL:X_Y>", "<h1>x</H1>",
  };
  for (const std::string& input : kCases) {
    expect_same_html(input, "hand-written");
    expect_same_fragment(input, "hand-written fragment");
  }
}

TEST(HandWrittenOracle, Stylesheets) {
  const std::string kCases[] = {
      // Comments.
      "/* unterminated", "a{b:c}/*", "/*/ p{x:y}", "p{x:y}/**/q{z:w}",
      "a//**/*b{c:d}", "@media x { a//**/*b{c:d} }", "/", "p{a:b}/",
      "p{x:y}//q{z:w}", "/*a*//*b*/p{c:d}",
      // url() in every spelling.
      "URL(x.png)", "uRl( 'q.png' ) u", "url(\"a b.png\")", "url()",
      "url(   )", "url(x", "url('x", "url(\"x\" y)", "p{b:url(a.png) url(b.png)}",
      "p{b:URL( c.png )}", "urlx(y)", "u", "uurl(z)",
      // @import.
      "@IMPORT \"x.css\";", "@import url(y.css) screen;", "@import",
      "@import ;", "@Import 'z.css'", "@import url(", "@importurl(w.css);",
      "p{a:b} @import \"late.css\"; q{c:d}",
      // At-rules and nesting.
      "@media a { @media b { p { c: d } } q { e: f } } r{g:h}",
      "@media screen { p { margin: 0; } ", "@media {", "@", "@media",
      "@font-face { font-family: x; src: url(f.woff) }",
      "@media x { @import 'in.css'; p{a:b} }", "@media x{}",
      // Selectors.
      "DIV.Hero#Nav:hover > P.x, , *.y, #z{a:b;c:;:d; e : f url(w.png) }",
      "p\v.a{x:1}", "p\f>q{x:1}", "p\r\nq\t{x:1}", "*{a:b}", "#{a:b}",
      ".{a:b}", "a.b.c#d#e:f:g{h:i}", "\xC3\xA9.x{a:b}", "a[href]{b:c}",
      ",{a:b}", " , p ,{a:b}", "a>b>c{d:e}",
      // Blocks and declarations.
      "}{", "{", "a{", "a{b", "{a:b}", "a{b:c", "a{;;;}", "a{b:c:d}",
      "a{\vb\v:\fc\f}", "a{ : }", "a{b c d}", "p{a:b}}q{c:d}",
  };
  for (const std::string& input : kCases) expect_same_css(input, "hand-written");
}

}  // namespace
}  // namespace eab::web
