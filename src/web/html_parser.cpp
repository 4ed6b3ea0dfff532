#include "web/html_parser.hpp"

#include <algorithm>
#include <array>

#include "web/ascii.hpp"
#include "web/html_tokenizer.hpp"

namespace eab::web {
namespace {

bool is_void_element(std::string_view tag) {
  static constexpr std::array<std::string_view, 14> kVoid = {
      "area", "base", "br",    "col",   "embed",  "hr",    "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  return std::find(kVoid.begin(), kVoid.end(), tag) != kVoid.end();
}

bool is_whitespace_only(std::string_view text) {
  return std::all_of(text.begin(), text.end(), ascii::is_space);
}

/// Extracts references/scripts from one element as it is inserted.
/// References with empty URLs (src="" and friends) are dropped here — they
/// can never be fetched and would otherwise leak to every consumer.
void harvest(const DomNode& node, ParsedHtml& out) {
  auto add_ref = [&out](const std::string& url, net::ResourceKind kind) {
    if (!url.empty()) out.references.push_back({url, kind});
  };
  const std::string& tag = node.tag();
  if (tag == "img") {
    add_ref(node.attr("src"), net::ResourceKind::kImage);
  } else if (tag == "script") {
    add_ref(node.attr("src"), net::ResourceKind::kJs);
  } else if (tag == "link") {
    if (node.attr("rel") == "stylesheet") {
      add_ref(node.attr("href"), net::ResourceKind::kCss);
    }
  } else if (tag == "embed") {
    add_ref(node.attr("src"), net::ResourceKind::kFlash);
  } else if (tag == "object") {
    add_ref(node.attr("data"), net::ResourceKind::kFlash);
  } else if (tag == "iframe") {
    add_ref(node.attr("src"), net::ResourceKind::kHtml);
  } else if (tag == "a") {
    const std::string& href = node.attr("href");
    if (!href.empty()) out.secondary_urls.push_back(href);
  }
}

/// Shared tree-construction pass used for documents and fragments: takes
/// each token as the tokenizer cuts it and moves its strings into the DOM.
void build_tree(std::string_view html, DomNode& root, ParsedHtml& out) {
  std::vector<DomNode*> stack{&root};
  HtmlTokenizer tokenizer(html);
  HtmlToken token;

  while (tokenizer.next(token)) {
    DomNode& parent = *stack.back();
    switch (token.type) {
      case HtmlToken::Type::kDoctype:
        break;  // no DOM node
      case HtmlToken::Type::kComment:
        break;  // comments carry no layout or fetch information here
      case HtmlToken::Type::kText: {
        // Inside <script>, the body is an inline script, not page text.
        if (parent.tag() == "script" && !parent.has_attr("src")) {
          out.inline_scripts.push_back(token.text);
          parent.append_child(DomNode::text(std::move(token.text)));
          break;
        }
        if (is_whitespace_only(token.text)) break;
        out.text_bytes += token.text.size();
        parent.append_child(DomNode::text(std::move(token.text)));
        break;
      }
      case HtmlToken::Type::kStartTag: {
        DomNode& inserted = parent.append_child(
            DomNode::element(std::move(token.name), std::move(token.attrs)));
        harvest(inserted, out);
        if (!token.self_closing && !is_void_element(inserted.tag())) {
          stack.push_back(&inserted);
        }
        break;
      }
      case HtmlToken::Type::kEndTag: {
        // Pop to the matching open element; ignore stray end tags.
        for (std::size_t i = stack.size(); i-- > 1;) {
          if (stack[i]->tag() == token.name) {
            stack.resize(i);
            break;
          }
        }
        break;
      }
    }
  }
}

}  // namespace

ParsedHtml parse_html(std::string_view html) {
  ParsedHtml out;
  build_tree(html, out.dom.root(), out);
  return out;
}

void parse_html_fragment(std::string_view fragment, DomNode& parent,
                         ParsedHtml& out) {
  build_tree(fragment, parent, out);
}

}  // namespace eab::web
