// The HTML and CSS front end as it ran before the slice-based rewrite, kept
// as the oracle for tests/web_parse_oracle_test.cpp.
//
// reference_web.cpp holds that code verbatim apart from its namespace: the
// char-at-a-time tokenizer with its own token type, the tree builder that
// takes the whole token vector, DomTree::signature's copy-and-sort of each
// element's attributes, and css.cpp's scanner and parser.  It builds the
// same public result types (ParsedHtml, DomTree, StyleSheet) as src/web.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "web/css.hpp"
#include "web/dom.hpp"
#include "web/html_parser.hpp"

namespace eab::test::reference_web {

using web::CssDeclaration;
using web::CssRule;
using web::CssSelector;
using web::CssSimpleSelector;
using web::DomNode;
using web::DomTree;
using web::ParsedHtml;
using web::StyleSheet;

/// One lexical token of an HTML document.
struct HtmlToken {
  enum class Type { kStartTag, kEndTag, kText, kComment, kDoctype };

  Type type = Type::kText;
  std::string name;  ///< tag name, lower-cased (start/end tags only)
  std::vector<std::pair<std::string, std::string>> attrs;
  std::string text;  ///< text/comment/doctype payload
  bool self_closing = false;
};

/// Tokenizes an entire document.
std::vector<HtmlToken> tokenize_html(std::string_view html);

/// Parses a full document.
ParsedHtml parse_html(std::string_view html);

/// Appends nodes parsed from an HTML fragment under `parent` and merges any
/// discovered references/scripts into `out` (document.write path).
void parse_html_fragment(std::string_view fragment, DomNode& parent,
                         ParsedHtml& out);

/// DomTree::signature as it was: tags, sorted attributes, text lengths.
std::string signature(const DomTree& tree);

/// Cheap reference scan: url(...) bodies and @import targets, in order.
std::vector<std::string> scan_css_urls(std::string_view css);

/// Full parse.
StyleSheet parse_css(std::string_view css);

}  // namespace eab::test::reference_web
