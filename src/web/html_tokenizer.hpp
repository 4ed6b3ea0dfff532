// HTML tokenizer.
//
// A pragmatic HTML5-flavoured tokenizer: tags with quoted/unquoted
// attributes, comments, doctype, and raw-text handling for <script> and
// <style> contents (their bodies are emitted as a single text token and are
// never tag-scanned, matching real tokenizer treatment of CDATA-ish
// elements).  Malformed input never throws — unclosed constructs are
// recovered the way browsers recover, because the corpus generator and the
// failure-injection tests both feed imperfect markup.
//
// The tokenizer streams: HtmlTokenizer::next() cuts one token at a time
// straight out of the document, and the tree builder (html_parser.cpp)
// consumes it and moves its strings into the DOM.  It moves over whole
// slices of the input, never one pushed char at a time: a text run ends at
// the next '<' that opens a construct (string_view::find), a quoted
// attribute value ends at its quote, a raw-text body or comment ends at the
// first case-insensitive match of its terminator, whose first byte is never
// a letter and is found with find() before the rest is compared.  Names are
// cut as one slice and lower-cased.  Byte classes come from web/ascii.hpp,
// the "C" locale's rules as constexpr tables.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eab::web {

/// One lexical token of an HTML document.
struct HtmlToken {
  enum class Type { kStartTag, kEndTag, kText, kComment, kDoctype };

  Type type = Type::kText;
  std::string name;  ///< tag name, lower-cased (start/end tags only)
  std::vector<std::pair<std::string, std::string>> attrs;
  std::string text;  ///< text/comment/doctype payload
  bool self_closing = false;
};

/// Cuts tokens from a document one at a time.  The document must outlive
/// the tokenizer.
class HtmlTokenizer {
 public:
  explicit HtmlTokenizer(std::string_view html) : html_(html) {}

  /// Overwrites `token` with the next token; false once the document is
  /// exhausted.  A caller may move strings out of the token between calls.
  bool next(HtmlToken& token);

 private:
  /// What follows a <script> or <style> start tag.
  enum class Raw { kNone, kBody, kEndTag };

  std::string_view html_;
  std::size_t pos_ = 0;
  Raw raw_ = Raw::kNone;
  std::string_view raw_tag_;  ///< "script" or "style" while raw_ != kNone
};

/// Tokenizes an entire document: HtmlTokenizer::next() until exhausted.
std::vector<HtmlToken> tokenize_html(std::string_view html);

}  // namespace eab::web
