#include "web/html_tokenizer.hpp"

#include <algorithm>

#include "web/ascii.hpp"

namespace eab::web {
namespace {

constexpr std::size_t npos = std::string_view::npos;

bool is_name_char(char c) {
  return ascii::is_alnum(c) || c == '-' || c == '_' || c == ':';
}

/// The first case-insensitive occurrence of `needle` in `text` at or after
/// `from`, or npos.  needle[0] must not be a letter, so it is found exactly
/// with find() and only the rest is compared case-insensitively.
std::size_t find_ci(std::string_view text, std::size_t from,
                    std::string_view needle) {
  for (;; ++from) {
    from = text.find(needle[0], from);
    if (from == npos) return npos;
    if (ascii::istarts_with(text.substr(from), needle)) return from;
  }
}

/// The character a reference name (between '&' and ';') stands for, or 0
/// when it is not one we decode.
char decode_reference(std::string_view name) {
  if (name == "amp") return '&';
  if (name == "lt") return '<';
  if (name == "gt") return '>';
  if (name == "quot") return '"';
  if (name == "apos") return '\'';
  if (name == "nbsp") return ' ';
  if (name.empty() || name[0] != '#') return 0;
  long code = 0;
  if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
    for (const char c : name.substr(2)) {
      if (!ascii::is_xdigit(c)) return 0;
      code = code * 16 +
             (ascii::is_digit(c) ? c - '0' : ascii::to_lower(c) - 'a' + 10);
    }
  } else {
    if (name.size() < 2) return 0;
    for (const char c : name.substr(1)) {
      if (!ascii::is_digit(c)) return 0;
      code = code * 10 + (c - '0');
    }
  }
  // Outside printable ASCII the raw reference is kept.
  return code <= 0 || code > 126 ? 0 : static_cast<char>(code);
}

/// Decodes the handful of character references that matter in practice
/// (named: amp/lt/gt/quot/apos/nbsp; numeric: &#NN; and &#xHH;). Unknown
/// references pass through literally, like browsers in quirks handling.
/// Runs between ampersands are appended whole.
std::string decode_entities(std::string_view text) {
  std::size_t amp = text.find('&');
  if (amp == npos) return std::string(text);
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (amp != npos) {
    out.append(text.substr(i, amp - i));
    i = amp + 1;
    const std::size_t semi = text.find(';', i);
    const char decoded = semi == npos || semi - amp > 10
                             ? 0
                             : decode_reference(text.substr(i, semi - i));
    if (decoded != 0) {
      out.push_back(decoded);
      i = semi + 1;
    } else {
      out.push_back('&');  // unknown or malformed: literal ampersand
    }
    amp = text.find('&', i);
  }
  out.append(text.substr(i));
  return out;
}

/// Slice-level cursor moves over one document; `pos` is the tokenizer's.
struct Scan {
  std::string_view html;
  std::size_t& pos;

  bool done() const { return pos >= html.size(); }
  std::string_view rest() const { return html.substr(pos); }

  void skip_space() { pos = ascii::skip_space(html, pos); }

  std::string_view take_name() {
    const std::size_t start = pos;
    while (pos < html.size() && is_name_char(html[pos])) ++pos;
    return html.substr(start, pos - start);
  }

  /// Everything before the first case-insensitive occurrence of `needle`,
  /// which is consumed too; the rest of the document if it is absent.
  std::string_view take_until(std::string_view needle) {
    const std::size_t at = std::min(find_ci(html, pos, needle), html.size());
    const std::string_view before = html.substr(pos, at - pos);
    pos = std::min(at + needle.size(), html.size());
    return before;
  }

  /// Whether the '<' at `at` opens a comment, doctype, end tag or start
  /// tag; otherwise it is literal text (e.g. "a < b").
  bool opens_construct(std::size_t at) const {
    const std::string_view from = html.substr(at);
    return ascii::istarts_with(from, "<!--") ||
           ascii::istarts_with(from, "<!doctype") ||
           (from.size() > 1 && (from[1] == '/' || ascii::is_alpha(from[1])));
  }

  /// Parses the attribute list of a start tag; leaves the cursor after '>'.
  void attributes(HtmlToken& token) {
    while (!done()) {
      skip_space();
      if (done()) return;
      if (html[pos] == '>') {
        ++pos;
        return;
      }
      if (html[pos] == '/') {
        ++pos;
        skip_space();
        if (!done() && html[pos] == '>') {
          ++pos;
          token.self_closing = true;
          return;
        }
        continue;  // stray slash: ignore, like browsers do
      }
      const std::string_view name = take_name();
      if (name.empty()) {
        ++pos;  // unparseable character inside a tag: drop it
        continue;
      }
      std::string_view value;
      skip_space();
      if (!done() && html[pos] == '=') {
        ++pos;
        skip_space();
        if (!done() && (html[pos] == '"' || html[pos] == '\'')) {
          const char quote = html[pos++];
          const std::size_t end = std::min(html.find(quote, pos), html.size());
          value = html.substr(pos, end - pos);
          pos = std::min(end + 1, html.size());  // past the closing quote
        } else {
          const std::size_t start = pos;
          while (!done() && !ascii::is_space(html[pos]) && html[pos] != '>') {
            ++pos;
          }
          value = html.substr(start, pos - start);
        }
      }
      token.attrs.emplace_back(ascii::lowered(name), decode_entities(value));
    }
  }
};

}  // namespace

bool HtmlTokenizer::next(HtmlToken& token) {
  token.name.clear();
  token.attrs.clear();
  token.text.clear();
  token.self_closing = false;
  Scan scan{html_, pos_};

  // script/style bodies are raw text up to the matching end tag.
  if (raw_ == Raw::kBody) {
    raw_ = Raw::kEndTag;
    const std::string_view body =
        scan.take_until(raw_tag_ == "script" ? "</script>" : "</style>");
    if (!body.empty()) {
      token.type = HtmlToken::Type::kText;
      token.text.assign(body);
      return true;
    }
  }
  if (raw_ == Raw::kEndTag) {
    raw_ = Raw::kNone;
    token.type = HtmlToken::Type::kEndTag;
    token.name.assign(raw_tag_);
    return true;
  }
  if (scan.done()) return false;

  // A text run: up to the next '<' that opens a construct.
  const std::size_t text_start = pos_;
  while (!scan.done()) {
    if (html_[pos_] != '<') {
      pos_ = std::min(html_.find('<', pos_), html_.size());
      continue;
    }
    if (scan.opens_construct(pos_)) break;
    ++pos_;  // literal '<'
  }
  if (pos_ > text_start) {
    token.type = HtmlToken::Type::kText;
    token.text = decode_entities(html_.substr(text_start, pos_ - text_start));
    return true;
  }

  const std::string_view at = scan.rest();
  if (ascii::istarts_with(at, "<!--")) {
    pos_ += 4;
    token.type = HtmlToken::Type::kComment;
    token.text.assign(scan.take_until("-->"));
    return true;
  }
  if (ascii::istarts_with(at, "<!doctype")) {
    pos_ += 2;  // "<!"
    token.type = HtmlToken::Type::kDoctype;
    token.text.assign(scan.take_until(">"));
    return true;
  }
  if (at[1] == '/') {
    pos_ += 2;
    token.type = HtmlToken::Type::kEndTag;
    token.name = ascii::lowered(scan.take_name());
    scan.take_until(">");  // discard anything else inside the end tag
    return true;
  }
  ++pos_;  // '<' before a letter: a start tag
  token.type = HtmlToken::Type::kStartTag;
  token.name = ascii::lowered(scan.take_name());
  scan.attributes(token);
  if (!token.self_closing &&
      (token.name == "script" || token.name == "style")) {
    raw_ = Raw::kBody;
    raw_tag_ = token.name == "script" ? "script" : "style";
  }
  return true;
}

std::vector<HtmlToken> tokenize_html(std::string_view html) {
  std::vector<HtmlToken> tokens;
  HtmlTokenizer tokenizer(html);
  HtmlToken token;
  while (tokenizer.next(token)) tokens.push_back(std::move(token));
  return tokens;
}

}  // namespace eab::web
