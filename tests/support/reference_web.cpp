// The pre-rewrite HTML tokenizer, tree builder, DomTree::signature and CSS
// scanner and parser, verbatim apart from their namespace and includes, and
// without StyleSheet's member functions, which src/web still defines (see
// reference_web.hpp).
#include "reference_web.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace eab::test::reference_web {

// ---- html_tokenizer.cpp ----------------------------------------------------

namespace {

char to_lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
         c == ':';
}

/// Cursor over the raw document with small parsing helpers.
class Cursor {
 public:
  explicit Cursor(std::string_view html) : html_(html) {}

  bool done() const { return pos_ >= html_.size(); }
  char peek() const { return html_[pos_]; }
  char take() { return html_[pos_++]; }
  std::size_t pos() const { return pos_; }

  bool starts_with(std::string_view prefix) const {
    if (pos_ + prefix.size() > html_.size()) return false;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      if (to_lower(html_[pos_ + i]) != to_lower(prefix[i])) return false;
    }
    return true;
  }

  void skip(std::size_t n) { pos_ = std::min(pos_ + n, html_.size()); }

  void skip_whitespace() {
    while (!done() && std::isspace(static_cast<unsigned char>(peek()))) take();
  }

  std::string take_name() {
    std::string name;
    while (!done() && is_name_char(peek())) name.push_back(to_lower(take()));
    return name;
  }

  /// Everything up to (not including) the first case-insensitive occurrence
  /// of `needle`; consumes the needle too. Consumes to end if absent.
  std::string take_until(std::string_view needle) {
    std::string out;
    while (!done()) {
      if (starts_with(needle)) {
        skip(needle.size());
        return out;
      }
      out.push_back(take());
    }
    return out;
  }

 private:
  std::string_view html_;
  std::size_t pos_ = 0;
};

/// Decodes the handful of character references that matter in practice
/// (named: amp/lt/gt/quot/apos/nbsp; numeric: &#NN; and &#xHH;). Unknown
/// references pass through literally, like browsers in quirks handling.
std::string decode_entities(std::string_view text) {
  if (text.find('&') == std::string_view::npos) return std::string(text);
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out.push_back(text[i++]);
      continue;
    }
    const std::size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out.push_back(text[i++]);
      continue;
    }
    const std::string_view name = text.substr(i + 1, semi - i - 1);
    if (name == "amp") {
      out.push_back('&');
    } else if (name == "lt") {
      out.push_back('<');
    } else if (name == "gt") {
      out.push_back('>');
    } else if (name == "quot") {
      out.push_back('"');
    } else if (name == "apos") {
      out.push_back('\'');
    } else if (name == "nbsp") {
      out.push_back(' ');
    } else if (!name.empty() && name[0] == '#') {
      long code = 0;
      bool valid = name.size() > 1;
      if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
        for (std::size_t k = 2; k < name.size(); ++k) {
          const char c = name[k];
          if (!std::isxdigit(static_cast<unsigned char>(c))) {
            valid = false;
            break;
          }
          code = code * 16 + (std::isdigit(static_cast<unsigned char>(c))
                                  ? c - '0'
                                  : std::tolower(c) - 'a' + 10);
        }
      } else {
        for (std::size_t k = 1; k < name.size(); ++k) {
          if (!std::isdigit(static_cast<unsigned char>(name[k]))) {
            valid = false;
            break;
          }
          code = code * 10 + (name[k] - '0');
        }
      }
      if (!valid || code <= 0 || code > 126) {
        out.push_back(text[i++]);  // outside ASCII: keep the raw reference
        continue;
      }
      out.push_back(static_cast<char>(code));
    } else {
      out.push_back(text[i++]);  // unknown entity: literal ampersand
      continue;
    }
    i = semi + 1;
  }
  return out;
}


/// Parses the attribute list of a start tag; leaves the cursor after '>'.
void parse_attributes(Cursor& cursor, HtmlToken& token) {
  while (!cursor.done()) {
    cursor.skip_whitespace();
    if (cursor.done()) return;
    if (cursor.peek() == '>') {
      cursor.take();
      return;
    }
    if (cursor.peek() == '/') {
      cursor.take();
      cursor.skip_whitespace();
      if (!cursor.done() && cursor.peek() == '>') {
        cursor.take();
        token.self_closing = true;
        return;
      }
      continue;  // stray slash: ignore, like browsers do
    }
    std::string name = cursor.take_name();
    if (name.empty()) {
      cursor.take();  // unparseable character inside a tag: drop it
      continue;
    }
    std::string value;
    cursor.skip_whitespace();
    if (!cursor.done() && cursor.peek() == '=') {
      cursor.take();
      cursor.skip_whitespace();
      if (!cursor.done() && (cursor.peek() == '"' || cursor.peek() == '\'')) {
        const char quote = cursor.take();
        while (!cursor.done() && cursor.peek() != quote) value.push_back(cursor.take());
        if (!cursor.done()) cursor.take();  // closing quote
      } else {
        while (!cursor.done() && !std::isspace(static_cast<unsigned char>(cursor.peek())) &&
               cursor.peek() != '>') {
          value.push_back(cursor.take());
        }
      }
    }
    token.attrs.emplace_back(std::move(name), decode_entities(value));
  }
}

}  // namespace

std::vector<HtmlToken> tokenize_html(std::string_view html) {
  std::vector<HtmlToken> tokens;
  Cursor cursor(html);
  std::string pending_text;

  auto flush_text = [&] {
    if (pending_text.empty()) return;
    HtmlToken token;
    token.type = HtmlToken::Type::kText;
    token.text = decode_entities(pending_text);
    pending_text.clear();
    tokens.push_back(std::move(token));
  };

  while (!cursor.done()) {
    if (cursor.peek() != '<') {
      pending_text.push_back(cursor.take());
      continue;
    }
    // '<' — decide what construct this opens.
    if (cursor.starts_with("<!--")) {
      flush_text();
      cursor.skip(4);
      HtmlToken token;
      token.type = HtmlToken::Type::kComment;
      token.text = cursor.take_until("-->");
      tokens.push_back(std::move(token));
      continue;
    }
    if (cursor.starts_with("<!doctype")) {
      flush_text();
      cursor.skip(2);  // "<!"
      HtmlToken token;
      token.type = HtmlToken::Type::kDoctype;
      token.text = cursor.take_until(">");
      tokens.push_back(std::move(token));
      continue;
    }
    if (cursor.starts_with("</")) {
      flush_text();
      cursor.skip(2);
      HtmlToken token;
      token.type = HtmlToken::Type::kEndTag;
      token.name = cursor.take_name();
      cursor.take_until(">");  // discard anything else inside the end tag
      tokens.push_back(std::move(token));
      continue;
    }
    // Possible start tag: '<' must be followed by a letter, otherwise it is
    // literal text (e.g. "a < b").
    if (cursor.pos() + 1 < html.size() &&
        std::isalpha(static_cast<unsigned char>(html[cursor.pos() + 1]))) {
      flush_text();
      cursor.take();  // '<'
      HtmlToken token;
      token.type = HtmlToken::Type::kStartTag;
      token.name = cursor.take_name();
      parse_attributes(cursor, token);
      const std::string name = token.name;
      const bool self_closing = token.self_closing;
      tokens.push_back(std::move(token));
      // script/style bodies are raw text up to the matching end tag.
      if (!self_closing && (name == "script" || name == "style")) {
        const std::string close = "</" + name + ">";
        std::string body = cursor.take_until(close);
        if (!body.empty()) {
          HtmlToken text_token;
          text_token.type = HtmlToken::Type::kText;
          text_token.text = std::move(body);
          tokens.push_back(std::move(text_token));
        }
        HtmlToken end_token;
        end_token.type = HtmlToken::Type::kEndTag;
        end_token.name = name;
        tokens.push_back(std::move(end_token));
      }
      continue;
    }
    pending_text.push_back(cursor.take());  // literal '<'
  }
  flush_text();
  return tokens;
}

// ---- html_parser.cpp -------------------------------------------------------

namespace {

bool is_void_element(const std::string& tag) {
  static constexpr std::array<std::string_view, 14> kVoid = {
      "area", "base", "br",    "col",   "embed",  "hr",    "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  return std::find(kVoid.begin(), kVoid.end(), tag) != kVoid.end();
}

bool is_whitespace_only(const std::string& text) {
  return std::all_of(text.begin(), text.end(), [](unsigned char c) {
    return std::isspace(c);
  });
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
    if (node.has_attr("src")) {
      add_ref(node.attr("src"), net::ResourceKind::kImage);
    }
  } else if (tag == "script") {
    if (node.has_attr("src")) {
      add_ref(node.attr("src"), net::ResourceKind::kJs);
    }
  } else if (tag == "link") {
    if (node.attr("rel") == "stylesheet" && node.has_attr("href")) {
      add_ref(node.attr("href"), net::ResourceKind::kCss);
    }
  } else if (tag == "embed") {
    if (node.has_attr("src")) {
      add_ref(node.attr("src"), net::ResourceKind::kFlash);
    }
  } else if (tag == "object") {
    if (node.has_attr("data")) {
      add_ref(node.attr("data"), net::ResourceKind::kFlash);
    }
  } else if (tag == "iframe") {
    if (node.has_attr("src")) {
      add_ref(node.attr("src"), net::ResourceKind::kHtml);
    }
  } else if (tag == "a") {
    if (!node.attr("href").empty()) {
      out.secondary_urls.push_back(node.attr("href"));
    }
  }
}

/// Shared tree-construction pass used for documents and fragments.
void build_tree(const std::vector<HtmlToken>& tokens, DomNode& root,
                ParsedHtml& out) {
  std::vector<DomNode*> stack{&root};

  for (const auto& token : tokens) {
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
          parent.append_child(DomNode::text(token.text));
          break;
        }
        if (is_whitespace_only(token.text)) break;
        out.text_bytes += token.text.size();
        parent.append_child(DomNode::text(token.text));
        break;
      }
      case HtmlToken::Type::kStartTag: {
        auto element = DomNode::element(token.name);
        for (const auto& [name, value] : token.attrs) {
          element->set_attr(name, value);
        }
        DomNode& inserted = parent.append_child(std::move(element));
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
  build_tree(tokenize_html(html), out.dom.root(), out);
  return out;
}

void parse_html_fragment(std::string_view fragment, DomNode& parent,
                         ParsedHtml& out) {
  build_tree(tokenize_html(fragment), parent, out);
}

// ---- dom.cpp ---------------------------------------------------------------

std::string signature(const DomTree& tree) {
  std::string sig;
  tree.root().visit([&sig](const DomNode& node) {
    if (node.is_element()) {
      sig += '<';
      sig += node.tag();
      // Attributes sorted so insertion order does not affect equality.
      auto attrs = node.attrs();
      std::sort(attrs.begin(), attrs.end());
      for (const auto& [key, value] : attrs) {
        sig += ' ';
        sig += key;
        sig += '=';
        sig += value;
      }
      sig += '>';
    } else {
      sig += "#t";
      sig += std::to_string(node.content().size());
    }
  });
  return sig;
}

// ---- css.cpp ---------------------------------------------------------------

namespace {

bool iequal_at(std::string_view text, std::size_t pos, std::string_view word) {
  if (pos + word.size() > text.size()) return false;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[pos + i])) !=
        std::tolower(static_cast<unsigned char>(word[i]))) {
      return false;
    }
  }
  return true;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Reads a possibly-quoted URL token starting at `pos`; advances pos past it.
std::string read_url_token(std::string_view css, std::size_t& pos,
                           char terminator) {
  while (pos < css.size() && std::isspace(static_cast<unsigned char>(css[pos]))) {
    ++pos;
  }
  std::string url;
  if (pos < css.size() && (css[pos] == '"' || css[pos] == '\'')) {
    const char quote = css[pos++];
    while (pos < css.size() && css[pos] != quote) url.push_back(css[pos++]);
    if (pos < css.size()) ++pos;
  } else {
    while (pos < css.size() && css[pos] != terminator &&
           !std::isspace(static_cast<unsigned char>(css[pos]))) {
      url.push_back(css[pos++]);
    }
  }
  return url;
}

/// Strips /* ... */ comments.
std::string strip_comments(std::string_view css) {
  std::string out;
  out.reserve(css.size());
  std::size_t i = 0;
  while (i < css.size()) {
    if (i + 1 < css.size() && css[i] == '/' && css[i + 1] == '*') {
      i += 2;
      while (i + 1 < css.size() && !(css[i] == '*' && css[i + 1] == '/')) ++i;
      i = std::min(css.size(), i + 2);
      continue;
    }
    out.push_back(css[i++]);
  }
  return out;
}

CssSimpleSelector parse_simple_selector(std::string_view step) {
  CssSimpleSelector simple;
  std::size_t i = 0;
  auto read_name = [&] {
    std::string name;
    while (i < step.size() && (std::isalnum(static_cast<unsigned char>(step[i])) ||
                               step[i] == '-' || step[i] == '_')) {
      name.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(step[i]))));
      ++i;
    }
    return name;
  };
  if (i < step.size() && step[i] != '.' && step[i] != '#') {
    if (step[i] == '*') {
      ++i;  // universal selector: empty tag already means "any"
    } else {
      simple.tag = read_name();
    }
  }
  while (i < step.size()) {
    if (step[i] == '.') {
      ++i;
      simple.classes.push_back(read_name());
    } else if (step[i] == '#') {
      ++i;
      simple.id = read_name();
    } else if (step[i] == ':') {
      // Pseudo-classes don't affect our matching model; swallow the name.
      ++i;
      read_name();
    } else {
      ++i;  // unsupported syntax inside a step: skip defensively
    }
  }
  return simple;
}

CssSelector parse_selector(std::string_view text) {
  CssSelector selector;
  std::string step;
  auto flush = [&] {
    if (!step.empty()) {
      selector.steps.push_back(parse_simple_selector(step));
      step.clear();
    }
  };
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '>') {
      flush();  // combinators all treated as descendant
    } else {
      step.push_back(c);
    }
  }
  flush();
  return selector;
}

std::vector<CssDeclaration> parse_declarations(std::string_view block) {
  std::vector<CssDeclaration> decls;
  std::size_t start = 0;
  while (start <= block.size()) {
    const std::size_t semi = block.find(';', start);
    const std::string_view piece =
        block.substr(start, semi == std::string_view::npos ? std::string_view::npos
                                                           : semi - start);
    const std::size_t colon = piece.find(':');
    if (colon != std::string_view::npos) {
      CssDeclaration decl;
      decl.property = trim(piece.substr(0, colon));
      decl.value = trim(piece.substr(colon + 1));
      if (!decl.property.empty()) decls.push_back(std::move(decl));
    }
    if (semi == std::string_view::npos) break;
    start = semi + 1;
  }
  return decls;
}

}  // namespace

std::vector<std::string> scan_css_urls(std::string_view css) {
  std::vector<std::string> urls;
  std::size_t i = 0;
  while (i < css.size()) {
    if (iequal_at(css, i, "url(")) {
      std::size_t pos = i + 4;
      std::string url = read_url_token(css, pos, ')');
      while (pos < css.size() && css[pos] != ')') ++pos;
      i = std::min(css.size(), pos + 1);
      if (!url.empty()) urls.push_back(std::move(url));
      continue;
    }
    if (iequal_at(css, i, "@import")) {
      std::size_t pos = i + 7;
      // Either @import url(...) or @import "file".
      while (pos < css.size() && std::isspace(static_cast<unsigned char>(css[pos]))) {
        ++pos;
      }
      std::string url;
      if (iequal_at(css, pos, "url(")) {
        pos += 4;
        url = read_url_token(css, pos, ')');
      } else {
        url = read_url_token(css, pos, ';');
      }
      while (pos < css.size() && css[pos] != ';') ++pos;
      i = std::min(css.size(), pos + 1);
      if (!url.empty()) urls.push_back(std::move(url));
      continue;
    }
    ++i;
  }
  return urls;
}

StyleSheet parse_css(std::string_view raw) {
  StyleSheet sheet;
  const std::string css = strip_comments(raw);
  std::size_t i = 0;
  while (i < css.size()) {
    if (std::isspace(static_cast<unsigned char>(css[i]))) {
      ++i;
      continue;
    }
    if (iequal_at(css, i, "@import")) {
      std::size_t pos = i + 7;
      while (pos < css.size() && std::isspace(static_cast<unsigned char>(css[pos]))) {
        ++pos;
      }
      std::string url;
      if (iequal_at(css, pos, "url(")) {
        pos += 4;
        url = read_url_token(css, pos, ')');
      } else {
        url = read_url_token(css, pos, ';');
      }
      while (pos < css.size() && css[pos] != ';') ++pos;
      i = std::min(css.size(), pos + 1);
      if (!url.empty()) {
        sheet.imports.push_back(url);
        sheet.url_refs.push_back(std::move(url));
      }
      continue;
    }
    if (css[i] == '@') {
      // Other at-rules (@media etc.): parse the inner block recursively by
      // locating the matching braces and splicing its rules in.
      const std::size_t open = css.find('{', i);
      if (open == std::string_view::npos) break;
      std::size_t depth = 1;
      std::size_t close = open + 1;
      while (close < css.size() && depth > 0) {
        if (css[close] == '{') ++depth;
        if (css[close] == '}') --depth;
        ++close;
      }
      StyleSheet inner =
          parse_css(std::string_view(css).substr(open + 1, close - open - 2));
      for (auto& rule : inner.rules) sheet.rules.push_back(std::move(rule));
      for (auto& import : inner.imports) sheet.imports.push_back(std::move(import));
      for (auto& url : inner.url_refs) sheet.url_refs.push_back(std::move(url));
      i = close;
      continue;
    }
    // selector-list { declarations }
    const std::size_t open = css.find('{', i);
    if (open == std::string_view::npos) break;
    std::size_t close = css.find('}', open);
    if (close == std::string_view::npos) close = css.size();

    CssRule rule;
    std::string_view selector_list = std::string_view(css).substr(i, open - i);
    std::size_t start = 0;
    while (start <= selector_list.size()) {
      const std::size_t comma = selector_list.find(',', start);
      const auto piece = selector_list.substr(
          start, comma == std::string_view::npos ? std::string_view::npos
                                                 : comma - start);
      CssSelector selector = parse_selector(piece);
      if (!selector.steps.empty()) rule.selectors.push_back(std::move(selector));
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    const std::string_view block =
        std::string_view(css).substr(open + 1, close - open - 1);
    rule.declarations = parse_declarations(block);
    for (const auto& decl : rule.declarations) {
      // Collect url() references from declaration values too.
      auto urls = scan_css_urls(decl.value);
      for (auto& url : urls) sheet.url_refs.push_back(std::move(url));
    }
    if (!rule.selectors.empty()) sheet.rules.push_back(std::move(rule));
    i = close == css.size() ? close : close + 1;
  }
  return sheet;
}

}  // namespace eab::test::reference_web
