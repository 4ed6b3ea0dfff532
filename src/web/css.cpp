#include "web/css.hpp"

#include <algorithm>

#include "web/ascii.hpp"

namespace eab::web {
namespace {

constexpr std::size_t npos = std::string_view::npos;

bool iequal_at(std::string_view text, std::size_t pos, std::string_view word) {
  return pos <= text.size() && ascii::istarts_with(text.substr(pos), word);
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && ascii::is_space(s[b])) ++b;
  while (e > b && ascii::is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Reads a possibly-quoted URL token starting at `pos`; advances pos past it.
std::string_view read_url_token(std::string_view css, std::size_t& pos,
                                char terminator) {
  pos = ascii::skip_space(css, pos);
  const std::size_t start = pos;
  if (pos < css.size() && (css[pos] == '"' || css[pos] == '\'')) {
    const std::size_t end = std::min(css.find(css[pos], pos + 1), css.size());
    pos = std::min(end + 1, css.size());
    return css.substr(start + 1, end - start - 1);
  }
  while (pos < css.size() && css[pos] != terminator &&
         !ascii::is_space(css[pos])) {
    ++pos;
  }
  return css.substr(start, pos - start);
}

/// The target of the @import whose keyword ends at `pos` (either
/// @import url(...) or @import "file"); leaves pos past its ';'.
std::string_view read_import(std::string_view css, std::size_t& pos) {
  pos = ascii::skip_space(css, pos);
  std::string_view url;
  if (iequal_at(css, pos, "url(")) {
    pos += 4;
    url = read_url_token(css, pos, ')');
  } else {
    url = read_url_token(css, pos, ';');
  }
  const std::size_t semi = css.find(';', pos);
  pos = semi == npos ? css.size() : semi + 1;
  return url;
}

/// Appends the url(...) bodies and @import targets of `css` to `urls`, in
/// order.  Only a 'u', 'U' or '@' byte can start either.
void scan_urls_into(std::string_view css, std::vector<std::string>& urls) {
  std::size_t i = 0;
  while (i < css.size()) {
    const char c = css[i];
    if ((c == 'u' || c == 'U') && iequal_at(css, i, "url(")) {
      std::size_t pos = i + 4;
      const std::string_view url = read_url_token(css, pos, ')');
      const std::size_t close = css.find(')', pos);
      i = close == npos ? css.size() : close + 1;
      if (!url.empty()) urls.emplace_back(url);
      continue;
    }
    if (c == '@' && iequal_at(css, i, "@import")) {
      std::size_t pos = i + 7;
      const std::string_view url = read_import(css, pos);
      i = pos;
      if (!url.empty()) urls.emplace_back(url);
      continue;
    }
    ++i;
  }
}

/// Strips /* ... */ comments, appending the runs between them whole.
std::string strip_comments(std::string_view css) {
  std::string out;
  out.reserve(css.size());
  std::size_t i = 0;
  while (i < css.size()) {
    const std::size_t slash = css.find('/', i);
    if (slash == npos || slash + 1 >= css.size()) {
      out.append(css.substr(i));
      break;
    }
    if (css[slash + 1] != '*') {
      out.append(css.substr(i, slash + 1 - i));
      i = slash + 1;
      continue;
    }
    out.append(css.substr(i, slash - i));
    const std::size_t end = css.find("*/", slash + 2);
    i = end == npos ? css.size() : end + 2;
  }
  return out;
}

CssSimpleSelector parse_simple_selector(std::string_view step) {
  CssSimpleSelector simple;
  std::size_t i = 0;
  auto read_name = [&] {
    const std::size_t start = i;
    while (i < step.size() &&
           (ascii::is_alnum(step[i]) || step[i] == '-' || step[i] == '_')) {
      ++i;
    }
    return step.substr(start, i - start);
  };
  if (i < step.size() && step[i] != '.' && step[i] != '#') {
    if (step[i] == '*') {
      ++i;  // universal selector: empty tag already means "any"
    } else {
      simple.tag = ascii::lowered(read_name());
    }
  }
  while (i < step.size()) {
    if (step[i] == '.') {
      ++i;
      simple.classes.push_back(ascii::lowered(read_name()));
    } else if (step[i] == '#') {
      ++i;
      simple.id = ascii::lowered(read_name());
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

/// One selector: its steps are the runs between whitespace and '>' bytes
/// (every combinator is treated as descendant).
CssSelector parse_selector(std::string_view text) {
  CssSelector selector;
  std::size_t i = 0;
  while (i < text.size()) {
    const std::size_t start = i;
    while (i < text.size() && !ascii::is_space(text[i]) && text[i] != '>') ++i;
    if (i > start) {
      selector.steps.push_back(parse_simple_selector(text.substr(start, i - start)));
    }
    ++i;
  }
  return selector;
}

/// The selectors of a comma-separated list that have at least one step.
std::vector<CssSelector> parse_selector_list(std::string_view list) {
  std::vector<CssSelector> selectors;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    CssSelector selector = parse_selector(list.substr(
        start, comma == npos ? npos : comma - start));
    if (!selector.steps.empty()) selectors.push_back(std::move(selector));
    if (comma == npos) break;
    start = comma + 1;
  }
  return selectors;
}

/// The declarations of one block, and the url(...) references in their
/// values appended to `url_refs`.
std::vector<CssDeclaration> parse_declarations(
    std::string_view block, std::vector<std::string>& url_refs) {
  std::vector<CssDeclaration> decls;
  std::size_t start = 0;
  while (start <= block.size()) {
    const std::size_t semi = block.find(';', start);
    const std::string_view piece =
        block.substr(start, semi == npos ? npos : semi - start);
    const std::size_t colon = piece.find(':');
    if (colon != npos) {
      const std::string_view property = trim(piece.substr(0, colon));
      if (!property.empty()) {
        const std::string_view value = trim(piece.substr(colon + 1));
        decls.push_back({std::string(property), std::string(value)});
        scan_urls_into(value, url_refs);
      }
    }
    if (semi == npos) break;
    start = semi + 1;
  }
  return decls;
}

/// Parses `raw` into `sheet`, appending its rules, imports and references.
void parse_into(std::string_view raw, StyleSheet& sheet) {
  const std::string stripped = strip_comments(raw);
  const std::string_view css = stripped;
  std::size_t i = 0;
  while (i < css.size()) {
    if (ascii::is_space(css[i])) {
      ++i;
      continue;
    }
    if (iequal_at(css, i, "@import")) {
      std::size_t pos = i + 7;
      const std::string_view url = read_import(css, pos);
      i = pos;
      if (!url.empty()) {
        sheet.imports.emplace_back(url);
        sheet.url_refs.emplace_back(url);
      }
      continue;
    }
    if (css[i] == '@') {
      // Other at-rules (@media etc.): parse the inner block recursively by
      // locating the matching braces and splicing its rules in.
      const std::size_t open = css.find('{', i);
      if (open == npos) break;
      std::size_t depth = 1;
      std::size_t close = open + 1;
      while (close < css.size() && depth > 0) {
        if (css[close] == '{') ++depth;
        if (css[close] == '}') --depth;
        ++close;
      }
      parse_into(css.substr(open + 1, close - open - 2), sheet);
      i = close;
      continue;
    }
    // selector-list { declarations }
    const std::size_t open = css.find('{', i);
    if (open == npos) break;
    std::size_t close = css.find('}', open);
    if (close == npos) close = css.size();

    CssRule rule;
    rule.selectors = parse_selector_list(css.substr(i, open - i));
    rule.declarations =
        parse_declarations(css.substr(open + 1, close - open - 1), sheet.url_refs);
    if (!rule.selectors.empty()) sheet.rules.push_back(std::move(rule));
    i = close == css.size() ? close : close + 1;
  }
}

}  // namespace

std::size_t StyleSheet::selector_steps() const {
  std::size_t n = 0;
  for (const auto& rule : rules) {
    for (const auto& selector : rule.selectors) n += selector.steps.size();
  }
  return n;
}

std::size_t StyleSheet::declaration_count() const {
  std::size_t n = 0;
  for (const auto& rule : rules) n += rule.declarations.size();
  return n;
}

std::vector<std::string> scan_css_urls(std::string_view css) {
  std::vector<std::string> urls;
  scan_urls_into(css, urls);
  return urls;
}

StyleSheet parse_css(std::string_view css) {
  StyleSheet sheet;
  parse_into(css, sheet);
  return sheet;
}

namespace {

bool simple_matches(const CssSimpleSelector& simple, const DomNode& node) {
  if (!node.is_element()) return false;
  if (!simple.tag.empty() && simple.tag != node.tag()) return false;
  if (!simple.id.empty() && simple.id != node.attr("id")) return false;
  if (!simple.classes.empty()) {
    const std::string& cls = node.attr("class");
    for (const auto& wanted : simple.classes) {
      // Whole-word containment in the space-separated class list.
      std::size_t pos = 0;
      bool found = false;
      while ((pos = cls.find(wanted, pos)) != std::string::npos) {
        const bool start_ok = pos == 0 || cls[pos - 1] == ' ';
        const std::size_t end = pos + wanted.size();
        const bool end_ok = end == cls.size() || cls[end] == ' ';
        if (start_ok && end_ok) {
          found = true;
          break;
        }
        ++pos;
      }
      if (!found) return false;
    }
  }
  return true;
}

}  // namespace

bool selector_matches(const CssSelector& selector, const DomNode& node) {
  if (selector.steps.empty()) return false;
  // The last step must match the node itself; earlier steps must match some
  // chain of ancestors, outermost-first.
  if (!simple_matches(selector.steps.back(), node)) return false;
  std::size_t step = selector.steps.size() - 1;
  const DomNode* ancestor = node.parent();
  while (step > 0) {
    if (ancestor == nullptr) return false;
    if (simple_matches(selector.steps[step - 1], *ancestor)) --step;
    ancestor = ancestor->parent();
  }
  return step == 0;
}

std::vector<const DomNode*> select_all(const DomNode& root,
                                       std::string_view selector_text) {
  // Reuse the stylesheet selector grammar (comma-separated descendant
  // selectors) — "div.x, #nav li" works exactly as in a rule head.
  const std::vector<CssSelector> selectors = parse_selector_list(selector_text);

  std::vector<const DomNode*> matches;
  root.visit([&](const DomNode& node) {
    if (!node.is_element()) return;
    for (const CssSelector& selector : selectors) {
      if (selector_matches(selector, node)) {
        matches.push_back(&node);
        return;
      }
    }
  });
  return matches;
}

const DomNode* select_first(const DomNode& root, std::string_view selector) {
  const auto matches = select_all(root, selector);
  return matches.empty() ? nullptr : matches.front();
}

std::size_t matching_declarations(const StyleSheet& sheet, const DomNode& node) {
  std::size_t n = 0;
  for (const auto& rule : sheet.rules) {
    for (const auto& selector : rule.selectors) {
      if (selector_matches(selector, node)) {
        n += rule.declarations.size();
        break;  // one match per rule is enough for the cascade
      }
    }
  }
  return n;
}

}  // namespace eab::web
