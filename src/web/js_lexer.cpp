#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>

#include "web/ascii.hpp"
#include "web/js.hpp"

namespace eab::web::js {
namespace {

bool is_keyword(const std::string& word) {
  static constexpr std::array<std::string_view, 14> kKeywords = {
      "var",    "function", "if",    "else", "while",     "for",   "return",
      "true",   "false",    "null",  "undefined", "break", "continue",
      "typeof"};
  for (auto keyword : kKeywords) {
    if (word == keyword) return true;
  }
  return false;
}

constexpr bool is_ident_start(char c) {
  return ascii::is_alpha(c) || c == '_' || c == '$';
}

constexpr bool is_ident_char(char c) {
  return ascii::is_alnum(c) || c == '_' || c == '$';
}

/// One-character punctuators; "&&" and "||" exist only as pairs.
constexpr std::string_view kSinglePunct = "+-*/%=<>!(){}[],;.:";

/// What layout_free_text does with a byte outside strings and comments,
/// by the rule tokenize applies to it.
enum LayoutClass : std::uint8_t {
  kStop,   ///< tokenize rejects it as an unexpected character
  kCopy,   ///< part of a number, identifier or punctuator
  kGap,    ///< whitespace
  kSlash,  ///< a comment opener or a punctuator
  kQuote,  ///< opens a string literal
  kPair,   ///< '&' or '|': a punctuator only when doubled
};

constexpr std::array<std::uint8_t, 256> kLayoutClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const char byte = static_cast<char>(c);
    if (ascii::is_space(byte)) table[c] = kGap;
    if (is_ident_char(byte)) table[c] = kCopy;
  }
  for (const char c : kSinglePunct) table[static_cast<unsigned char>(c)] = kCopy;
  table['/'] = kSlash;
  table['"'] = table['\''] = kQuote;
  table['&'] = table['|'] = kPair;
  return table;
}();

}  // namespace

std::optional<std::string> layout_free_text(std::string_view source) {
  std::string text;
  const std::size_t n = source.size();
  std::size_t i = 0;
  bool gap = false;  // a run of whitespace and comments awaits its space
  while (i < n) {
    const char c = source[i];
    const std::uint8_t kind = kLayoutClass[static_cast<unsigned char>(c)];
    const char next = i + 1 < n ? source[i + 1] : '\0';
    if (kind == kGap || (kind == kSlash && next == '/')) {
      gap = true;
      i = kind == kGap ? i + 1 : std::min(source.find('\n', i), n);
      continue;
    }
    if (kind == kSlash && next == '*') {
      const std::size_t close = source.find("*/", i + 2);
      if (close == std::string_view::npos) return std::nullopt;
      gap = true;
      i = close + 2;
      continue;
    }
    if (gap) text.push_back(' ');
    gap = false;
    std::size_t end = i + 1;
    if (kind == kCopy) {
      while (end < n &&
             kLayoutClass[static_cast<unsigned char>(source[end])] == kCopy) {
        ++end;
      }
    } else if (kind == kQuote) {
      while (end < n && source[end] != c) {
        end += source[end] == '\\' && end + 1 < n ? 2 : 1;
      }
      if (end >= n) return std::nullopt;
      ++end;  // closing quote
    } else if (kind == kPair && next == c) {
      end = i + 2;
    } else if (kind != kSlash) {
      // tokenize stops at this byte, so nothing after it is layout.
      end = n;
    }
    text.append(source.substr(i, end - i));
    i = end;
  }
  if (gap) text.push_back(' ');
  return text;
}

std::vector<Token> tokenize(std::string_view source) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto error = [&](const std::string& what) {
    throw JsError(what + " at offset " + std::to_string(i));
  };

  while (i < n) {
    const char c = source[i];
    if (ascii::is_space(c)) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      i = std::min(source.find('\n', i), n);
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/')) ++i;
      if (i + 1 >= n) error("unterminated block comment");
      i += 2;
      continue;
    }
    // Numbers (decimal, optional fraction).
    if (ascii::is_digit(c)) {
      Token token;
      token.type = TokenType::kNumber;
      token.offset = i;
      std::size_t start = i;
      while (i < n && ascii::is_digit(source[i])) ++i;
      if (i < n && source[i] == '.') {
        ++i;
        while (i < n && ascii::is_digit(source[i])) ++i;
      }
      token.text = std::string(source.substr(start, i - start));
      token.number = std::strtod(token.text.c_str(), nullptr);
      tokens.push_back(std::move(token));
      continue;
    }
    // Strings.
    if (c == '"' || c == '\'') {
      Token token;
      token.type = TokenType::kString;
      token.offset = i;
      const char quote = c;
      ++i;
      std::string value;
      while (i < n && source[i] != quote) {
        if (source[i] == '\\' && i + 1 < n) {
          ++i;
          switch (source[i]) {
            case 'n': value.push_back('\n'); break;
            case 't': value.push_back('\t'); break;
            case '\\': value.push_back('\\'); break;
            case '"': value.push_back('"'); break;
            case '\'': value.push_back('\''); break;
            default: value.push_back(source[i]); break;
          }
          ++i;
        } else {
          value.push_back(source[i++]);
        }
      }
      if (i >= n) error("unterminated string literal");
      ++i;  // closing quote
      token.text = std::move(value);
      tokens.push_back(std::move(token));
      continue;
    }
    // Identifiers and keywords.
    if (is_ident_start(c)) {
      Token token;
      token.offset = i;
      std::size_t start = i;
      while (i < n && is_ident_char(source[i])) ++i;
      token.text = std::string(source.substr(start, i - start));
      token.type = is_keyword(token.text) ? TokenType::kKeyword
                                          : TokenType::kIdentifier;
      tokens.push_back(std::move(token));
      continue;
    }
    // Punctuation / operators; longest match first.
    {
      static constexpr std::array<std::string_view, 12> kTwoChar = {
          "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "++", "--"};
      Token token;
      token.type = TokenType::kPunct;
      token.offset = i;
      bool matched = false;
      for (auto op : kTwoChar) {
        if (source.substr(i).starts_with(op)) {
          token.text = std::string(op);
          i += op.size();
          matched = true;
          break;
        }
      }
      if (!matched) {
        if (kSinglePunct.find(c) == std::string_view::npos) {
          error(std::string("unexpected character '") + c + "'");
        }
        token.text = std::string(1, c);
        ++i;
      }
      tokens.push_back(std::move(token));
    }
  }

  Token end;
  end.type = TokenType::kEnd;
  end.offset = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace eab::web::js
