#include <algorithm>
#include <array>
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

bool is_ident_start(char c) {
  return ascii::is_alpha(c) || c == '_' || c == '$';
}

bool is_ident_char(char c) {
  return ascii::is_alnum(c) || c == '_' || c == '$';
}

}  // namespace

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
        static constexpr std::string_view kSingle = "+-*/%=<>!(){}[],;.:";
        if (kSingle.find(c) == std::string_view::npos) {
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
