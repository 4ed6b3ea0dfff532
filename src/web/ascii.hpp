// Byte classes for the web front end's scanners.
//
// The HTML tokenizer, the CSS scanner and parser and the MiniScript lexer
// classify bytes with these tables, not with <cctype>: the program never
// calls setlocale, so <cctype> answers by the "C" locale, where only ASCII
// letters, digits and the six bytes " \t\n\v\f\r" are classed and every byte
// >= 0x80 is none of them.  The tables encode exactly that contract, are
// built at compile time and cost a load per byte, with no locale lookup.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace eab::web::ascii {

enum : std::uint8_t {
  kSpace = 1 << 0,  ///< ' ', \t, \n, \v, \f, \r (std::isspace)
  kAlpha = 1 << 1,  ///< A-Z a-z (std::isalpha)
  kDigit = 1 << 2,  ///< 0-9 (std::isdigit)
  kHex = 1 << 3,    ///< 0-9 A-F a-f (std::isxdigit)
};

inline constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (const char c : std::string_view(" \t\n\v\f\r")) {
    table[static_cast<unsigned char>(c)] |= kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) table[c] |= kAlpha;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] |= kAlpha;
  for (int c = '0'; c <= '9'; ++c) table[c] |= kDigit | kHex;
  for (int c = 'a'; c <= 'f'; ++c) table[c] |= kHex;
  for (int c = 'A'; c <= 'F'; ++c) table[c] |= kHex;
  return table;
}();

constexpr bool has(char c, std::uint8_t mask) {
  return (kClass[static_cast<unsigned char>(c)] & mask) != 0;
}
constexpr bool is_space(char c) { return has(c, kSpace); }
constexpr bool is_alpha(char c) { return has(c, kAlpha); }
constexpr bool is_digit(char c) { return has(c, kDigit); }
constexpr bool is_alnum(char c) { return has(c, kAlpha | kDigit); }
constexpr bool is_xdigit(char c) { return has(c, kHex); }

/// std::tolower in the "C" locale: A-Z map to a-z, every other byte stays.
constexpr char to_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// `text` lower-cased into a new string.
inline std::string lowered(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = to_lower(c);
  return out;
}

/// Whether `text` starts with `word`, ignoring ASCII case on both sides.
constexpr bool istarts_with(std::string_view text, std::string_view word) {
  if (word.size() > text.size()) return false;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (to_lower(text[i]) != to_lower(word[i])) return false;
  }
  return true;
}

/// The first index >= `pos` whose byte is not a space, or text.size().
constexpr std::size_t skip_space(std::string_view text, std::size_t pos) {
  while (pos < text.size() && is_space(text[pos])) ++pos;
  return pos;
}

}  // namespace eab::web::ascii
