// Structured-random inputs shared by the content-engine fuzz suites.
//
// web_robustness_test feeds these to the HTML/CSS/JS front ends and asserts
// they never crash; web_js_memo_test replays the same JavaScript soups with
// the script-outcome memo cold and warm, and web_js_resolve_test through the
// resolved evaluator and the reference AST walker, and both assert
// identical outcomes; web_parse_oracle_test parses the markup and CSS soups
// with the HTML/CSS front end and its pre-rewrite reference and asserts
// identical results.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace eab::test {

/// Random soup with markup-significant characters over-represented.
inline std::string random_soup(Rng& rng, std::size_t length) {
  static constexpr std::string_view kAlphabet =
      "<>=\"'/&;:{}()[]#.@!- \n\tabcdefghijklmnopqrstuvwxyz0123456789";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kAlphabet[rng.uniform_index(kAlphabet.size())]);
  }
  return out;
}

/// Takes valid markup and damages it: truncation, splicing, duplication.
inline std::string mutate(Rng& rng, std::string input) {
  switch (rng.uniform_index(4)) {
    case 0:  // truncate
      return input.substr(0, rng.uniform_index(input.size() + 1));
    case 1: {  // splice soup into the middle
      const std::size_t at = rng.uniform_index(input.size() + 1);
      return input.substr(0, at) + random_soup(rng, 20) + input.substr(at);
    }
    case 2: {  // delete a chunk
      if (input.size() < 10) return input;
      const std::size_t at = rng.uniform_index(input.size() - 8);
      return input.substr(0, at) + input.substr(at + 8);
    }
    default:  // duplicate a chunk
      return input + input.substr(input.size() / 2);
  }
}

/// A small valid document: head, stylesheet link, entity, image, inline
/// script and anchor.
inline constexpr std::string_view kValidHtml =
    "<!doctype html><html><head><title>t</title>"
    "<link rel='stylesheet' href='a.css'></head>"
    "<body><div class='x'><p>hello &amp; goodbye</p>"
    "<img src='i.jpg' width='10'><script>var a = 1 + 2;</script>"
    "<a href='n.html'>go</a></div></body></html>";

/// A small valid stylesheet: a selector list, url(), @import and @media.
inline constexpr std::string_view kValidCss =
    ".a, div#b .c { color: red; background: url(x.png); }"
    "@import url(y.css); @media screen { p { margin: 0; } }";

/// The HtmlFuzz soups for one seed: 40 random soups of 50-449 bytes.
inline std::vector<std::string> html_soups(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> inputs;
  for (int round = 0; round < 40; ++round) {
    inputs.push_back(random_soup(rng, 50 + rng.uniform_index(400)));
  }
  return inputs;
}

/// The HtmlFuzz mutations for one seed: 40 damaged copies of kValidHtml.
inline std::vector<std::string> html_mutations(std::uint64_t seed) {
  Rng rng(seed ^ 0xABCD);
  std::vector<std::string> inputs;
  for (int round = 0; round < 40; ++round) {
    inputs.push_back(mutate(rng, std::string(kValidHtml)));
  }
  return inputs;
}

/// The CssFuzz inputs for one seed: 60 rounds alternating raw soup with
/// mutations of kValidCss.
inline std::vector<std::string> css_fuzz_inputs(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> inputs;
  for (int round = 0; round < 60; ++round) {
    inputs.push_back(round % 2 == 0
                         ? random_soup(rng, 30 + rng.uniform_index(300))
                         : mutate(rng, std::string(kValidCss)));
  }
  return inputs;
}

/// A small valid script exercising loops, modulo and a function call.
inline constexpr std::string_view kValidJs =
    "var a = 1; for (var i = 0; i < 9; i++) { a = a + i % 3; }"
    "function f(x) { return x * 2; } var b = f(a);";

/// The JsFuzz inputs for one seed: 60 rounds alternating raw soup with
/// mutations of kValidJs, run in order through one interpreter.
inline std::vector<std::string> js_fuzz_inputs(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> inputs;
  for (int round = 0; round < 60; ++round) {
    inputs.push_back(round % 2 == 0
                         ? random_soup(rng, 20 + rng.uniform_index(200))
                         : mutate(rng, std::string(kValidJs)));
  }
  return inputs;
}

}  // namespace eab::test
