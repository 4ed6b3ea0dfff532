#include "corpus/generator.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string_view>

#include "util/rng.hpp"

namespace eab::corpus {
namespace {

constexpr std::string_view kWords[] = {
    "score",   "market", "travel",  "report", "update", "season",  "player",
    "stock",   "offer",  "review",  "photo",  "video",  "league",  "deal",
    "city",    "guide",  "match",   "trade",  "price",  "moment",  "story",
    "device",  "music",  "artist",  "track",  "flight", "hotel",   "game",
    "final",   "record", "weather", "coach",  "studio", "summer",  "ticket",
    "launch",  "editor", "global",  "mobile", "signal",
};
constexpr std::size_t kWordCount = std::size(kWords);

constexpr std::size_t kLongestWord = [] {
  std::size_t longest = 0;
  for (const std::string_view word : kWords) longest = std::max(longest, word.size());
  return longest;
}();

/// An upper bound on the bytes of a `word_count`-word sentence.
constexpr std::size_t sentence_bound(int word_count) {
  return static_cast<std::size_t>(word_count) * (kLongestWord + 1);
}

std::string_view word(Rng& rng) { return kWords[rng.uniform_index(kWordCount)]; }

/// Appends each part in order: text as is, integers in decimal.
void append_part(std::string& out, std::string_view text) { out += text; }
void append_part(std::string& out, int value) {
  char digits[16];
  const auto end = std::to_chars(std::begin(digits), std::end(digits), value).ptr;
  out.append(digits, end);
}
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (append_part(out, parts), ...);
}

/// Appends `word_count` random words and a full stop.
void append_sentence(std::string& out, Rng& rng, int word_count) {
  for (int i = 0; i < word_count; ++i) {
    if (i > 0) out += ' ';
    out += word(rng);
  }
  out += '.';
}

/// Pads `content` to `target` bytes by appending `fill(content)` until it is
/// large enough; leaves it untouched if it already is.  Each buffer is
/// reserved up front to its target plus one filler's upper bound, so padding
/// never reallocates.
template <typename Fill>
void pad_to(std::string& content, Bytes target, Fill fill) {
  while (content.size() < target) fill(content);
}

void append_inline_script(std::string& html, const PageSpec& spec, Rng& rng) {
  const int busy = std::max(50, spec.js_busy_iterations / 4);
  append(html, "var warm = 0;\n", "for (var i = 0; i < ", busy,
         "; i = i + 1) { warm = warm + i % 5; }\n",
         "document.write(\"<div class='promo'><p>");
  append_sentence(html, rng, 10);
  html += "</p></div>\");\n";
}

std::string make_js_file(const PageSpec& spec, std::string_view base,
                         int file_index, Rng& rng) {
  // Era-typical structure: a config object, a busy analytics-ish loop, a
  // dynamic image loader keyed off the config, and a document.write footer.
  const int n = file_index;
  std::string script;
  script.reserve(spec.js_bytes + 4 + sentence_bound(9));
  append(script, "var cfg", n, " = {base: \"", base, "/img/\", prefix: \"dyn", n,
         "_\", count: ", spec.js_images, ", ext: \".jpg\"};\n");
  append(script, "var acc", n, " = 0;\n");
  append(script, "var i", n, " = 0;\n");
  append(script, "while (i", n, " < ", spec.js_busy_iterations, ") {\n");
  append(script, "  acc", n, " = acc", n, " + (i", n, " * 7 + 3) % 11;\n");
  append(script, "  i", n, " = i", n, " + 1;\n");
  script += "}\n";
  if (spec.js_images > 0) {
    append(script, "if (typeof cfg", n, " == 'object' && indexOf(cfg", n,
           ".base, '/img/') >= 0) {\n");
    append(script, "  for (var j", n, " = 0; j", n, " < cfg", n, ".count; j", n,
           "++) {\n");
    append(script, "    loadImage(cfg", n, ".base + cfg", n, ".prefix + j", n,
           " + cfg", n, ".ext);\n");
    script += "  }\n}\n";
  }
  script += "document.write(\"<div class='dyn'><p>";
  append_sentence(script, rng, 8);
  script += "</p></div>\");\n";
  pad_to(script, spec.js_bytes, [&rng](std::string& out) {
    out += "// ";
    append_sentence(out, rng, 9);
    out += '\n';
  });
  return script;
}

std::string make_css_file(const PageSpec& spec, std::string_view base,
                          int sheet_index, Rng& rng) {
  constexpr std::string_view kPadRule = " */\n.pad { margin: 0; }\n";
  std::string css;
  css.reserve(spec.css_bytes + 3 + sentence_bound(8) + kPadRule.size());
  for (int rule = 0; rule < 10; ++rule) {
    append(css, ".c", rule, " { color: #", 100 + rule * 37, "; margin: ", 2 + rule,
           "px; padding: ", 1 + rule % 4, "px; }\n");
    append(css, "div.c", rule, " p { font-size: ", 11 + rule % 5,
           "px; line-height: 1.", 2 + rule % 6, "; }\n");
  }
  for (int image = 0; image < spec.css_images; ++image) {
    append(css, ".bg", sheet_index, "_", image, " { background-image: url(", base,
           "/img/css", sheet_index, "_", image, ".jpg); }\n");
  }
  pad_to(css, spec.css_bytes, [&rng, kPadRule](std::string& out) {
    out += "/* ";
    append_sentence(out, rng, 8);
    out += kPadRule;
  });
  return css;
}

std::string make_html(const PageSpec& spec, std::string_view base, Rng& rng) {
  constexpr std::string_view kPadOpen = "<p class=\"c9\">";
  constexpr std::string_view kPadClose = "</p>\n";
  std::string html;
  html.reserve(spec.html_bytes + kPadOpen.size() + sentence_bound(22) +
               kPadClose.size());
  append(html, "<!doctype html>\n<html>\n<head>\n<title>", spec.site,
         "</title>\n");
  for (int sheet = 0; sheet < spec.css_files; ++sheet) {
    append(html, "<link rel=\"stylesheet\" href=\"", base, "/css/s", sheet,
           ".css\">\n");
  }
  html += "</head>\n<body>\n<div id=\"masthead\" class=\"c0\"><h1>";
  append_sentence(html, rng, 3);
  html += "</h1></div>\n<script>\n";
  append_inline_script(html, spec, rng);
  html += "</script>\n";

  // Navigation block carries most of the secondary URLs.
  html += "<ul class=\"c1\">\n";
  const int nav_anchors = spec.anchors / 2;
  for (int anchor = 0; anchor < nav_anchors; ++anchor) {
    append(html, "<li><a href=\"", base, "/section/a", anchor, ".html\">",
           word(rng), "</a></li>\n");
  }
  html += "</ul>\n";

  int emitted_images = 0;
  int emitted_anchors = nav_anchors;
  for (int paragraph = 0; paragraph < spec.paragraphs; ++paragraph) {
    append(html, "<div class=\"c", 2 + paragraph % 8, "\">\n<p>");
    append_sentence(html, rng, static_cast<int>(18 + rng.uniform_index(30)));
    if (emitted_anchors < spec.anchors && paragraph % 2 == 0) {
      // The sentence after the link is drawn before the link's word: the
      // order the corpus was first generated in.
      std::string after;
      append_sentence(after, rng, 6);
      append(html, " <a href=\"", base, "/story/s", paragraph, ".html\">",
             word(rng), "</a> ", after);
      ++emitted_anchors;
    }
    html += "</p>\n";
    if (emitted_images < spec.html_images && paragraph % 2 == 1) {
      const int width = static_cast<int>(120 + rng.uniform_index(200));
      const int height = static_cast<int>(80 + rng.uniform_index(160));
      append(html, "<img src=\"", base, "/img/h", emitted_images,
             ".jpg\" width=\"", width, "\" height=\"", height, "\">\n");
      ++emitted_images;
    }
    html += "</div>\n";
  }
  // Anchors the paragraph loop did not fit go in a trailing link list.
  if (emitted_anchors < spec.anchors) {
    html += "<ul class=\"c3\">\n";
    while (emitted_anchors < spec.anchors) {
      append(html, "<li><a href=\"", base, "/more/a", emitted_anchors,
             ".html\">", word(rng), "</a></li>\n");
      ++emitted_anchors;
    }
    html += "</ul>\n";
  }
  // Any images the paragraph loop did not fit go in a trailing gallery.
  while (emitted_images < spec.html_images) {
    append(html, "<img src=\"", base, "/img/h", emitted_images,
           ".jpg\" width=\"160\" height=\"120\">\n");
    ++emitted_images;
  }
  for (int flash = 0; flash < spec.flash_objects; ++flash) {
    append(html, "<embed src=\"", base, "/media/f", flash,
           ".swf\" width=\"300\" height=\"150\">\n");
  }
  for (int script = 0; script < spec.js_files; ++script) {
    append(html, "<script src=\"", base, "/js/a", script, ".js\"></script>\n");
  }
  html += "</body>\n</html>\n";
  pad_to(html, spec.html_bytes, [&rng, kPadOpen, kPadClose](std::string& out) {
    out += kPadOpen;
    append_sentence(out, rng, 22);
    out += kPadClose;
  });
  return html;
}

void host_text(net::WebServer& server, std::string url, net::ResourceKind kind,
               std::string body) {
  net::Resource resource;
  resource.url = std::move(url);
  resource.kind = kind;
  resource.size = body.size();
  resource.body = std::move(body);
  server.host(std::move(resource));
}

void host_binary(net::WebServer& server, std::string url,
                 net::ResourceKind kind, Bytes size) {
  net::Resource resource;
  resource.url = std::move(url);
  resource.kind = kind;
  resource.size = size;
  server.host(std::move(resource));
}

}  // namespace

std::string PageGenerator::host_page(const PageSpec& spec,
                                     net::WebServer& server) const {
  // Per-site deterministic stream: the same spec always yields byte-identical
  // content regardless of hosting order.
  std::uint64_t site_hash = 1469598103934665603ULL;
  for (char c : spec.site) {
    site_hash = (site_hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  Rng rng(seed_ ^ site_hash);
  const std::string base = "http://" + spec.site;

  host_text(server, spec.main_url(), net::ResourceKind::kHtml,
            make_html(spec, base, rng));
  for (int sheet = 0; sheet < spec.css_files; ++sheet) {
    host_text(server, base + "/css/s" + std::to_string(sheet) + ".css",
              net::ResourceKind::kCss, make_css_file(spec, base, sheet, rng));
    for (int image = 0; image < spec.css_images; ++image) {
      host_binary(server,
                  base + "/img/css" + std::to_string(sheet) + "_" +
                      std::to_string(image) + ".jpg",
                  net::ResourceKind::kImage,
                  static_cast<Bytes>(static_cast<double>(spec.css_image_bytes) *
                                     rng.uniform(0.75, 1.25)));
    }
  }
  for (int script = 0; script < spec.js_files; ++script) {
    host_text(server, base + "/js/a" + std::to_string(script) + ".js",
              net::ResourceKind::kJs, make_js_file(spec, base, script, rng));
    for (int image = 0; image < spec.js_images; ++image) {
      host_binary(server,
                  base + "/img/dyn" + std::to_string(script) + "_" +
                      std::to_string(image) + ".jpg",
                  net::ResourceKind::kImage,
                  static_cast<Bytes>(static_cast<double>(spec.js_image_bytes) *
                                     rng.uniform(0.75, 1.25)));
    }
  }
  for (int image = 0; image < spec.html_images; ++image) {
    host_binary(server, base + "/img/h" + std::to_string(image) + ".jpg",
                net::ResourceKind::kImage,
                static_cast<Bytes>(static_cast<double>(spec.image_bytes) *
                                   rng.uniform(0.7, 1.3)));
  }
  for (int flash = 0; flash < spec.flash_objects; ++flash) {
    host_binary(server, base + "/media/f" + std::to_string(flash) + ".swf",
                net::ResourceKind::kFlash, spec.flash_bytes);
  }
  return spec.main_url();
}

}  // namespace eab::corpus
