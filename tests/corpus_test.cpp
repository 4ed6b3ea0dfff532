#include "corpus/generator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/page_spec.hpp"
#include "util/hash.hpp"
#include "web/css.hpp"
#include "web/html_parser.hpp"

namespace eab::corpus {
namespace {

TEST(PageSpec, BenchmarksMatchTable3) {
  EXPECT_EQ(mobile_benchmark().size(), 10u);
  EXPECT_EQ(full_benchmark().size(), 10u);
  for (const PageSpec& spec : mobile_benchmark()) EXPECT_TRUE(spec.mobile);
  for (const PageSpec& spec : full_benchmark()) EXPECT_FALSE(spec.mobile);
}

TEST(PageSpec, EspnCalibratedNearPaperWeight) {
  const PageSpec espn = espn_sports_spec();
  EXPECT_FALSE(espn.mobile);
  EXPECT_EQ(espn.topic, Topic::kSports);
  // Paper Fig 4: 760 KB total.
  EXPECT_NEAR(to_kilobytes(espn.total_bytes()), 760.0, 60.0);
}

TEST(PageSpec, MobilePagesAreMuchLighter) {
  Bytes mobile_total = 0;
  Bytes full_total = 0;
  for (const PageSpec& spec : mobile_benchmark()) mobile_total += spec.total_bytes();
  for (const PageSpec& spec : full_benchmark()) full_total += spec.total_bytes();
  EXPECT_LT(mobile_total * 3, full_total);
}

TEST(PageSpec, TopicNames) {
  EXPECT_STREQ(to_string(Topic::kSports), "sports");
  EXPECT_STREQ(to_string(Topic::kFinance), "finance");
}

TEST(Generator, HostsEveryReferencedResource) {
  // Parse the generated HTML/CSS/JS and verify that every static reference
  // resolves — generated pages must load with zero 404s.
  for (const PageSpec& spec : {espn_sports_spec(), m_cnn_spec()}) {
    net::WebServer server;
    PageGenerator generator(3);
    const std::string main_url = generator.host_page(spec, server);

    const net::Resource* main = server.find(main_url);
    ASSERT_NE(main, nullptr);
    const auto parsed = web::parse_html(main->body);
    for (const auto& ref : parsed.references) {
      EXPECT_NE(server.find(ref.url), nullptr) << ref.url;
      if (ref.kind == net::ResourceKind::kCss) {
        for (const auto& url : web::scan_css_urls(server.find(ref.url)->body)) {
          EXPECT_NE(server.find(url), nullptr) << url;
        }
      }
    }
  }
}

TEST(Generator, StructuralCountsMatchSpec) {
  const PageSpec spec = espn_sports_spec();
  net::WebServer server;
  PageGenerator generator(3);
  const auto parsed = web::parse_html(
      server.find(generator.host_page(spec, server))->body);

  // <img> tags, stylesheets, script files as specified.
  EXPECT_EQ(static_cast<int>(parsed.dom.find_all("img").size()),
            spec.html_images);
  int css_refs = 0;
  int js_refs = 0;
  for (const auto& ref : parsed.references) {
    if (ref.kind == net::ResourceKind::kCss) ++css_refs;
    if (ref.kind == net::ResourceKind::kJs) ++js_refs;
  }
  EXPECT_EQ(css_refs, spec.css_files);
  EXPECT_EQ(js_refs, spec.js_files);
  EXPECT_EQ(static_cast<int>(parsed.secondary_urls.size()), spec.anchors);
  EXPECT_EQ(parsed.inline_scripts.size(), 1u);
}

TEST(Generator, SizesHitTargets) {
  const PageSpec spec = m_cnn_spec();
  net::WebServer server;
  PageGenerator generator(3);
  const std::string main_url = generator.host_page(spec, server);
  EXPECT_GE(server.find(main_url)->size, spec.html_bytes);
  // All resources hosted: html + css + css images + js + js images +
  // html images.
  const std::size_t expected =
      1 + static_cast<std::size_t>(spec.css_files) +
      static_cast<std::size_t>(spec.css_files * spec.css_images) +
      static_cast<std::size_t>(spec.js_files) +
      static_cast<std::size_t>(spec.js_files * spec.js_images) +
      static_cast<std::size_t>(spec.html_images) +
      static_cast<std::size_t>(spec.flash_objects);
  EXPECT_EQ(server.resource_count(), expected);
}

TEST(Generator, DeterministicPerSeedAndSite) {
  const PageSpec spec = m_cnn_spec();
  net::WebServer a;
  net::WebServer b;
  PageGenerator g1(5);
  PageGenerator g2(5);
  const std::string url_a = g1.host_page(spec, a);
  const std::string url_b = g2.host_page(spec, b);
  EXPECT_EQ(a.find(url_a)->body, b.find(url_b)->body);

  net::WebServer c;
  PageGenerator g3(6);  // different seed -> different content
  EXPECT_NE(c.find(g3.host_page(spec, c)) -> body, a.find(url_a)->body);
}

TEST(Generator, CssContainsDeclaredImageChain) {
  const PageSpec spec = espn_sports_spec();
  net::WebServer server;
  PageGenerator generator(3);
  generator.host_page(spec, server);
  const net::Resource* css = server.find("http://" + spec.site + "/css/s0.css");
  ASSERT_NE(css, nullptr);
  const auto urls = web::scan_css_urls(css->body);
  EXPECT_EQ(static_cast<int>(urls.size()), spec.css_images);
  // Full parse also succeeds and yields rules.
  EXPECT_GT(web::parse_css(css->body).rules.size(), 5u);
}

/// Every URL host_page publishes for `spec`, in hosting order.
std::vector<std::string> hosted_urls(const PageSpec& spec) {
  const std::string base = "http://" + spec.site;
  std::vector<std::string> urls{spec.main_url()};
  for (int sheet = 0; sheet < spec.css_files; ++sheet) {
    urls.push_back(base + "/css/s" + std::to_string(sheet) + ".css");
    for (int image = 0; image < spec.css_images; ++image) {
      urls.push_back(base + "/img/css" + std::to_string(sheet) + "_" +
                     std::to_string(image) + ".jpg");
    }
  }
  for (int script = 0; script < spec.js_files; ++script) {
    urls.push_back(base + "/js/a" + std::to_string(script) + ".js");
    for (int image = 0; image < spec.js_images; ++image) {
      urls.push_back(base + "/img/dyn" + std::to_string(script) + "_" +
                     std::to_string(image) + ".jpg");
    }
  }
  for (int image = 0; image < spec.html_images; ++image) {
    urls.push_back(base + "/img/h" + std::to_string(image) + ".jpg");
  }
  for (int flash = 0; flash < spec.flash_objects; ++flash) {
    urls.push_back(base + "/media/f" + std::to_string(flash) + ".swf");
  }
  return urls;
}

// The generated bytes, pinned: an FNV-1a digest over the url, kind, size
// and body of every resource of the 20 Table-3 pages x 4 spec_variants, per
// generator seed.  Recorded before the generator was rewritten to append in
// place; any change to a byte or to the order of the RNG draws trips it.
TEST(Generator, HostedBytesArePinned) {
  std::vector<PageSpec> pages = mobile_benchmark();
  for (PageSpec& spec : full_benchmark()) pages.push_back(std::move(spec));
  std::vector<std::uint64_t> digests;
  for (const std::uint64_t seed : {1, 2, 3}) {
    std::string bytes;
    for (const PageSpec& page : pages) {
      for (const PageSpec& spec : spec_variants(page, 4, seed)) {
        net::WebServer server;
        PageGenerator(seed).host_page(spec, server);
        const std::vector<std::string> urls = hosted_urls(spec);
        ASSERT_EQ(server.resource_count(), urls.size()) << spec.site;
        for (const std::string& url : urls) {
          const net::Resource* resource = server.find(url);
          ASSERT_NE(resource, nullptr) << url;
          bytes += resource->url + '\n' +
                   std::to_string(static_cast<int>(resource->kind)) + ' ' +
                   std::to_string(resource->size) + '\n' + resource->body;
        }
      }
    }
    digests.push_back(fnv1a_64(bytes));
  }
  EXPECT_EQ(digests, (std::vector<std::uint64_t>{
                         15489725685951235623ULL, 3993857681279980992ULL,
                         18280664780398399216ULL}));
}

TEST(SpecVariants, JitterDeterministicAndDistinct) {
  const PageSpec base = espn_sports_spec();
  const auto a = spec_variants(base, 4, 9);
  const auto b = spec_variants(base, 4, 9);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0].site, base.site);  // variant 0 is the base itself
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_EQ(a[i].html_bytes, b[i].html_bytes);
    EXPECT_NE(a[i].site, base.site);
    EXPECT_EQ(a[i].topic, base.topic);
    EXPECT_EQ(a[i].mobile, base.mobile);
  }
}

}  // namespace
}  // namespace eab::corpus
