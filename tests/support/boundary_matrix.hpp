// Shared rig for the fetch-boundary robustness matrices.
//
// chaos_abort_test (user abort) and radio_outage_boundary_test (coverage
// hole) both disturb one page load at every fetch-settle boundary of a
// clean reference run; metro_handover_boundary_test forces a handover at
// the same kind of boundary.  This header holds what they share: the page
// spec, the single-UE stack held open for post-mortem inspection, and the
// settle-time enumerator.  The parameterised suites instantiate over
// boundary_cases(), so every (mode, instant) pair of the reference runs is
// one test instance — no fixed index range, no skipped padding.  Their
// targets register with NO_PRETTY_VALUES (tests/CMakeLists.txt), so ctest
// names the instances by index (.../0, .../1, ...) rather than by value.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "browser/cpu.hpp"
#include "browser/pipeline.hpp"
#include "core/ril.hpp"
#include "corpus/generator.hpp"
#include "net/http_client.hpp"
#include "net/outage.hpp"
#include "net/shared_link.hpp"
#include "net/web_server.hpp"
#include "obs/trace.hpp"
#include "radio/rrc.hpp"
#include "sim/simulator.hpp"

namespace eab::test {

/// A small full-page spec: HTML, CSS with images, JS with an image, inline
/// images.  The site name seeds the generated bytes, so each suite keeps its
/// own name (and therefore its own boundary instants).
inline corpus::PageSpec boundary_spec(const std::string& site) {
  corpus::PageSpec spec;
  spec.site = site;
  spec.mobile = false;
  spec.html_bytes = kilobytes(10);
  spec.css_files = 2;
  spec.css_bytes = kilobytes(3);
  spec.css_images = 2;
  spec.css_image_bytes = kilobytes(2);
  spec.js_files = 2;
  spec.js_bytes = kilobytes(2);
  spec.js_busy_iterations = 300;
  spec.js_images = 1;
  spec.js_image_bytes = kilobytes(2);
  spec.html_images = 6;
  spec.image_bytes = kilobytes(4);
  spec.anchors = 6;
  spec.paragraphs = 8;
  return spec;
}

/// The full single-load stack, held open so a test can inspect every layer
/// after teardown, plus a manually-driven outage injector (its plan is
/// disabled, so nothing is scheduled unless a test calls hole_at).
struct Stack {
  sim::Simulator sim;
  net::WebServer server;
  radio::RrcConfig rrc_config;
  radio::RadioPowerModel power;
  radio::LinkConfig link_config;
  radio::RrcMachine rrc;
  net::SharedLink link;
  net::HttpClient client;
  browser::CpuScheduler cpu;
  core::RilStateSwitcher ril;
  net::OutageInjector outage;
  obs::TraceRecorder trace;
  browser::PageLoad load;
  std::string url;
  int done_count = 0;
  browser::LoadMetrics metrics;

  Stack(browser::PipelineMode mode, const std::string& site)
      : rrc(sim, rrc_config, power),
        link(sim, link_config.dch_bandwidth),
        client(sim, server, link, rrc, link_config),
        cpu(sim, power.cpu_busy_extra),
        ril(sim, rrc),
        outage(sim, link, rrc, radio::OutagePlan{}),
        load(sim, client, cpu,
             [mode] {
               browser::PipelineConfig config;
               config.mode = mode;
               return config;
             }(),
             1234) {
    corpus::PageGenerator generator(1);
    url = generator.host_page(boundary_spec(site), server);
    if (mode == browser::PipelineMode::kEnergyAware) {
      load.set_on_transmission_complete([this] { ril.request_idle(); });
    }
    // The RLF hook mirrors the assembly paths: the client settles its
    // in-flight attempts (releasing transfer markers) inside the declaration.
    rrc.set_on_rlf([this] { client.on_radio_lost(); });
    rrc.set_trace(&trace);
    link.set_trace(&trace);
    client.set_trace(&trace);
    ril.set_trace(&trace);
    outage.set_trace(&trace);
    load.set_trace(&trace);
  }

  void start() {
    load.start(url, [this](const browser::LoadMetrics& m) {
      ++done_count;
      metrics = m;
    });
  }

  /// Schedules one coverage hole [at, at + duration).  The default duration
  /// outlasts the T313 detection window (rrc_config.rlf_detect = 1 s), so
  /// the hole always declares RLF when an RRC connection is up.
  void hole_at(Seconds at, Seconds duration = 1.5) {
    sim.schedule_at(at, [this] { outage.coverage_lost(); });
    sim.schedule_at(at + duration, [this] { outage.coverage_restored(); });
  }

  void run_to_done() {
    while (done_count == 0 && sim.step()) {
    }
    ASSERT_EQ(done_count, 1);
  }
};

/// Sorted, de-duplicated disturbance instants: `extra` plus a hair (1 us)
/// after every fetch-settle event of a reference recording.
inline std::vector<Seconds> settle_instants(const obs::TraceRecorder& trace,
                                            std::vector<Seconds> extra) {
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.kind == obs::TraceKind::kHttpFetchSettled) {
      extra.push_back(e.t + 1e-6);
    }
  }
  std::sort(extra.begin(), extra.end());
  extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
  return extra;
}

/// Boundary instants of `site`'s page under one mode: just inside the first
/// fetch, then a hair after every distinct fetch-settle time of a clean
/// reference run.  Cached per (mode, site).
inline const std::vector<Seconds>& boundaries_for(browser::PipelineMode mode,
                                                  const std::string& site) {
  static std::map<std::pair<browser::PipelineMode, std::string>,
                  std::vector<Seconds>>
      cache;
  const auto key = std::make_pair(mode, site);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  Stack reference(mode, site);
  reference.start();
  reference.run_to_done();
  return cache.emplace(key, settle_instants(reference.trace, {0.05}))
      .first->second;
}

/// One instance of a boundary matrix: a pipeline and a disturbance instant.
struct BoundaryCase {
  browser::PipelineMode mode;
  Seconds at;

  friend void PrintTo(const BoundaryCase& c, std::ostream* os) {
    *os << (c.mode == browser::PipelineMode::kOriginal ? "original"
                                                        : "energy-aware")
        << " @ " << c.at << " s";
  }
};

/// Every (mode, instant) pair of `site`'s reference runs, Original first.
inline std::vector<BoundaryCase> boundary_cases(const std::string& site) {
  std::vector<BoundaryCase> cases;
  for (const browser::PipelineMode mode :
       {browser::PipelineMode::kOriginal, browser::PipelineMode::kEnergyAware}) {
    for (const Seconds at : boundaries_for(mode, site)) {
      cases.push_back({mode, at});
    }
  }
  return cases;
}

}  // namespace eab::test
