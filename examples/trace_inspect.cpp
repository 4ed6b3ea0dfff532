// Trace inspection CLI: runs one traced page load, prints the recording in
// human terms — per-kind event counts, RRC residency, a per-fetch table —
// runs the cross-layer TraceAuditor over it, and optionally exports the
// Chrome-trace JSON.  Exits 1 if any audit invariant is violated, so it
// doubles as a one-shot smoke check of the instrumentation.
//
// Usage: trace_inspect [mobile] [--faults] [--outage] [--json FILE]
//        [--timeseries]
//   mobile       use the m.cnn.com spec instead of espn.go.com/sports
//   --faults     inject the 20 % composite fault mix (retry/timeout events)
//   --outage     drop radio coverage mid-load (RLF, OUT_OF_SERVICE camping
//                and re-establishment attempts appear on the RRC track)
//   --json FILE  write the Chrome-trace export to FILE
//   --timeseries rebuild the load as obs::Telemetry series (total power,
//                link flows, outstanding fetches), print ASCII sparklines
//                and the JSON dump; with --json the series also become
//                Perfetto counter tracks in the export
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"
#include "obs/audit.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/telemetry.hpp"
#include "radio/outage.hpp"
#include "radio/rrc_config.hpp"

namespace {

/// One-line ASCII sparkline over a series' retained window means.
void print_sparkline(const std::string& name, const eab::obs::TimeSeries& s) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  double lo = 0, hi = 0;
  bool first = true;
  for (const auto& p : s.points()) {
    lo = first ? p.mean() : std::min(lo, p.mean());
    hi = first ? p.mean() : std::max(hi, p.mean());
    first = false;
  }
  std::string line;
  for (const auto& p : s.points()) {
    const int level =
        hi > lo ? static_cast<int>((p.mean() - lo) / (hi - lo) * 7.999) : 0;
    line += kBlocks[level];
  }
  std::printf("  %-20s %s  [%.4g, %.4g]  %zu pts @ %.3g s\n", name.c_str(),
              line.c_str(), lo, hi, s.points().size(), s.width());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  bool mobile = false;
  bool faults = false;
  bool outage = false;
  bool timeseries = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "mobile") mobile = true;
    if (arg == "--faults") faults = true;
    if (arg == "--outage") outage = true;
    if (arg == "--timeseries") timeseries = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }
  const corpus::PageSpec page =
      mobile ? corpus::m_cnn_spec() : corpus::espn_sports_spec();

  core::ScenarioBuilder builder(browser::PipelineMode::kEnergyAware);
  builder.trace();
  if (faults) {
    net::FaultPlan plan;
    plan.seed = 20130707;
    plan.connection_loss_rate = 0.08;
    plan.stall_rate = 0.04;
    plan.truncate_rate = 0.04;
    plan.slow_first_byte_rate = 0.04;
    net::RetryPolicy retry;
    retry.request_timeout = 8.0;
    retry.max_retries = 2;
    retry.backoff_initial = 0.5;
    retry.backoff_factor = 2.0;
    builder.fault_plan(plan).retry(retry);
  }
  if (outage) {
    radio::OutagePlan plan;
    plan.seed = 20130707;
    plan.count = 2;
    plan.start = 1.0;
    plan.period = 6.0;
    plan.duration = 1.5;
    plan.reestablish_fail_rate = 0.5;
    builder.outage(plan);
  }

  const auto r = builder.build().run_single(page);
  const core::StackConfig config = builder.build().stack;
  const obs::TraceRecorder& trace = *r.trace;
  std::printf("page %s  load %.2f s  energy %.1f J  %zu trace events\n\n",
              page.site.c_str(), r.metrics.total_time(), r.energy.load_j,
              trace.size());

  // Per-kind counts, sorted by label.
  std::map<std::string, std::size_t> by_kind;
  for (const auto& event : trace.events()) {
    ++by_kind[obs::to_string(event.kind)];
  }
  std::printf("events by kind:\n");
  for (const auto& [kind, n] : by_kind) {
    std::printf("  %-22s %zu\n", kind.c_str(), n);
  }

  // RRC residency, reconstructed from the state-enter stream.
  std::printf("\nrrc residency (to %.2f s):\n", r.energy.window_s);
  for (const auto& span : trace.rrc_state_spans(r.energy.window_s)) {
    std::printf("  %-5s %8.3f - %8.3f  (%.3f s)\n",
                radio::to_string(static_cast<radio::RrcState>(span.tag)),
                span.begin, span.end, span.duration());
  }

  // Radio-failure timeline: coverage holes, RLFs and re-establishment
  // attempts, printed only when the recording holds any (i.e. --outage or a
  // chaos replay); a healthy-radio run's output is unchanged.
  bool any_radio = false;
  for (const auto& event : trace.events()) {
    switch (event.kind) {
      case obs::TraceKind::kRadioCoverageLost:
      case obs::TraceKind::kRadioCoverageBack:
      case obs::TraceKind::kRrcRlf:
      case obs::TraceKind::kRrcReestablishStart:
      case obs::TraceKind::kRrcReestablishOk:
      case obs::TraceKind::kRrcReestablishFail:
        any_radio = true;
        break;
      default:
        break;
    }
  }
  if (any_radio) {
    std::printf("\nradio failures:\n");
    for (const auto& event : trace.events()) {
      switch (event.kind) {
        case obs::TraceKind::kRadioCoverageLost:
          std::printf("  %8.3f  coverage lost\n", event.t);
          break;
        case obs::TraceKind::kRadioCoverageBack:
          std::printf("  %8.3f  coverage back\n", event.t);
          break;
        case obs::TraceKind::kRrcRlf:
          std::printf("  %8.3f  radio link failure (was %s)\n", event.t,
                      radio::to_string(
                          static_cast<radio::RrcState>(event.a)));
          break;
        case obs::TraceKind::kRrcReestablishStart:
          std::printf("  %8.3f  re-establish attempt %lld\n", event.t,
                      static_cast<long long>(event.a));
          break;
        case obs::TraceKind::kRrcReestablishOk:
          std::printf("  %8.3f  re-establish ok (attempt %lld)\n", event.t,
                      static_cast<long long>(event.a));
          break;
        case obs::TraceKind::kRrcReestablishFail:
          std::printf("  %8.3f  re-establish failed (attempt %lld)\n",
                      event.t, static_cast<long long>(event.a));
          break;
        default:
          break;
      }
    }
  }

  // Per-fetch table from the settled events.
  std::printf("\nfetches:\n");
  std::printf("  %-40s %8s %6s %10s %9s\n", "url", "settled", "tries", "bytes",
              "status");
  for (const auto& event : trace.events()) {
    if (event.kind != obs::TraceKind::kHttpFetchSettled) continue;
    std::printf("  %-40s %8.3f %6lld %10.0f %9s\n",
                trace.name(event.name).c_str(), event.t,
                static_cast<long long>(event.a), event.x,
                net::to_string(static_cast<net::FetchStatus>(event.b)));
  }

  // The cross-layer audit: legality, timers, markers, retries, energy.
  const auto report = obs::TraceAuditor().audit(
      trace,
      core::make_audit_inputs(config, r.energy.radio_j, r.energy.window_s));
  std::printf("\naudit: %d transitions, %d fetches, trace energy %.6f J vs "
              "timeline %.6f J\n",
              report.transitions_checked, report.fetches_checked,
              report.trace_energy, report.reference_energy);
  if (report.ok()) {
    std::printf("audit: all invariants held\n");
  } else {
    std::printf("audit FAILED:\n%s\n", report.summary().c_str());
  }

  // --timeseries: rebuild the load as fixed-budget telemetry series from
  // the exact artifacts already in hand (the power timeline's change points
  // and the trace's fetch/flow pairings), then render them.
  obs::Telemetry telemetry{obs::TelemetryConfig{0.5, 128, false}};
  if (timeseries) {
    for (const auto& sample :
         r.total_power.sample(0.0, r.energy.window_s, 0.5)) {
      telemetry.sample("power_w", sample.time, sample.power);
    }
    std::int64_t flows = 0;
    std::int64_t fetches = 0;
    for (const auto& event : trace.events()) {
      switch (event.kind) {
        case obs::TraceKind::kLinkFlowStart:
          telemetry.sample("link_flows", event.t, static_cast<double>(++flows));
          break;
        case obs::TraceKind::kLinkFlowComplete:
        case obs::TraceKind::kLinkFlowCancel:
          telemetry.sample("link_flows", event.t, static_cast<double>(--flows));
          break;
        case obs::TraceKind::kHttpFetchQueued:
          telemetry.sample("fetches_outstanding", event.t,
                           static_cast<double>(++fetches));
          break;
        case obs::TraceKind::kHttpFetchSettled:
          telemetry.sample("fetches_outstanding", event.t,
                           static_cast<double>(--fetches));
          break;
        default:
          break;
      }
    }
    std::printf("\ntimeseries (window means):\n");
    for (const auto& [name, series] : telemetry.all()) {
      print_sparkline(name, series);
    }
    std::printf("timeseries json: %s\n", telemetry.to_json().c_str());
  }

  if (!json_path.empty()) {
    if (obs::write_chrome_trace(json_path, trace, r.energy.window_s,
                                timeseries ? &telemetry : nullptr)) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::printf("could not write %s\n", json_path.c_str());
    }
  }
  return report.ok() ? 0 : 1;
}
