#include "layers.hpp"

namespace perfbench {

using namespace eab;

void trace_layers(const corpus::PageSpec& spec, const core::Scenario& scenario,
                  const core::SingleLoadResult& result, bool first,
                  SpanRecorder& spans, LoadTally& tally) {
  const ReplayResult replay =
      replay_load(spec, scenario.seed, scenario.stack.pipeline, spans);
  {
    SpanScope span(spans, "net.bulk");
    scenario.run_bulk(static_cast<Bytes>(replay.total_bytes));
  }
  if (replay.dom_signature != result.dom_signature) ++tally.dom_mismatches;
  const obs::MetricsRegistry& m = result.job_metrics;
  ++tally.loads;
  tally.js_ops_all += static_cast<double>(replay.js_ops);
  tally.events_all += m.value("sim.events_fired");
  if (!first) return;
  ++tally.first_loads;
  tally.js_ops += static_cast<double>(replay.js_ops);
  tally.events += m.value("sim.events_fired");
  tally.cancelled += m.value("sim.events_cancelled");
  tally.peak_heap += m.value("sim.peak_heap");
  tally.fetches += m.value("http.fetches");
  tally.idle_promotions += m.value("rrc.idle_promotions");
  tally.fach_promotions += m.value("rrc.fach_promotions");
}

void add_load_metrics(Report& report, std::map<std::string, double>& self,
                      const LoadTally& tally) {
  const double loads = static_cast<double>(std::max<std::size_t>(tally.loads, 1));
  const double first =
      static_cast<double>(std::max<std::size_t>(tally.first_loads, 1));
  const double run_ms = self["web.js.run"];
  const double run_single_ms = self["core.run_single"];
  double replayed_ms = 0;
  for (const char* name : kWebCorpusBrowserSpans) replayed_ms += self[name];
  const double stack_ms = run_single_ms - replayed_ms;

  report.add("web.js.run_ms", run_ms / loads, "ms");
  report.add("web.js.parse_ms", self["web.js.parse"] / loads, "ms");
  report.add("web.js.ops", tally.js_ops / first, "count");
  report.add("web.js.ns_per_op",
             tally.js_ops_all > 0 ? run_ms * 1e6 / tally.js_ops_all : 0, "ns");
  report.add("web.js.share_pct",
             run_single_ms > 0 ? 100.0 * run_ms / run_single_ms : 0, "%");
  report.add("web.html.parse_ms", self["web.html.parse"] / loads, "ms");
  report.add("web.css.scan_ms", self["web.css.scan"] / loads, "ms");
  report.add("web.css.parse_ms", self["web.css.parse"] / loads, "ms");
  report.add("corpus.generate_ms", self["corpus.generate"] / loads, "ms");
  report.add("browser.layout_ms", self["browser.layout"] / loads, "ms");
  report.add("core.stack_ms", stack_ms / loads, "ms");
  report.add("net.bulk_ms", self["net.bulk"] / loads, "ms");
  report.add("sim.events_fired", tally.events / first, "count");
  report.add("sim.events_cancelled", tally.cancelled / first, "count");
  report.add("sim.peak_heap", tally.peak_heap / first, "count");
  report.add("sim.ns_per_event",
             tally.events_all > 0 ? stack_ms * 1e6 / tally.events_all : 0, "ns");
  report.add("http.fetches", tally.fetches / first, "count");
  report.add("rrc.idle_promotions", tally.idle_promotions / first, "count");
  report.add("rrc.fach_promotions", tally.fach_promotions / first, "count");
  if (tally.dom_mismatches > 0) {
    report.note("replay diverged from run_single's DOM on " +
                std::to_string(tally.dom_mismatches) +
                " loads: layer figures are suspect");
    report.checks_ok = false;
  }
}

double span_overhead_pct(
    const std::vector<std::pair<corpus::PageSpec, core::Scenario>>& loads) {
  SpanRecorder off(false);
  SpanRecorder on(true);
  double off_s = 0;
  double on_s = 0;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [spec, scenario] : loads) {
      std::int64_t start = now_ns();
      replay_load(spec, scenario.seed, scenario.stack.pipeline, off);
      off_s += seconds_since(start);
      start = now_ns();
      replay_load(spec, scenario.seed, scenario.stack.pipeline, on);
      on_s += seconds_since(start);
    }
  }
  return off_s > 0 ? 100.0 * (on_s / off_s - 1.0) : 0;
}

obs::AuditInputs audit_inputs(const core::StackConfig& stack,
                              Joules radio_energy, Seconds t_end) {
  obs::AuditInputs inputs;
  inputs.rrc = stack.rrc;
  inputs.power = stack.power;
  inputs.max_retries = stack.retry.max_retries;
  inputs.radio_energy = radio_energy;
  inputs.t_end = t_end;
  return inputs;
}

}  // namespace perfbench
