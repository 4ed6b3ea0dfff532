// Traced-run helpers shared by the workloads: the per-load layer tally, the
// per-layer metrics derived from it and from the spans, and the
// benchmark's own span overhead.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/scenario.hpp"
#include "obs/audit.hpp"
#include "replay.hpp"

namespace perfbench {

/// Per-load layer figures over a traced run.  Times come from the spans;
/// counts are kept for the first pass only, so they repeat exactly for a
/// seed.
struct LoadTally {
  std::size_t loads = 0;
  double js_ops_all = 0;  // over every traced load
  double events_all = 0;
  std::size_t first_loads = 0;
  double js_ops = 0;
  double events = 0;
  double cancelled = 0;
  double peak_heap = 0;
  double fetches = 0;
  double idle_promotions = 0;
  double fach_promotions = 0;
  std::size_t dom_mismatches = 0;
};

/// After a traced run_single call that produced `result`: replays the
/// layers for the same (spec, seed, pipeline), times Scenario::run_bulk of
/// the page's bytes and books the load into `tally`.
void trace_layers(const eab::corpus::PageSpec& spec,
                  const eab::core::Scenario& scenario,
                  const eab::core::SingleLoadResult& result, bool first,
                  SpanRecorder& spans, LoadTally& tally);

/// Adds the per-load layer metrics (web.*, corpus.*, browser.*,
/// core.stack_ms, net.bulk_ms, sim.*, http.*, rrc.*).  `self` is the span
/// self time per name over the traced loads.
void add_load_metrics(Report& report, std::map<std::string, double>& self,
                      const LoadTally& tally);

/// The benchmark's own tracing cost in percent: the same replays with spans
/// off and on, interleaved load by load, twice.
double span_overhead_pct(
    const std::vector<std::pair<eab::corpus::PageSpec, eab::core::Scenario>>&
        loads);

/// TraceAuditor inputs for a recording made under `stack`.
eab::obs::AuditInputs audit_inputs(const eab::core::StackConfig& stack,
                                   eab::Joules radio_energy,
                                   eab::Seconds t_end);

}  // namespace perfbench
