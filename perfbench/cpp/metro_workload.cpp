// metro_sessions: a closed loop of run_metro calls.
//
// A 2x2 metro on the serial tier, mobility on, both pipelines.  Each
// repetition draws a fresh metro seed and runs the Original pipeline, then
// the energy-aware one, on it.  Sessions cannot be timed one by one (every
// UE shares one simulator), so per-session host time is each call's wall
// divided by its completed sessions.  The traced run times run_metro, the
// codec round trip, and replays the layers on the session page mix.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"
#include "layers.hpp"
#include "metro/metro.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace eab;
using browser::PipelineMode;

struct MetroShape {
  int grid = 2;            // grid x grid cells
  int users_per_cell = 12;  // near the 5 % drop knee at 6 channel pairs
  Seconds horizon = 300;
};

MetroShape shape_for(bool tiny) {
  return tiny ? MetroShape{2, 3, 60} : MetroShape{};
}

metro::MetroConfig metro_config(PipelineMode mode, std::uint64_t cell_seed,
                                const MetroShape& shape) {
  cell::CellConfig cell;
  cell.per_ue = core::ScenarioBuilder(mode).build();
  cell.specs = corpus::mobile_benchmark();
  cell.users = shape.users_per_cell;
  cell.channels = 6;
  cell.horizon = shape.horizon;
  cell.cell_seed = cell_seed;
  cell.sim_shards = 1;
  return metro::MetroBuilder()
      .grid(shape.grid, shape.grid)
      .cell(cell)
      .mean_dwell(120.0)
      .hotspot(0.5)
      .policy(metro::HandoverPolicy::kHard)
      .build();
}

/// The two calls of repetition `rep`: one metro seed, both pipelines.
std::vector<metro::MetroConfig> repetition(std::uint64_t seed, int rep,
                                           const MetroShape& shape) {
  const std::uint64_t cell_seed = derive_seed(seed, static_cast<std::uint64_t>(rep));
  return {metro_config(PipelineMode::kOriginal, cell_seed, shape),
          metro_config(PipelineMode::kEnergyAware, cell_seed, shape)};
}

/// Output checks of one metro run; returns the serialized result (the
/// digest input) or an empty string after booking a failure.
std::string checked_bytes(const metro::MetroResult& result, Report& report) {
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const cell::CellResult& cr = result.cells[c];
    if (cr.leaked_flows != 0) {
      report.fail("cell " + std::to_string(c) + " leaked " +
                  std::to_string(cr.leaked_flows) + " flows");
      return {};
    }
    for (const cell::UeStats& ue : cr.per_ue) {
      if (ue.offered != ue.admitted + ue.dropped ||
          ue.completed + ue.aborted > ue.admitted) {
        report.fail("cell " + std::to_string(c) + ": UE session ledger broken");
        return {};
      }
    }
  }
  std::string bytes = metro::serialize_metro_result(result);
  if (metro::serialize_metro_result(metro::deserialize_metro_result(bytes)) !=
      bytes) {
    report.fail("metro codec round trip differs");
    return {};
  }
  return bytes;
}

/// Runs one metro call with its checks; false when it throws or fails one.
bool run_checked(const metro::MetroConfig& config, Report& report,
                 metro::MetroResult& out, std::string& bytes) {
  ++report.attempted;
  try {
    out = metro::run_metro(config);
  } catch (const std::exception& e) {
    report.fail(std::string("run_metro: ") + e.what());
    return false;
  }
  bytes = checked_bytes(out, report);
  return !bytes.empty();
}

/// Set-up: configs plus one untimed warm-up metro over a tenth of the
/// horizon, repeated and reported as a median.
double set_up(const Args& args, const MetroShape& shape) {
  MetroShape warm = shape;
  warm.horizon = shape.horizon / 10;
  return median_setup_seconds(args.tiny ? 2 : 5, [&] {
    repetition(args.seed, 0, shape);
    metro::run_metro(repetition(args.seed, 0, warm).back());
  });
}

Report run_untraced(const Args& args) {
  Report report;
  const MetroShape shape = shape_for(args.tiny);
  const double setup_s = set_up(args, shape);

  std::vector<double> ms_per_session;
  double sessions = 0;
  double ue_hours = 0;
  Digest digest;
  const std::int64_t loop_start = now_ns();
  for (int rep = 0;; ++rep) {
    for (const metro::MetroConfig& config : repetition(args.seed, rep, shape)) {
      metro::MetroResult result;
      std::string bytes;
      const std::int64_t start = now_ns();
      const bool ok = run_checked(config, report, result, bytes);
      const double ms = static_cast<double>(now_ns() - start) / 1e6;
      if (!ok) continue;
      if (rep == 0) digest.bytes(bytes);
      sessions += static_cast<double>(result.completed);
      ue_hours += result.total_users * result.end_time / 3600.0;
      if (result.completed > 0) {
        ms_per_session.push_back(ms / static_cast<double>(result.completed));
      }
    }
    if (seconds_since(loop_start) >= args.seconds) break;
  }
  const double wall = seconds_since(loop_start);

  report.add("loads_per_s", sessions / wall, "1/s");
  report.add("load_ms_p50", harrell_davis(ms_per_session, 0.5), "ms");
  report.add("load_ms_p99",
             ms_per_session.empty()
                 ? 0
                 : *std::max_element(ms_per_session.begin(),
                                     ms_per_session.end()),
             "ms");
  report.add("session_hours_per_s", ue_hours / wall, "1/s");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.digest = digest.hex();
  char line[200];
  std::snprintf(line, sizeof(line),
                "samples: %zu run_metro calls, %.0f completed sessions in "
                "%.2f s; load_ms_* are per-call wall / completed sessions "
                "(p50 = median, p99 = largest call)",
                ms_per_session.size(), sessions, wall);
  report.note(line);
  return report;
}

/// The obs pass: a short metro with StackConfig::trace off and on.  The
/// traced result (recordings stripped) must serialize to the same bytes and
/// every UE's recording must pass TraceAuditor.
void obs_pass(const Args& args, const MetroShape& shape, Report& report) {
  MetroShape slice = shape;
  slice.horizon = std::min<Seconds>(shape.horizon, 120);
  metro::MetroConfig config = metro_config(
      PipelineMode::kEnergyAware, derive_seed(args.seed, 999'999), slice);
  std::int64_t start = now_ns();
  const metro::MetroResult plain = metro::run_metro(config);
  const double off_s = seconds_since(start);
  config.cell.per_ue.stack.trace = true;
  start = now_ns();
  metro::MetroResult traced = metro::run_metro(config);
  const double on_s = seconds_since(start);
  ++report.attempted;

  const obs::TraceAuditor auditor;
  double violations = 0;
  double events = 0;
  double ues = 0;
  bool all_recorded = true;
  for (cell::CellResult& cr : traced.cells) {
    for (cell::UeStats& ue : cr.per_ue) {
      ++ues;
      if (ue.trace == nullptr) {
        all_recorded = false;
        continue;
      }
      const obs::AuditReport audit = auditor.audit(
          *ue.trace, audit_inputs(config.cell.per_ue.stack, ue.energy.radio_j,
                                  traced.end_time));
      violations += static_cast<double>(audit.violations.size());
      if (!audit.ok()) report.fail("metro UE audit: " + audit.summary());
      events += static_cast<double>(ue.trace->size());
      ue.trace.reset();  // serialize_metro_result refuses recordings
    }
  }
  if (!all_recorded || metro::serialize_metro_result(traced) !=
                           metro::serialize_metro_result(plain)) {
    report.fail("traced metro differs from untraced");
  }
  report.add("obs.trace_overhead_pct",
             off_s > 0 ? 100.0 * (on_s / off_s - 1.0) : 0, "%");
  report.add("obs.trace_events", ues > 0 ? events / ues : 0, "count");
  report.add("obs.audit_violations", violations, "count");
}

/// The session page mix under `stack`, one seed per page: what one
/// completed session costs in each layer, on average.
std::vector<std::pair<corpus::PageSpec, core::Scenario>> mix_loads(
    const core::StackConfig& stack, std::uint64_t seed) {
  std::vector<std::pair<corpus::PageSpec, core::Scenario>> loads;
  const std::vector<corpus::PageSpec> mix = corpus::mobile_benchmark();
  for (std::size_t page = 0; page < mix.size(); ++page) {
    loads.emplace_back(mix[page], core::ScenarioBuilder()
                                      .stack(stack)
                                      .seed(derive_seed(seed, 100 + page))
                                      .build());
  }
  return loads;
}

/// Metro counts of the first repetition (both pipelines), which repeat for
/// a seed.
struct MetroCounts {
  double offered = 0, dropped = 0, completed = 0, aborted = 0;
  double overcommits = 0, peak_busy = 0, handovers = 0, reselects = 0;
  double handover_drops = 0, sim_events = 0, codec_bytes = 0;

  void add(const metro::MetroResult& r, std::size_t bytes) {
    offered += static_cast<double>(r.offered);
    dropped += static_cast<double>(r.dropped);
    completed += static_cast<double>(r.completed);
    aborted += static_cast<double>(r.aborted);
    handovers += static_cast<double>(r.handovers);
    reselects += static_cast<double>(r.reselects);
    handover_drops += static_cast<double>(r.handover_drops);
    sim_events += static_cast<double>(r.sim_events);
    codec_bytes += static_cast<double>(bytes);
    for (const cell::CellResult& cr : r.cells) {
      overcommits += static_cast<double>(cr.grant_overcommits);
      peak_busy = std::max(peak_busy, static_cast<double>(cr.peak_busy_grants));
    }
  }
};

Report run_traced(const Args& args) {
  Report report;
  const MetroShape shape = shape_for(args.tiny);
  set_up(args, shape);

  SpanRecorder spans(true);
  LoadTally tally;
  MetroCounts counts;
  std::size_t calls = 0;
  double sessions = 0;
  double non_web_ms = 0;  // run_metro wall minus sessions x web+corpus
  std::int64_t op = 0;
  const std::int64_t loop_start = now_ns();
  for (int rep = 0;; ++rep) {
    const std::uint64_t rep_seed =
        derive_seed(args.seed, static_cast<std::uint64_t>(rep));
    for (const metro::MetroConfig& config : repetition(args.seed, rep, shape)) {
      spans.set_op(op++);
      const std::size_t first_span = spans.spans().size();
      const auto mix = mix_loads(config.cell.per_ue.stack, rep_seed);
      metro::MetroResult result;
      std::string bytes;
      {
        SpanScope root(spans, "op");
        bool ok = false;
        {
          SpanScope span(spans, "metro.run");
          ++report.attempted;
          try {
            result = metro::run_metro(config);
            ok = true;
          } catch (const std::exception& e) {
            report.fail(std::string("run_metro: ") + e.what());
          }
        }
        if (!ok) continue;
        {
          SpanScope span(spans, "codec.round_trip");
          bytes = checked_bytes(result, report);
        }
        for (const auto& [spec, scenario] : mix) {
          core::SingleLoadResult r;
          {
            SpanScope span(spans, "core.run_single");
            ++report.attempted;
            try {
              r = scenario.run_single(spec);
            } catch (const std::exception& e) {
              report.fail(spec.site + ": " + e.what());
              continue;
            }
          }
          trace_layers(spec, scenario, r, rep == 0, spans, tally);
        }
      }
      ++calls;
      auto self = spans.self_ms_by_name(first_span);
      double web_corpus_ms = 0;
      for (const char* name : kWebCorpusSpans) web_corpus_ms += self[name];
      sessions += static_cast<double>(result.completed);
      non_web_ms += self["metro.run"] - static_cast<double>(result.completed) *
                                            web_corpus_ms /
                                            static_cast<double>(mix.size());
      if (rep == 0) counts.add(result, bytes.size());
    }
    if (seconds_since(loop_start) >= args.seconds) break;
  }

  auto self = spans.self_ms_by_name();
  const double ops = static_cast<double>(std::max<std::size_t>(calls, 1));
  add_load_metrics(report, self, tally);
  report.add("core.op_ms", self["metro.run"] / ops, "ms");
  report.add("core.non_web_ms", sessions > 0 ? non_web_ms / sessions : 0, "ms");
  report.add("codec.round_trip_ms", self["codec.round_trip"] / ops, "ms");
  report.add("codec.bytes", counts.codec_bytes / 2, "bytes");
  report.add("cell.offered", counts.offered, "count");
  report.add("cell.dropped", counts.dropped, "count");
  report.add("cell.completed", counts.completed, "count");
  report.add("cell.aborted", counts.aborted, "count");
  report.add("cell.grant_overcommits", counts.overcommits, "count");
  report.add("cell.peak_busy_grants", counts.peak_busy, "count");
  report.add("cell.drop_ratio",
             counts.offered > 0 ? counts.dropped / counts.offered : 0, "ratio");
  report.add("metro.handovers", counts.handovers, "count");
  report.add("metro.reselects", counts.reselects, "count");
  report.add("metro.handover_drops", counts.handover_drops, "count");
  report.add("metro.sim_events", counts.sim_events, "count");
  obs_pass(args, shape, report);
  report.add("bench.span_overhead_pct",
             span_overhead_pct(mix_loads(
                 core::ScenarioBuilder(PipelineMode::kEnergyAware).build().stack,
                 args.seed)),
             "%");

  char line[240];
  std::snprintf(line, sizeof(line),
                "traced: %zu run_metro calls, %.0f sessions, %zu mix loads; "
                "core.non_web_ms is an ESTIMATE (run_metro wall minus sessions "
                "x the mix's replayed web+corpus ms); drop ratio %.0f/%.0f",
                calls, sessions, tally.loads, counts.dropped, counts.offered);
  report.note(line);
  report.note(self_time_table(spans));
  if (!args.spans_out.empty() && !spans.write(args.spans_out)) {
    report.note("could not write spans to " + args.spans_out);
    report.checks_ok = false;
  }
  return report;
}

}  // namespace

Report run_metro_sessions(const Args& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
