// page_loads and config_sweep: closed loops of Scenario::run_single calls.
//
// Both walk "passes" of load jobs, one run_single call per job, and stop at
// the first pass boundary past the time budget.  page_loads builds every
// pass from fresh seeds (new variants, new page bytes), so no two loads
// share content; config_sweep repeats one pass — the 20 Table-3 pages at one
// seed under every stack config the figure harnesses sweep — so every load
// regenerates and reparses bytes another load already produced.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"
#include "layers.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace eab;
using browser::PipelineMode;

struct LoadJob {
  corpus::PageSpec spec;
  core::Scenario scenario;
  int pair = 0;  // jobs of one pair share (spec, seed): same DOM, same bytes
};
using Pass = std::vector<LoadJob>;
using PassMaker = std::function<Pass(int pass)>;

constexpr int kMinLoads = 1000;       // p99 needs ten loads beyond it
constexpr double kMaxLoopSeconds = 120;  // cap when the host is very slow
constexpr std::size_t kSliceLoads = 16;  // obs pass and span-overhead slice

std::vector<corpus::PageSpec> table3_pages(bool tiny) {
  std::vector<corpus::PageSpec> pages = corpus::mobile_benchmark();
  for (corpus::PageSpec& spec : corpus::full_benchmark()) {
    pages.push_back(std::move(spec));
  }
  if (tiny) pages = {pages.front(), pages.back()};
  return pages;
}

core::Scenario scenario(const core::StackConfig& stack, std::uint64_t seed) {
  return core::ScenarioBuilder().stack(stack).seed(seed).build();
}

core::StackConfig stack_for(PipelineMode mode) {
  return core::ScenarioBuilder(mode).build().stack;
}

/// Every stack config the figure harnesses sweep: both pipelines, the four
/// one-piece-off ablations of bench_ablation_pipeline and the T1/T2 pairs
/// of bench_ablation_timers (on the stock browser).
std::vector<core::StackConfig> swept_configs() {
  std::vector<core::StackConfig> configs;
  const core::StackConfig orig = stack_for(PipelineMode::kOriginal);
  const core::StackConfig ea = stack_for(PipelineMode::kEnergyAware);
  configs.push_back(orig);
  configs.push_back(ea);
  core::StackConfig c = ea;
  c.pipeline.priority_fetch = false;
  configs.push_back(c);
  c = ea;
  c.pipeline.defer_css_parse = false;
  configs.push_back(c);
  c = ea;
  c.pipeline.intermediate_text_display = false;
  configs.push_back(c);
  c = ea;
  c.force_idle_at_tx = false;
  configs.push_back(c);
  for (const auto& [t1, t2] : std::vector<std::pair<double, double>>{
           {2.0, 8.0}, {1.0, 4.0}, {0.5, 2.0}, {8.0, 30.0}}) {
    c = orig;
    c.rrc.t1 = t1;
    c.rrc.t2 = t2;
    configs.push_back(c);
  }
  return configs;
}

PassMaker page_loads_passes(std::uint64_t seed, bool tiny) {
  return [seed, tiny](int pass) {
    const std::vector<corpus::PageSpec> pages = table3_pages(tiny);
    const int variants = tiny ? 2 : 4;
    const std::uint64_t pass_seed = derive_seed(seed, static_cast<std::uint64_t>(pass));
    const core::StackConfig orig = stack_for(PipelineMode::kOriginal);
    const core::StackConfig ea = stack_for(PipelineMode::kEnergyAware);
    Pass jobs;
    int pair = 0;
    for (std::size_t page = 0; page < pages.size(); ++page) {
      for (const corpus::PageSpec& spec : corpus::spec_variants(
               pages[page], variants, derive_seed(pass_seed, 1'000'000 + page))) {
        const std::uint64_t load_seed =
            derive_seed(pass_seed, static_cast<std::uint64_t>(pair));
        jobs.push_back(LoadJob{spec, scenario(orig, load_seed), pair});
        jobs.push_back(LoadJob{spec, scenario(ea, load_seed), pair});
        ++pair;
      }
    }
    return jobs;
  };
}

PassMaker config_sweep_passes(std::uint64_t seed, bool tiny) {
  return [seed, tiny](int) {
    const std::uint64_t load_seed = derive_seed(seed, 0);
    const std::vector<core::StackConfig> configs = swept_configs();
    const std::vector<corpus::PageSpec> pages = table3_pages(tiny);
    Pass jobs;
    for (std::size_t page = 0; page < pages.size(); ++page) {
      for (const core::StackConfig& config : configs) {
        jobs.push_back(LoadJob{pages[page], scenario(config, load_seed),
                               static_cast<int>(page)});
      }
    }
    return jobs;
  };
}

/// The simulated outputs of one load that the digest covers: everything
/// the figure benches read, doubles as bit patterns.
std::string load_record(const core::SingleLoadResult& r) {
  Digest d;
  d.bytes(r.dom_signature);
  const browser::LoadMetrics& m = r.metrics;
  for (const double v : {m.started, m.transmission_done, m.first_display,
                         m.final_display, m.js_time, r.energy.load_j,
                         r.energy.with_reading_j, r.energy.radio_j,
                         r.energy.window_s, r.dch_time, r.fach_time}) {
    d.pod(v);
  }
  for (const std::int64_t v :
       {static_cast<std::int64_t>(r.bytes_fetched),
        static_cast<std::int64_t>(m.objects_fetched),
        static_cast<std::int64_t>(m.intermediate_displays),
        static_cast<std::int64_t>(r.idle_promotions),
        static_cast<std::int64_t>(r.forced_releases),
        static_cast<std::int64_t>(r.sim_events)}) {
    d.pod(v);
  }
  return d.hex();
}

/// Per-pair invariant: the paper's "same final DOM, same bytes" across
/// pipelines (and, in config_sweep, across every swept config).
struct PairCheck {
  std::map<int, std::pair<std::string, Bytes>> first;

  bool ok(const LoadJob& job, const core::SingleLoadResult& r) {
    auto [it, inserted] =
        first.try_emplace(job.pair, r.dom_signature, r.bytes_fetched);
    return inserted || (it->second.first == r.dom_signature &&
                        it->second.second == r.bytes_fetched);
  }
};

/// Runs one job with the output checks; returns false (and books the
/// failure) when it throws, does not complete or fails a check.
bool run_checked(const LoadJob& job, Report& report, PairCheck& pairs,
                 core::SingleLoadResult& out) {
  ++report.attempted;
  try {
    out = job.scenario.run_single(job.spec);
  } catch (const std::exception& e) {
    report.fail(job.spec.site + ": " + e.what());
    return false;
  }
  if (out.metrics.aborted) {
    report.fail(job.spec.site + ": load aborted");
    return false;
  }
  if (!pairs.ok(job, out)) {
    report.fail(job.spec.site + ": pipelines disagree on DOM or bytes");
    return false;
  }
  return true;
}

struct Setup {
  Pass pass0;
  double seconds = 0;
};

/// Set-up: building the first pass of inputs and configs plus one untimed
/// warm-up load, repeated and reported as a median.
Setup set_up(const PassMaker& make_pass, bool tiny) {
  Setup setup;
  setup.seconds = median_setup_seconds(tiny ? 2 : 5, [&] {
    setup.pass0 = make_pass(0);
    const LoadJob& job = setup.pass0.front();
    job.scenario.run_single(job.spec);
  });
  return setup;
}

/// Where the workload repeats its inputs, every later pass must reproduce
/// the first pass's per-load records exactly.
void check_repeat(const std::vector<std::string>& records,
                  const std::vector<std::string>& reference, Report& report) {
  for (std::size_t i = 0; i < records.size() && i < reference.size(); ++i) {
    if (!records[i].empty() && records[i] != reference[i]) {
      report.fail("load " + std::to_string(i) + " differs from its first pass");
    }
  }
}

Report run_untraced(const Args& args, const PassMaker& make_pass,
                    bool repeats_inputs) {
  Report report;
  const Setup setup = set_up(make_pass, args.tiny);
  const int min_loads = args.tiny ? 0 : kMinLoads;

  std::vector<double> load_ms;
  double simulated_s = 0;
  std::vector<std::string> reference;
  Digest digest;
  const std::int64_t loop_start = now_ns();
  for (int pass = 0;; ++pass) {
    const Pass jobs = pass == 0 ? setup.pass0 : make_pass(pass);
    std::vector<std::string> records(jobs.size());
    PairCheck pairs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      core::SingleLoadResult r;
      const std::int64_t start = now_ns();
      const bool ok = run_checked(jobs[i], report, pairs, r);
      const double ms = static_cast<double>(now_ns() - start) / 1e6;
      if (!ok) continue;
      load_ms.push_back(ms);
      simulated_s += r.energy.window_s;
      records[i] = load_record(r);
    }
    if (pass == 0) {
      for (const std::string& record : records) digest.bytes(record);
      reference = records;
    } else if (repeats_inputs) {
      check_repeat(records, reference, report);
    }
    const double elapsed = seconds_since(loop_start);
    if ((elapsed >= args.seconds &&
         static_cast<int>(load_ms.size()) >= min_loads) ||
        elapsed >= kMaxLoopSeconds) {
      break;
    }
  }
  const double wall = seconds_since(loop_start);

  const int tail = tail_percentile(load_ms.size());
  report.add("loads_per_s", static_cast<double>(load_ms.size()) / wall, "1/s");
  report.add("load_ms_p50", harrell_davis(load_ms, 0.5), "ms");
  report.add("load_ms_p99", harrell_davis(load_ms, tail / 100.0), "ms");
  report.add("session_hours_per_s", simulated_s / 3600.0 / wall, "1/s");
  report.add("setup_s", setup.seconds, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.digest = digest.hex();
  char line[160];
  std::snprintf(line, sizeof(line),
                "samples: %zu loads in %.2f s; tail metric load_ms_p99 is p%d "
                "(%zu loads beyond it)",
                load_ms.size(), wall, tail,
                load_ms.size() - static_cast<std::size_t>(
                                     load_ms.size() * tail / 100.0));
  report.note(line);
  return report;
}

/// One load, traced: the real run_single call, the layer replay and bulk
/// download (trace_layers), and the job metrics codec round trip.
void trace_one(const LoadJob& job, bool first, SpanRecorder& spans,
               Report& report, PairCheck& pairs, LoadTally& tally,
               double& codec_bytes) {
  core::SingleLoadResult r;
  {
    SpanScope span(spans, "core.run_single");
    if (!run_checked(job, report, pairs, r)) return;
  }
  trace_layers(job.spec, job.scenario, r, first, spans, tally);
  SpanScope span(spans, "codec.round_trip");
  const std::string bytes = r.job_metrics.to_bytes();
  if (first) codec_bytes += static_cast<double>(bytes.size());
  if (!obs::MetricsRegistry::from_bytes(bytes).same_as(r.job_metrics)) {
    report.fail(job.spec.site + ": metrics codec round trip differs");
  }
}

/// The obs pass: the slice re-run with StackConfig::trace off and on.  The
/// traced results must equal the untraced ones and every recording must
/// pass TraceAuditor.
void obs_pass(const Pass& slice, Report& report) {
  double off_s = 0;
  double on_s = 0;
  double events = 0;
  double violations = 0;
  const obs::TraceAuditor auditor;
  for (const LoadJob& job : slice) {
    core::Scenario traced = job.scenario;
    traced.stack.trace = true;
    std::int64_t start = now_ns();
    const core::SingleLoadResult plain = job.scenario.run_single(job.spec);
    off_s += seconds_since(start);
    start = now_ns();
    const core::SingleLoadResult rec = traced.run_single(job.spec);
    on_s += seconds_since(start);
    ++report.attempted;
    if (rec.trace == nullptr || load_record(plain) != load_record(rec)) {
      report.fail(job.spec.site + ": traced load differs from untraced");
      continue;
    }
    const obs::AuditReport audit = auditor.audit(
        *rec.trace,
        audit_inputs(traced.stack, rec.energy.radio_j, rec.energy.window_s));
    violations += static_cast<double>(audit.violations.size());
    if (!audit.ok()) report.fail(job.spec.site + ": " + audit.summary());
    events += static_cast<double>(rec.trace->size());
  }
  report.add("obs.trace_overhead_pct",
             off_s > 0 ? 100.0 * (on_s / off_s - 1.0) : 0, "%");
  report.add("obs.trace_events",
             slice.empty() ? 0 : events / static_cast<double>(slice.size()),
             "count");
  report.add("obs.audit_violations", violations, "count");
}

Report run_traced(const Args& args, const PassMaker& make_pass) {
  Report report;
  const Setup setup = set_up(make_pass, args.tiny);
  SpanRecorder spans(true);
  LoadTally tally;
  double codec_bytes = 0;
  std::int64_t op = 0;
  const std::int64_t loop_start = now_ns();
  for (int pass = 0;; ++pass) {
    const Pass jobs = pass == 0 ? setup.pass0 : make_pass(pass);
    PairCheck pairs;
    for (const LoadJob& job : jobs) {
      spans.set_op(op++);
      SpanScope root(spans, "op");
      trace_one(job, pass == 0, spans, report, pairs, tally, codec_bytes);
    }
    const double elapsed = seconds_since(loop_start);
    if (elapsed >= args.seconds || elapsed >= kMaxLoopSeconds) break;
  }

  auto self = spans.self_ms_by_name();
  const double loads = static_cast<double>(std::max<std::size_t>(tally.loads, 1));
  double web_corpus_ms = 0;
  for (const char* name : kWebCorpusSpans) web_corpus_ms += self[name];
  add_load_metrics(report, self, tally);
  report.add("core.op_ms", self["core.run_single"] / loads, "ms");
  report.add("core.non_web_ms",
             (self["core.run_single"] - web_corpus_ms) / loads, "ms");
  report.add("codec.round_trip_ms", self["codec.round_trip"] / loads, "ms");
  report.add("codec.bytes",
             codec_bytes / static_cast<double>(std::max<std::size_t>(
                               tally.first_loads, 1)),
             "bytes");
  // The cell and metro layers do not run in a page workload.
  for (const char* name :
       {"cell.offered", "cell.dropped", "cell.completed", "cell.aborted",
        "cell.grant_overcommits", "cell.peak_busy_grants", "metro.handovers",
        "metro.reselects", "metro.handover_drops", "metro.sim_events"}) {
    report.add(name, 0, "count");
  }
  report.add("cell.drop_ratio", 0, "ratio");

  const Pass slice(setup.pass0.begin(),
                   setup.pass0.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min(kSliceLoads, setup.pass0.size())));
  obs_pass(slice, report);
  std::vector<std::pair<corpus::PageSpec, core::Scenario>> replays;
  for (const LoadJob& job : slice) replays.emplace_back(job.spec, job.scenario);
  report.add("bench.span_overhead_pct", span_overhead_pct(replays), "%");

  char line[160];
  std::snprintf(line, sizeof(line),
                "traced: %zu loads (%zu in the first pass), %zu spans; "
                "cell/metro counts do not apply here (0)",
                tally.loads, tally.first_loads, spans.spans().size());
  report.note(line);
  report.note(self_time_table(spans));
  if (!args.spans_out.empty() && !spans.write(args.spans_out)) {
    report.note("could not write spans to " + args.spans_out);
    report.checks_ok = false;
  }
  return report;
}

}  // namespace

Report run_page_loads(const Args& args) {
  const PassMaker passes = page_loads_passes(args.seed, args.tiny);
  return args.trace ? run_traced(args, passes)
                    : run_untraced(args, passes, /*repeats_inputs=*/false);
}

Report run_config_sweep(const Args& args) {
  const PassMaker passes = config_sweep_passes(args.seed, args.tiny);
  return args.trace ? run_traced(args, passes)
                    : run_untraced(args, passes, /*repeats_inputs=*/true);
}

}  // namespace perfbench
