// Measures what observability costs: the 64-load batch sweep from
// bench_throughput run untraced and traced, plus a 16-UE cell run with
// telemetry sampling off and on.  Each pair is timed best-of-N, with the
// off and on runs alternating so machine drift hits both sides alike.
//
// The cost contract (obs/trace.hpp) is that a disabled recorder is one
// predicted-not-taken branch per site and an enabled one only appends to a
// vector — never schedules simulator events — so traced results must be
// bit-identical to untraced ones and the slowdown must stay within a few
// percent.  Telemetry (obs/telemetry.hpp) does schedule tick events but
// never mutates simulation state, so the sampled run's workload results
// must equal the unsampled run's exactly.  This bench asserts both
// identities (exit 1 on any divergence) and reports each overhead against
// a 5 % budget in BENCH_obs_overhead.json.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include "cell/cell.hpp"

namespace {

using namespace eab;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs run(false) and run(true) alternately, `reps` times each, so a
/// drift in the machine's speed lands on both sides alike.  Returns each
/// side's best wall clock and its first result.  Every run starts from an
/// empty script memo: it would otherwise answer every repeat for free.
template <typename Run>
auto alternating_best_of(int reps, Run&& run) {
  using Result = std::invoke_result_t<Run&, bool>;
  struct Sides {
    double wall[2] = {1e9, 1e9};  // [off, on]
    Result first[2];
  };
  Sides sides;
  for (int rep = 0; rep < reps; ++rep) {
    for (const bool on : {false, true}) {
      web::js::reset_script_memo();
      const auto start = Clock::now();
      Result result = run(on);
      sides.wall[on] = std::min(sides.wall[on], seconds_since(start));
      if (rep == 0) sides.first[on] = std::move(result);
    }
  }
  return sides;
}

/// The telemetry measurement vehicle: one 16-UE cell, 600 s horizon.
cell::CellConfig overhead_cell_config(Seconds telemetry_tick) {
  cell::CellConfig config;
  config.per_ue =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build();
  config.specs = corpus::mobile_benchmark();
  config.users = 16;
  config.channels = 6;
  config.horizon = 600.0;
  config.cell_seed = 5;
  config.telemetry_tick = telemetry_tick;
  return config;
}

/// The telemetry identity: sampling must not bend the workload trajectory.
/// (sim_events legitimately differs — the tick events themselves.)
bool same_workload(const cell::CellResult& a, const cell::CellResult& b) {
  bool same = a.offered == b.offered && a.dropped == b.dropped &&
              a.completed == b.completed && a.aborted == b.aborted &&
              a.grant_overcommits == b.grant_overcommits &&
              a.end_time == b.end_time &&
              a.mean_busy_grants == b.mean_busy_grants &&
              a.per_ue.size() == b.per_ue.size();
  for (std::size_t i = 0; same && i < a.per_ue.size(); ++i) {
    same = a.per_ue[i].energy.with_reading_j ==
               b.per_ue[i].energy.with_reading_j &&
           a.per_ue[i].completed == b.per_ue[i].completed;
  }
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_obs_overhead",
          "tracing cost on the 64-load batch sweep", {"EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Obs overhead", "tracing cost on the 64-load batch sweep");

  const int kReps = 7;
  const auto untraced_jobs = bench::mixed_sweep(false);
  const auto traced_jobs = bench::mixed_sweep(true);

  core::BatchRunner runner(
      static_cast<int>(bench::knobs().u64_or("EAB_JOBS", 0)));
  const auto batch = alternating_best_of(kReps, [&](bool traced) {
    return runner.run(traced ? traced_jobs : untraced_jobs);
  });
  const double untraced_s = batch.wall[0];
  const double traced_s = batch.wall[1];
  const std::vector<core::SingleLoadResult>& untraced = batch.first[0];
  const std::vector<core::SingleLoadResult>& traced = batch.first[1];

  // The identity the whole subsystem stands on: tracing changes nothing.
  bool identical = untraced.size() == traced.size();
  for (std::size_t i = 0; identical && i < untraced.size(); ++i) {
    const auto& u = untraced[i];
    const auto& t = traced[i];
    identical = u.sim_events == t.sim_events &&
                u.energy.load_j == t.energy.load_j &&
                u.energy.with_reading_j == t.energy.with_reading_j &&
                u.dom_signature == t.dom_signature &&
                u.metrics.total_time() == t.metrics.total_time() &&
                u.trace == nullptr && t.trace != nullptr;
  }

  // While the traces are here, audit every one of them.
  int audit_failures = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const auto report = obs::TraceAuditor().audit(
        *traced[i].trace,
        core::make_audit_inputs(traced_jobs[i].config,
                                traced[i].energy.radio_j,
                                traced[i].energy.window_s));
    if (!report.ok()) {
      ++audit_failures;
      std::printf("AUDIT FAIL [load %zu]:\n%s\n", i, report.summary().c_str());
    }
  }

  const double overhead = untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0;
  double trace_events = 0;
  for (const auto& t : traced) {
    trace_events += static_cast<double>(t.trace->size());
  }

  std::printf("loads: %zu  reps: %d (best-of)\n", untraced_jobs.size(), kReps);
  std::printf("untraced: %.3f s   traced: %.3f s   overhead: %+.2f%% "
              "(budget 5%%)\n",
              untraced_s, traced_s, overhead * 100.0);
  std::printf("trace events recorded: %.0f (%.0f per load)\n", trace_events,
              trace_events / static_cast<double>(traced.size()));
  std::printf("results bit-identical traced vs untraced: %s   audits: %s\n",
              identical ? "yes" : "NO",
              audit_failures == 0 ? "all passed" : "FAILED");

  // Phase 2: telemetry sampling on the cell co-simulation.
  const cell::CellConfig cell_configs[] = {overhead_cell_config(0),
                                           overhead_cell_config(5.0)};
  const auto sampling = alternating_best_of(kReps, [&](bool sampled) {
    return cell::run_cell(cell_configs[sampled]);
  });
  const double plain_s = sampling.wall[0];
  const double sampled_s = sampling.wall[1];
  const cell::CellResult& plain = sampling.first[0];
  const cell::CellResult& sampled = sampling.first[1];
  const bool cell_identical = same_workload(plain, sampled) &&
                              plain.telemetry == nullptr &&
                              sampled.telemetry != nullptr;
  const double sampling_overhead =
      plain_s > 0 ? sampled_s / plain_s - 1.0 : 0;
  std::printf("\ncell (16 UEs, 600 s): unsampled %.3f s   sampled %.3f s   "
              "overhead: %+.2f%% (budget 5%%)\n",
              plain_s, sampled_s, sampling_overhead * 100.0);
  std::printf("telemetry series recorded: %zu\n",
              sampled.telemetry ? sampled.telemetry->series_count() : 0);
  std::printf("workload identical sampled vs unsampled: %s\n",
              cell_identical ? "yes" : "NO");

  std::string json;
  bench::appendf(json,
                 "{\n"
                 "  \"loads\": %zu,\n"
                 "  \"reps\": %d,\n"
                 "  \"untraced_seconds\": %.6f,\n"
                 "  \"traced_seconds\": %.6f,\n"
                 "  \"overhead\": %.6f,\n"
                 "  \"overhead_budget\": 0.05,\n"
                 "  \"within_budget\": %s,\n"
                 "  \"trace_events\": %.0f,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"audit_failures\": %d,\n"
                 "  \"sampling_off_seconds\": %.6f,\n"
                 "  \"sampling_on_seconds\": %.6f,\n"
                 "  \"sampling_overhead\": %.6f,\n"
                 "  \"sampling_within_budget\": %s,\n"
                 "  \"telemetry_series\": %zu,\n"
                 "  \"cell_workload_identical\": %s\n"
                 "}\n",
                 untraced_jobs.size(), kReps, untraced_s, traced_s, overhead,
                 overhead <= 0.05 ? "true" : "false", trace_events,
                 identical ? "true" : "false", audit_failures, plain_s,
                 sampled_s, sampling_overhead,
                 sampling_overhead <= 0.05 ? "true" : "false",
                 sampled.telemetry ? sampled.telemetry->series_count() : 0,
                 cell_identical ? "true" : "false");
  bench::write_artifact("BENCH_obs_overhead.json", json);
  return (identical && cell_identical && audit_failures == 0) ? 0 : 1;
}
