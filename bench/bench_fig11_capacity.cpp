// Regenerates Fig 11: session dropping probability vs number of users, for
// the original and energy-aware browsers, on both benchmarks.
//
// Default mode — M/G/200 loss system, per-user Poisson think time (mean
// 25 s), 4-hour horizon; the service time of a session is the measured
// data-transmission time of opening a page (cell::measure_service_times,
// sampling controlled by capacity::CapacityConfig).  Paper result: at equal
// dropping probability the energy-aware browser supports 14.3 % more users
// on the mobile benchmark and 19.6 % more on the full benchmark.
//
// --cell mode — the same claim from first principles: N full UE stacks
// (RRC + link + browser pipeline each) contend for a bounded DCH grant
// pool inside one simulator (src/cell/), with the abstract M/G/N curve
// printed next to the co-simulated one.  Emits BENCH_cell.json.  Knobs:
// EAB_CELL_USERS (top of the users axis), EAB_CELL_SEED (cell seed).
#include "bench_common.hpp"

#include <cstring>

#include "capacity/mgn.hpp"
#include "cell/cell.hpp"
#include "cell/service_times.hpp"

namespace {

using namespace eab;

std::vector<Seconds> service_times(const std::vector<corpus::PageSpec>& specs,
                                   browser::PipelineMode mode,
                                   const capacity::CapacityConfig& config) {
  // One batched sweep per mode on the shared runner.
  return cell::measure_service_times(specs, mode, config,
                                     bench::shared_runner());
}

/// Users supported at the target drop probability (linear scan + interpolate).
double capacity_at(const capacity::ServiceTimeDistribution& service, int lo,
                   int hi, int step, double target) {
  capacity::CapacityConfig config;
  double previous_users = lo;
  double previous_drop = 0;
  for (int users = lo; users <= hi; users += step) {
    config.users = users;
    const auto result = capacity::simulate_capacity(config, service, 42);
    if (result.drop_probability >= target && users > lo) {
      const double slope = (result.drop_probability - previous_drop) /
                           (users - previous_users);
      return previous_users + (target - previous_drop) / std::max(1e-9, slope);
    }
    previous_users = users;
    previous_drop = result.drop_probability;
  }
  return hi;
}

void report(const std::string& label, const std::vector<corpus::PageSpec>& specs,
            int lo, int hi, int step, double paper_gain) {
  const capacity::CapacityConfig sampling;
  const capacity::ServiceTimeDistribution orig(
      service_times(specs, browser::PipelineMode::kOriginal, sampling));
  const capacity::ServiceTimeDistribution ea(
      service_times(specs, browser::PipelineMode::kEnergyAware, sampling));

  std::printf("%s (mean service: original %.1f s, energy-aware %.1f s)\n",
              label.c_str(), orig.mean(), ea.mean());
  TextTable table({"users", "drop% original (95% CI)", "drop% energy-aware (95% CI)"});
  capacity::CapacityConfig config;
  for (int users = lo; users <= hi; users += step) {
    config.users = users;
    const auto drop_orig = capacity::estimate_capacity(config, orig, 42, 6);
    const auto drop_ea = capacity::estimate_capacity(config, ea, 42, 6);
    table.add_row(
        {std::to_string(users),
         format_fixed(100 * drop_orig.mean_drop, 2) + " +-" +
             format_fixed(100 * drop_orig.ci_halfwidth, 2),
         format_fixed(100 * drop_ea.mean_drop, 2) + " +-" +
             format_fixed(100 * drop_ea.ci_halfwidth, 2)});
  }
  std::printf("%s", table.render().c_str());

  const double target = 0.02;  // 2 % dropping probability service level
  const double cap_orig = capacity_at(orig, lo, hi, step, target);
  const double cap_ea = capacity_at(ea, lo, hi, step, target);
  std::printf("capacity at %.0f%% dropping: original %.0f users, "
              "energy-aware %.0f users -> +%.1f%% (paper: +%.1f%%)\n\n",
              target * 100, cap_orig, cap_ea,
              100.0 * (cap_ea - cap_orig) / cap_orig, paper_gain * 100);
}

// --- --cell mode -----------------------------------------------------------

/// Cell-mode parameters: a small cell (few grants, short horizon) so the
/// co-simulation finishes in bench time; the qualitative Fig 11 shape —
/// monotone drop curve, energy-aware above Original in admitted users —
/// does not depend on the pool being 200 channels wide.
Seconds g_telemetry_tick = 0;         // EAB_TELEMETRY / EAB_TELEMETRY_TICK
std::size_t g_telemetry_budget = 256; // EAB_TELEMETRY_BUDGET

struct CellBenchParams {
  int channels = 6;
  Seconds horizon = 600.0;
  int max_users = 32;
  int step = 4;
  std::uint64_t seed = 1;
  double target = 0.05;  // 5 % dropping service level
  // Radio-failure knobs, both disabled by default (EAB_OUTAGE_* for the
  // per-UE coverage process, EAB_CELL_OUTAGE_* for whole-cell blackouts).
  radio::OutagePlan ue_outage;
  int cell_outage_count = 0;
  Seconds cell_outage_start = 60.0;
  Seconds cell_outage_period = 120.0;
  Seconds cell_outage_duration = 5.0;
};

cell::CellConfig cell_config(browser::PipelineMode mode,
                             const CellBenchParams& params) {
  cell::CellConfig config;
  config.per_ue = core::ScenarioBuilder(mode).outage(params.ue_outage).build();
  config.specs = corpus::mobile_benchmark();
  config.channels = params.channels;
  config.horizon = params.horizon;
  config.cell_seed = params.seed;
  config.telemetry_tick = g_telemetry_tick;
  config.telemetry_budget = g_telemetry_budget;
  config.cell_outage_count = params.cell_outage_count;
  config.cell_outage_start = params.cell_outage_start;
  config.cell_outage_period = params.cell_outage_period;
  config.cell_outage_duration = params.cell_outage_duration;
  return config;
}

double mean_ue_energy(const cell::CellResult& result) {
  if (result.per_ue.empty()) return 0;
  double total = 0;
  for (const auto& ue : result.per_ue) total += ue.energy.with_reading_j;
  return total / static_cast<double>(result.per_ue.size());
}

int run_cell_mode() {
  bench::print_header(
      "Fig 11 (--cell)",
      "first-principles shared-cell co-simulation vs the M/G/N model");

  CellBenchParams params;
  params.seed = bench::knobs().u64_or("EAB_CELL_SEED", params.seed);
  params.max_users = static_cast<int>(bench::knobs().u64_or(
      "EAB_CELL_USERS", static_cast<std::uint64_t>(params.max_users)));
  // Telemetry knobs are parsed strictly even when sampling stays off, so a
  // typo'd EAB_TELEMETRY_TICK dies loudly instead of silently idling.
  g_telemetry_budget = static_cast<std::size_t>(
      bench::knobs().u64_or("EAB_TELEMETRY_BUDGET", g_telemetry_budget));
  const auto telemetry_tick =
      static_cast<Seconds>(bench::knobs().u64_or("EAB_TELEMETRY_TICK", 5));
  if (bench::knobs().flag("EAB_TELEMETRY")) g_telemetry_tick = telemetry_tick;
  // Radio-failure knobs: EAB_OUTAGE_* drives each UE's own coverage process,
  // EAB_CELL_OUTAGE_* schedules whole-cell blackouts.  Both default off; any
  // default combination keeps stdout and every artifact byte-identical.
  params.ue_outage = bench::outage_plan_from_env();
  params.cell_outage_count =
      static_cast<int>(bench::knobs().u64_or("EAB_CELL_OUTAGE_COUNT", 0));
  params.cell_outage_start =
      bench::knobs().f64_or("EAB_CELL_OUTAGE_START", params.cell_outage_start);
  params.cell_outage_period = bench::knobs().f64_or("EAB_CELL_OUTAGE_PERIOD",
                                                    params.cell_outage_period);
  params.cell_outage_duration = bench::knobs().f64_or(
      "EAB_CELL_OUTAGE_DURATION", params.cell_outage_duration);
  if (params.cell_outage_count > 0 &&
      params.cell_outage_period <= params.cell_outage_duration) {
    const char* raw = std::getenv("EAB_CELL_OUTAGE_PERIOD");
    bench::die_invalid_env("EAB_CELL_OUTAGE_PERIOD", raw == nullptr ? "" : raw,
                           "a period exceeding EAB_CELL_OUTAGE_DURATION "
                           "(blackouts must not overlap)");
  }
  const bool outages_on =
      params.ue_outage.enabled() || params.cell_outage_count > 0;

  std::vector<int> users_axis;
  for (int users = std::min(params.step, params.max_users);
       users <= params.max_users; users += params.step) {
    users_axis.push_back(users);
  }
  if (users_axis.back() != params.max_users) {
    users_axis.push_back(params.max_users);
  }

  std::printf("cell: %d channel pairs, %.0f s horizon, mean think 25 s, "
              "mobile benchmark, seed %llu\n",
              params.channels, params.horizon,
              static_cast<unsigned long long>(params.seed));
  if (g_telemetry_tick > 0) {  // default output stays byte-identical
    std::printf("cell: telemetry tick %.0f s, budget %zu points\n",
                g_telemetry_tick, g_telemetry_budget);
  }
  if (params.ue_outage.enabled()) {  // silent when the radio stays healthy
    std::printf("cell: per-UE outages x%d, start %.2f s, period %.2f s, "
                "duration %.2f s, reestablish fail rate %.2f, seed %llu\n",
                params.ue_outage.count, params.ue_outage.start,
                params.ue_outage.period, params.ue_outage.duration,
                params.ue_outage.reestablish_fail_rate,
                static_cast<unsigned long long>(params.ue_outage.seed));
  }
  if (params.cell_outage_count > 0) {
    std::printf("cell: whole-cell blackouts x%d, start %.2f s, period %.2f s, "
                "duration %.2f s\n",
                params.cell_outage_count, params.cell_outage_start,
                params.cell_outage_period, params.cell_outage_duration);
  }

  // The co-simulated curves: one sweep covers both modes — shard i < n is
  // the Original curve's i-th point, shard n + i the energy-aware one's.
  // By default the shards spread across the shared BatchRunner's threads;
  // EAB_SUPERVISE=1 fans them out over forked, heartbeat-supervised worker
  // processes with durable checkpoint resume under EAB_CHECKPOINT_DIR.
  // stdout, BENCH_cell.json and the metrics snapshot are byte-identical
  // either way, for any EAB_JOBS (the supervision report goes to stderr).
  const std::size_t n = users_axis.size();
  const cell::CellConfig orig_base =
      cell_config(browser::PipelineMode::kOriginal, params);
  const cell::CellConfig ea_base =
      cell_config(browser::PipelineMode::kEnergyAware, params);
  std::vector<cell::CellResult> orig_results(n);
  std::vector<cell::CellResult> ea_results(n);
  const bool swept = bench::sweep(
      "fig11_cell.journal", 2 * n,
      [&](std::size_t shard) {
        cell::CellConfig config = shard < n ? orig_base : ea_base;
        config.users = users_axis[shard % n];
        return cell::run_cell(config);
      },
      [&](std::size_t shard, cell::CellResult&& result) {
        (shard < n ? orig_results[shard] : ea_results[shard - n]) =
            std::move(result);
      },
      cell::serialize_cell_result, cell::deserialize_cell_result);
  if (!swept) return 1;

  // The abstract model, scaled to the same small cell, for the side-by-side
  // column: measured service times, same channels/horizon.
  capacity::CapacityConfig sampling;
  const capacity::ServiceTimeDistribution orig_service(service_times(
      corpus::mobile_benchmark(), browser::PipelineMode::kOriginal, sampling));
  const capacity::ServiceTimeDistribution ea_service(service_times(
      corpus::mobile_benchmark(), browser::PipelineMode::kEnergyAware,
      sampling));
  capacity::CapacityConfig mgn;
  mgn.channels = params.channels;
  mgn.horizon = params.horizon;

  TextTable table({"users", "drop% orig (cell)", "drop% ea (cell)",
                   "drop% orig (M/G/N)", "drop% ea (M/G/N)", "busy orig",
                   "busy ea"});
  for (std::size_t i = 0; i < users_axis.size(); ++i) {
    mgn.users = users_axis[i];
    const auto mgn_orig = capacity::simulate_capacity(mgn, orig_service, 42);
    const auto mgn_ea = capacity::simulate_capacity(mgn, ea_service, 42);
    table.add_row(
        {std::to_string(users_axis[i]),
         format_fixed(100 * orig_results[i].drop_probability(), 2),
         format_fixed(100 * ea_results[i].drop_probability(), 2),
         format_fixed(100 * mgn_orig.drop_probability, 2),
         format_fixed(100 * mgn_ea.drop_probability, 2),
         format_fixed(orig_results[i].mean_busy_grants, 2),
         format_fixed(ea_results[i].mean_busy_grants, 2)});
  }
  std::printf("%s", table.render().c_str());

  std::vector<double> orig_drops;
  std::vector<double> ea_drops;
  for (std::size_t i = 0; i < n; ++i) {
    orig_drops.push_back(orig_results[i].drop_probability());
    ea_drops.push_back(ea_results[i].drop_probability());
  }
  const double cap_orig =
      cell::users_at_drop_target(users_axis, orig_drops, params.target);
  const double cap_ea =
      cell::users_at_drop_target(users_axis, ea_drops, params.target);
  std::printf("cell capacity at %.0f%% dropping: original %.1f users, "
              "energy-aware %.1f users -> +%.1f%%\n",
              params.target * 100, cap_orig, cap_ea,
              cap_orig > 0 ? 100.0 * (cap_ea - cap_orig) / cap_orig : 0.0);
  if (outages_on) {  // silent when the radio stays healthy
    std::uint64_t rlf_o = 0, rlf_e = 0, ok_o = 0, ok_e = 0, fail_o = 0,
                  fail_e = 0;
    for (std::size_t i = 0; i < users_axis.size(); ++i) {
      rlf_o += orig_results[i].rlf;
      rlf_e += ea_results[i].rlf;
      ok_o += orig_results[i].reestablish_ok;
      ok_e += ea_results[i].reestablish_ok;
      fail_o += orig_results[i].reestablish_fail;
      fail_e += ea_results[i].reestablish_fail;
    }
    std::printf("cell radio failures: original rlf %llu reestablish %llu/%llu"
                " ok/fail, energy-aware rlf %llu reestablish %llu/%llu"
                " ok/fail\n",
                static_cast<unsigned long long>(rlf_o),
                static_cast<unsigned long long>(ok_o),
                static_cast<unsigned long long>(fail_o),
                static_cast<unsigned long long>(rlf_e),
                static_cast<unsigned long long>(ok_e),
                static_cast<unsigned long long>(fail_e));
  }

  std::string json;
  bench::appendf(json,
                 "{\n"
                 "  \"channels\": %d,\n"
                 "  \"horizon_s\": %.17g,\n"
                 "  \"cell_seed\": %llu,\n"
                 "  \"drop_target\": %.17g,\n"
                 "  \"capacity_original\": %.17g,\n"
                 "  \"capacity_energy_aware\": %.17g,\n"
                 "  \"points\": [\n",
                 params.channels, params.horizon,
                 static_cast<unsigned long long>(params.seed), params.target,
                 cap_orig, cap_ea);
  for (std::size_t i = 0; i < users_axis.size(); ++i) {
    bench::appendf(
        json,
        "    {\"users\": %d,"
        " \"drop_original\": %.17g, \"drop_energy_aware\": %.17g,"
        " \"offered_original\": %llu, \"offered_energy_aware\": %llu,"
        " \"mean_busy_original\": %.17g, \"mean_busy_energy_aware\": %.17g,"
        " \"mean_ue_energy_original_j\": %.17g,"
        " \"mean_ue_energy_energy_aware_j\": %.17g",
        users_axis[i], orig_results[i].drop_probability(),
        ea_results[i].drop_probability(),
        static_cast<unsigned long long>(orig_results[i].offered),
        static_cast<unsigned long long>(ea_results[i].offered),
        orig_results[i].mean_busy_grants, ea_results[i].mean_busy_grants,
        mean_ue_energy(orig_results[i]), mean_ue_energy(ea_results[i]));
    if (outages_on) {
      // Radio-failure accounting rides along only when an outage knob is
      // set, so the default artifact stays byte-identical.
      bench::appendf(
          json,
          ", \"rlf_original\": %llu, \"rlf_energy_aware\": %llu,"
          " \"reestablish_ok_original\": %llu,"
          " \"reestablish_ok_energy_aware\": %llu,"
          " \"reestablish_fail_original\": %llu,"
          " \"reestablish_fail_energy_aware\": %llu,"
          " \"cell_outages\": %llu",
          static_cast<unsigned long long>(orig_results[i].rlf),
          static_cast<unsigned long long>(ea_results[i].rlf),
          static_cast<unsigned long long>(orig_results[i].reestablish_ok),
          static_cast<unsigned long long>(ea_results[i].reestablish_ok),
          static_cast<unsigned long long>(orig_results[i].reestablish_fail),
          static_cast<unsigned long long>(ea_results[i].reestablish_fail),
          static_cast<unsigned long long>(orig_results[i].cell_outages));
    }
    bench::appendf(json, "}%s\n", i + 1 < users_axis.size() ? "," : "");
  }
  bench::appendf(json, "  ]\n}\n");
  bench::write_artifact("BENCH_cell.json", json);
  bench::write_metrics_snapshot("cell", bench::shared_runner().metrics());

  // Cross-layer time series per (mode, users point) — only when sampling is
  // on, so the telemetry-off artifact set is byte-identical to a build
  // without the telemetry layer.  The series came through the same path the
  // sweep results did (in-process, sharded or supervised deserialization),
  // so this JSON is byte-identical across all three execution modes.
  if (g_telemetry_tick > 0) {
    std::string ts;
    bench::appendf(ts, "{\n  \"tick_s\": %.17g,\n  \"point_budget\": %zu,\n",
                   g_telemetry_tick, g_telemetry_budget);
    const auto append_mode = [&](const char* label,
                                 const std::vector<cell::CellResult>& results,
                                 const char* trailer) {
      bench::appendf(ts, "  \"%s\": {\n", label);
      for (std::size_t i = 0; i < users_axis.size(); ++i) {
        bench::appendf(ts, "    \"u%d\": ", users_axis[i]);
        if (results[i].telemetry) {
          ts += results[i].telemetry->to_json();
        } else {
          ts += "null";
        }
        ts += i + 1 < users_axis.size() ? ",\n" : "\n";
      }
      bench::appendf(ts, "  }%s\n", trailer);
    };
    append_mode("original", orig_results, ",");
    append_mode("energy_aware", ea_results, "");
    ts += "}\n";
    bench::write_artifact("BENCH_cell.timeseries.json", ts);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_fig11_capacity [--cell]",
          "network capacity: drop probability vs users (--cell runs the "
          "first-principles shared-cell co-simulation)",
          {"EAB_CELL_SEED", "EAB_CELL_USERS", "EAB_CELL_OUTAGE_COUNT",
           "EAB_CELL_OUTAGE_START", "EAB_CELL_OUTAGE_PERIOD",
           "EAB_CELL_OUTAGE_DURATION",
           "EAB_OUTAGE_COUNT", "EAB_OUTAGE_START", "EAB_OUTAGE_PERIOD",
           "EAB_OUTAGE_DURATION", "EAB_OUTAGE_FAIL_RATE", "EAB_OUTAGE_SEED",
           "EAB_TELEMETRY", "EAB_TELEMETRY_TICK", "EAB_TELEMETRY_BUDGET",
           "EAB_SUPERVISE", "EAB_CHECKPOINT_DIR",
           "EAB_SELF_CHAOS", "EAB_SELF_CHAOS_KILLS", "EAB_SELF_CHAOS_ORC",
           "EAB_PROGRESS", "EAB_JOBS"})) {
    return 0;
  }
  if (argc > 1) {
    if (std::strcmp(argv[1], "--cell") == 0) return run_cell_mode();
    std::fprintf(stderr, "usage: %s [--cell]\n", argv[0]);
    return 2;
  }
  bench::print_header("Fig 11", "network capacity: drop probability vs users");
  report("mobile benchmark", corpus::mobile_benchmark(), 300, 900, 50, 0.143);
  report("full benchmark", corpus::full_benchmark(), 150, 500, 25, 0.196);
  return 0;
}
