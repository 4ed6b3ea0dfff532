// Extension: page loads on a faulty 3G link.
//
// The paper measures loads on a healthy network.  Real 3G links drop
// connections, blackhole responses, cut transfers short and fade entirely
// when the user moves; the energy-aware reorganization compresses the
// transmission window, so the open question is whether its savings survive
// — or even grow — once every failed attempt costs retry energy and the
// radio stays up longer waiting for recoveries.
//
// This bench sweeps a composite fault rate (a mix of connection losses,
// stalls, truncations and slow first bytes in fixed proportion) over both
// pipelines on the full-version benchmark, plus one link-fade scenario, all
// through the shared batch engine.  Emits BENCH_faults.json.  The fault
// seed honors EAB_FAULT_SEED (the sweep is deterministic for any fixed
// value).
#include "bench_common.hpp"

namespace {

using namespace eab;

/// Composite plan at total fault rate `rate`: the mix keeps each kind in
/// fixed proportion (40% connection losses, 20% stalls, 20% truncations,
/// 20% slow first bytes), so one knob sweeps overall link quality.
net::FaultPlan plan_at(double rate, std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.connection_loss_rate = 0.40 * rate;
  plan.stall_rate = 0.20 * rate;
  plan.truncate_rate = 0.20 * rate;
  plan.slow_first_byte_rate = 0.20 * rate;
  return plan;
}

core::StackConfig config_at(browser::PipelineMode mode, double rate,
                            std::uint64_t seed) {
  auto config = core::ScenarioBuilder(mode).build().stack;
  config.fault_plan = plan_at(rate, seed);
  // Watchdog generous against the 3.25 s promotion + slow-start setup;
  // bounded retries so every load settles.
  config.retry.request_timeout = 8.0;
  config.retry.max_retries = 2;
  config.retry.backoff_initial = 0.5;
  config.retry.backoff_factor = 2.0;
  config.trace = bench::trace_enabled();
  return config;
}

int g_audit_failures = 0;

struct SweepPoint {
  double rate = 0;
  double energy = 0;          ///< mean load energy (J)
  double total_time = 0;      ///< mean load time (s)
  double retries = 0;         ///< mean extra attempts per load
  double timeouts = 0;        ///< mean watchdog expiries per load
  double degraded = 0;        ///< mean degraded fraction of settled fetches
};

SweepPoint measure(browser::PipelineMode mode, double rate,
                   std::uint64_t seed) {
  const auto specs = corpus::full_benchmark();
  const auto config = config_at(mode, rate, seed);
  const auto results = bench::run_loads(specs, config, 20.0, 1);
  g_audit_failures += bench::audit_results(
      results, config,
      std::string(mode == browser::PipelineMode::kOriginal ? "orig" : "ea") +
          "-rate" + std::to_string(static_cast<int>(rate * 100)));
  SweepPoint point;
  point.rate = rate;
  for (const auto& r : results) {
    point.energy += r.energy.load_j;
    point.total_time += r.metrics.total_time();
    point.retries += r.fetch_retries;
    point.timeouts += r.fetch_timeouts;
    point.degraded += r.metrics.degraded_fraction();
  }
  const auto n = static_cast<double>(results.size());
  point.energy /= n;
  point.total_time /= n;
  point.retries /= n;
  point.timeouts /= n;
  point.degraded /= n;
  return point;
}

/// One row of the coverage-outage sweep (EAB_OUTAGE_*): both pipelines under
/// the env-provided windows at re-establishment fail rate `fail_rate`.
struct OutageRow {
  double fail_rate = 0;
  SweepPoint orig;
  SweepPoint ea;
  double rlf_orig = 0;          ///< mean radio-link failures per load
  double rlf_ea = 0;
  double reest_ok_orig = 0;     ///< mean successful re-establishments per load
  double reest_ok_ea = 0;
  double reest_fail_orig = 0;   ///< mean failed attempts per load
  double reest_fail_ea = 0;
};

OutageRow measure_outage(const radio::OutagePlan& base, double fail_rate,
                         std::uint64_t seed) {
  OutageRow row;
  row.fail_rate = fail_rate;
  const auto specs = corpus::full_benchmark();
  for (const bool energy_aware : {false, true}) {
    const auto mode = energy_aware ? browser::PipelineMode::kEnergyAware
                                   : browser::PipelineMode::kOriginal;
    // No per-request faults: the sweep isolates what coverage loss alone
    // costs each pipeline.
    auto config = config_at(mode, 0.0, seed);
    config.outage = base;
    config.outage.reestablish_fail_rate = fail_rate;
    const auto results = bench::run_loads(specs, config, 20.0, 1);
    g_audit_failures += bench::audit_results(
        results, config,
        std::string(energy_aware ? "ea" : "orig") + "-outage" +
            std::to_string(static_cast<int>(fail_rate * 100)));
    SweepPoint& point = energy_aware ? row.ea : row.orig;
    double rlf = 0, ok = 0, fail = 0;
    for (const auto& r : results) {
      point.energy += r.energy.load_j;
      point.total_time += r.metrics.total_time();
      point.retries += r.fetch_retries;
      point.degraded += r.metrics.degraded_fraction();
      rlf += r.rlf_count;
      ok += r.reestablish_ok;
      fail += r.reestablish_fail;
    }
    const auto n = static_cast<double>(results.size());
    point.energy /= n;
    point.total_time /= n;
    point.retries /= n;
    point.degraded /= n;
    (energy_aware ? row.rlf_ea : row.rlf_orig) = rlf / n;
    (energy_aware ? row.reest_ok_ea : row.reest_ok_orig) = ok / n;
    (energy_aware ? row.reest_fail_ea : row.reest_fail_orig) = fail / n;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_ext_faults",
          "page loads on a faulty 3G link", {"EAB_FAULT_SEED",
          "EAB_TRACE",
          "EAB_TRACE_OUT",
          "EAB_OUTAGE_COUNT",
          "EAB_OUTAGE_START",
          "EAB_OUTAGE_PERIOD",
          "EAB_OUTAGE_DURATION",
          "EAB_OUTAGE_FAIL_RATE",
          "EAB_OUTAGE_SEED",
          "EAB_JOBS"})) {
    return 0;
  }
  const std::uint64_t seed = bench::fault_seed_from_env(20130707);
  bench::print_header("Extension", "page loads on a faulty 3G link");
  std::printf("fault seed %llu (override with EAB_FAULT_SEED)\n\n",
              static_cast<unsigned long long>(seed));

  const double kRates[] = {0.0, 0.05, 0.10, 0.20};

  TextTable table({"fault rate", "orig energy", "EA energy", "saving",
                   "orig load", "EA load", "retries o/EA", "degraded o/EA"});
  std::vector<SweepPoint> original, energy_aware;
  for (const double rate : kRates) {
    const SweepPoint o = measure(browser::PipelineMode::kOriginal, rate, seed);
    const SweepPoint e =
        measure(browser::PipelineMode::kEnergyAware, rate, seed);
    original.push_back(o);
    energy_aware.push_back(e);
    table.add_row({format_percent(rate), format_fixed(o.energy, 1) + " J",
                   format_fixed(e.energy, 1) + " J",
                   format_percent(bench::saving(o.energy, e.energy)),
                   format_fixed(o.total_time, 1) + " s",
                   format_fixed(e.total_time, 1) + " s",
                   format_fixed(o.retries, 1) + "/" +
                       format_fixed(e.retries, 1),
                   format_percent(o.degraded) + "/" +
                       format_percent(e.degraded)});
  }
  std::printf("%s", table.render().c_str());

  // One deep-fade scenario: the link dies twice for 3 s mid-load (walking
  // into an elevator), no per-request faults at all.
  core::StackConfig fade_orig =
      core::ScenarioBuilder(browser::PipelineMode::kOriginal).build().stack;
  fade_orig.fault_plan.seed = seed;
  fade_orig.fault_plan.fade_count = 2;
  fade_orig.fault_plan.fade_start = 2.0;
  fade_orig.fault_plan.fade_period = 8.0;
  fade_orig.fault_plan.fade_duration = 3.0;
  fade_orig.retry.request_timeout = 20.0;  // fades stall, they don't kill
  fade_orig.trace = bench::trace_enabled();
  auto fade_ea = fade_orig;
  fade_ea.pipeline.mode = browser::PipelineMode::kEnergyAware;

  const auto specs = corpus::full_benchmark();
  const auto fo = bench::run_loads(specs, fade_orig, 20.0, 1);
  const auto fe = bench::run_loads(specs, fade_ea, 20.0, 1);
  g_audit_failures += bench::audit_results(fo, fade_orig, "fade-orig");
  g_audit_failures += bench::audit_results(fe, fade_ea, "fade-ea");
  double fade_o_energy = 0, fade_e_energy = 0, fade_o_time = 0, fade_e_time = 0;
  for (const auto& r : fo) {
    fade_o_energy += r.energy.load_j;
    fade_o_time += r.metrics.total_time();
  }
  for (const auto& r : fe) {
    fade_e_energy += r.energy.load_j;
    fade_e_time += r.metrics.total_time();
  }
  const auto n = static_cast<double>(specs.size());
  fade_o_energy /= n;
  fade_e_energy /= n;
  fade_o_time /= n;
  fade_e_time /= n;
  std::printf("\nlink fades (2 x 3 s mid-load): original %.1f J / %.1f s, "
              "energy-aware %.1f J / %.1f s (saving %s)\n",
              fade_o_energy, fade_o_time, fade_e_energy, fade_e_time,
              format_percent(bench::saving(fade_o_energy, fade_e_energy)).c_str());

  // Coverage-outage sweep, only when EAB_OUTAGE_COUNT enables the radio
  // failure subsystem (the default run stays byte-identical without it):
  // the env-provided windows hit both pipelines at increasing
  // re-establishment failure rates, so the column shows how each one pays
  // for RLF detection, out-of-service camping and the retry energy of
  // re-established fetches.
  const radio::OutagePlan outage_plan = bench::outage_plan_from_env();
  std::vector<OutageRow> outage_rows;
  if (outage_plan.enabled()) {
    std::printf("\ncoverage outages (x%d, %.1f s every %.1f s, seed %llu):\n",
                outage_plan.count, outage_plan.duration, outage_plan.period,
                static_cast<unsigned long long>(outage_plan.seed));
    TextTable ot({"reest fail", "orig energy", "EA energy", "saving",
                  "orig load", "EA load", "rlf o/EA", "reest ok o/EA"});
    for (const double fail_rate : {0.0, 0.25, 0.50}) {
      const OutageRow row = measure_outage(outage_plan, fail_rate, seed);
      ot.add_row({format_percent(row.fail_rate),
                  format_fixed(row.orig.energy, 1) + " J",
                  format_fixed(row.ea.energy, 1) + " J",
                  format_percent(bench::saving(row.orig.energy, row.ea.energy)),
                  format_fixed(row.orig.total_time, 1) + " s",
                  format_fixed(row.ea.total_time, 1) + " s",
                  format_fixed(row.rlf_orig, 1) + "/" +
                      format_fixed(row.rlf_ea, 1),
                  format_fixed(row.reest_ok_orig, 1) + "/" +
                      format_fixed(row.reest_ok_ea, 1)});
      outage_rows.push_back(row);
    }
    std::printf("%s", ot.render().c_str());
  }

  std::string json;
  {
    bench::appendf(json, "{\n  \"fault_seed\": %llu,\n  \"sweep\": [\n",
                   static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < original.size(); ++i) {
      const SweepPoint& o = original[i];
      const SweepPoint& e = energy_aware[i];
      bench::appendf(
          json,
          "    {\"fault_rate\": %.2f,\n"
          "     \"original\": {\"energy_j\": %.3f, \"load_s\": %.3f, "
          "\"retries\": %.2f, \"timeouts\": %.2f, \"degraded\": %.4f},\n"
          "     \"energy_aware\": {\"energy_j\": %.3f, \"load_s\": %.3f, "
          "\"retries\": %.2f, \"timeouts\": %.2f, \"degraded\": %.4f},\n"
          "     \"energy_saving\": %.4f}%s\n",
          o.rate, o.energy, o.total_time, o.retries, o.timeouts, o.degraded,
          e.energy, e.total_time, e.retries, e.timeouts, e.degraded,
          bench::saving(o.energy, e.energy),
          i + 1 < original.size() ? "," : "");
    }
    bench::appendf(json,
                   "  ],\n"
                   "  \"fades\": {\"original_energy_j\": %.3f, "
                   "\"original_load_s\": %.3f, \"energy_aware_energy_j\": %.3f, "
                   "\"energy_aware_load_s\": %.3f}%s\n",
                   fade_o_energy, fade_o_time, fade_e_energy, fade_e_time,
                   outage_rows.empty() ? "" : ",");
    if (!outage_rows.empty()) {
      // Present only when the EAB_OUTAGE_* sweep ran, so the default
      // artifact stays byte-identical.
      bench::appendf(
          json,
          "  \"outage\": {\"count\": %d, \"start_s\": %.3f, "
          "\"period_s\": %.3f, \"duration_s\": %.3f, \"seed\": %llu, "
          "\"sweep\": [\n",
          outage_plan.count, outage_plan.start, outage_plan.period,
          outage_plan.duration,
          static_cast<unsigned long long>(outage_plan.seed));
      for (std::size_t i = 0; i < outage_rows.size(); ++i) {
        const OutageRow& row = outage_rows[i];
        bench::appendf(
            json,
            "    {\"reestablish_fail_rate\": %.2f,\n"
            "     \"original\": {\"energy_j\": %.3f, \"load_s\": %.3f, "
            "\"rlf\": %.2f, \"reestablish_ok\": %.2f, "
            "\"reestablish_fail\": %.2f, \"degraded\": %.4f},\n"
            "     \"energy_aware\": {\"energy_j\": %.3f, \"load_s\": %.3f, "
            "\"rlf\": %.2f, \"reestablish_ok\": %.2f, "
            "\"reestablish_fail\": %.2f, \"degraded\": %.4f},\n"
            "     \"energy_saving\": %.4f}%s\n",
            row.fail_rate, row.orig.energy, row.orig.total_time, row.rlf_orig,
            row.reest_ok_orig, row.reest_fail_orig, row.orig.degraded,
            row.ea.energy, row.ea.total_time, row.rlf_ea, row.reest_ok_ea,
            row.reest_fail_ea, row.ea.degraded,
            bench::saving(row.orig.energy, row.ea.energy),
            i + 1 < outage_rows.size() ? "," : "");
      }
      bench::appendf(json, "  ]}\n");
    }
    bench::appendf(json, "}\n");
  }
  bench::write_artifact("BENCH_faults.json", json);
  bench::write_metrics_snapshot("faults");
  if (g_audit_failures > 0) {
    std::printf("FAIL: %d loads violated trace invariants\n", g_audit_failures);
    return 1;
  }
  return 0;
}
