// Regenerates Fig 10: energy to open a page plus 20 seconds of reading,
// original vs energy-aware, for both benchmarks and the two featured pages.
//
// Paper-reported savings: mobile benchmark 35.7 %, full benchmark 30.8 %,
// m.cnn.com 35.5 %, espn.go.com/sports 43.6 %.
//
// Under EAB_TRACE=1 every load records a structured trace and the
// TraceAuditor replays each one (RRC legality, timer discipline, transfer
// markers, retry budget, energy reconciliation); any violation makes the
// bench exit non-zero.  Tracing changes no measured number.
#include "bench_common.hpp"

namespace {

using namespace eab;

/// Returns the number of loads whose trace audit failed (0 when tracing is
/// off: untraced loads are skipped by audit_results).
int report(const std::string& label, const std::vector<corpus::PageSpec>& specs,
           double paper_saving) {
  auto orig_cfg =
      core::ScenarioBuilder(browser::PipelineMode::kOriginal).build().stack;
  auto ea_cfg =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build().stack;
  orig_cfg.trace = ea_cfg.trace = bench::knobs().flag("EAB_TRACE");

  const auto orig_results = bench::run_loads(specs, orig_cfg);
  const auto ea_results = bench::run_loads(specs, ea_cfg);
  const auto orig = bench::averages_of(orig_results);
  const auto ea = bench::averages_of(ea_results);

  TextTable table({label, "Original", "Energy-Aware", "saving", "paper"});
  table.add_row({"energy: open page (J)", format_fixed(orig.load_energy, 1),
                 format_fixed(ea.load_energy, 1),
                 format_percent(bench::saving(orig.load_energy, ea.load_energy)),
                 "-"});
  table.add_row({"energy: open + 20 s read (J)", format_fixed(orig.energy_20s, 1),
                 format_fixed(ea.energy_20s, 1),
                 format_percent(bench::saving(orig.energy_20s, ea.energy_20s)),
                 format_percent(paper_saving)});
  std::printf("%s\n", table.render().c_str());

  return bench::audit_results(orig_results, orig_cfg, label + " original") +
         bench::audit_results(ea_results, ea_cfg, label + " energy-aware");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_fig10_energy",
          "energy for opening a page + 20 s of reading", {"EAB_TRACE",
          "EAB_TRACE_OUT",
          "EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Fig 10", "energy for opening a page + 20 s of reading");

  int audit_failures = 0;
  audit_failures += report("mobile benchmark", corpus::mobile_benchmark(), 0.357);
  audit_failures += report("full benchmark", corpus::full_benchmark(), 0.308);
  audit_failures += report("m.cnn.com", {corpus::m_cnn_spec()}, 0.355);
  audit_failures +=
      report("espn.go.com/sports", {corpus::espn_sports_spec()}, 0.436);

  bench::write_metrics_snapshot("fig10_energy");
  if (audit_failures > 0) {
    std::printf("FAIL: %d loads violated trace invariants\n", audit_failures);
    return 1;
  }
  return 0;
}
