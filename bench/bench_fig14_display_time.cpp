// Regenerates Fig 14: average first-display and final-display times on both
// benchmarks.
//
// Paper (full benchmark): the energy-aware intermediate display appears
// 45.5 % earlier and the final display 16.8 % earlier.  On the mobile
// benchmark the energy-aware pipeline draws no intermediate display; its
// final display lands close to where the original draws its intermediate.
#include "bench_common.hpp"

namespace {

using namespace eab;

void report(const std::string& label, const std::vector<corpus::PageSpec>& specs,
            double paper_first, double paper_final) {
  using browser::PipelineMode;
  const auto orig = bench::run_benchmark(
      specs, core::ScenarioBuilder(PipelineMode::kOriginal).build().stack);
  const auto ea = bench::run_benchmark(
      specs, core::ScenarioBuilder(PipelineMode::kEnergyAware).build().stack);
  TextTable table({label, "Original", "Energy-Aware", "saving", "paper"});
  table.add_row({"first display (s)", format_fixed(orig.first_display, 1),
                 format_fixed(ea.first_display, 1),
                 format_percent(bench::saving(orig.first_display, ea.first_display)),
                 paper_first >= 0 ? format_percent(paper_first) : "-"});
  // The final display is the end of the load, so its mean is total_time.
  table.add_row({"final display (s)", format_fixed(orig.total_time, 1),
                 format_fixed(ea.total_time, 1),
                 format_percent(bench::saving(orig.total_time, ea.total_time)),
                 format_percent(paper_final)});
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_fig14_display_time",
          "average screen display times", {"EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Fig 14", "average screen display times");
  report("full benchmark", corpus::full_benchmark(), 0.455, 0.168);
  // Mobile: no paper number for first display (EA draws none) — the final
  // display saving reported was ~0 (2.5 % via Fig 8).
  report("mobile benchmark", corpus::mobile_benchmark(), -1, 0.025);
  return 0;
}
