// Regenerates Fig 8: data transmission time and total loading time for the
// mobile-version and full-version benchmarks, original vs energy-aware,
// plus the two featured pages m.cnn.com and www.motors.ebay.com (Fig 8(b)).
//
// Paper-reported savings:
//   full benchmark:   data transmission −27 %, total loading −17 %
//   mobile benchmark: data transmission −15 %, total loading −2.5 %
//   www.motors.ebay.com: tx −~31 %, total −~20 %
//   m.cnn.com:           tx −~15 %, total −~2.2 %
#include "bench_common.hpp"

namespace {

using namespace eab;

void report_pair(const std::string& label, const bench::BenchmarkAverages& orig,
                 const bench::BenchmarkAverages& ea, double paper_tx,
                 double paper_total) {
  TextTable table({"", "Original", "Energy-Aware", "saving", "paper"});
  table.add_row({label + " data transmission (s)", format_fixed(orig.tx_time, 1),
                 format_fixed(ea.tx_time, 1),
                 format_percent(bench::saving(orig.tx_time, ea.tx_time)),
                 format_percent(paper_tx)});
  table.add_row({label + " total loading (s)", format_fixed(orig.total_time, 1),
                 format_fixed(ea.total_time, 1),
                 format_percent(bench::saving(orig.total_time, ea.total_time)),
                 format_percent(paper_total)});
  std::printf("%s", table.render().c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_fig08_transmission_time",
          "data transmission time and total loading time", {"EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Fig 8", "data transmission time and total loading time");

  const auto orig_cfg =
      core::ScenarioBuilder(browser::PipelineMode::kOriginal).build().stack;
  const auto ea_cfg =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build().stack;

  // (a) benchmark averages
  const auto mobile = corpus::mobile_benchmark();
  const auto full = corpus::full_benchmark();
  report_pair("mobile benchmark:", bench::run_benchmark(mobile, orig_cfg),
              bench::run_benchmark(mobile, ea_cfg), 0.15, 0.025);
  report_pair("full benchmark:  ", bench::run_benchmark(full, orig_cfg),
              bench::run_benchmark(full, ea_cfg), 0.27, 0.17);

  // (b) the two featured pages
  const std::vector<corpus::PageSpec> cnn{corpus::m_cnn_spec()};
  const auto ebay_specs = corpus::full_benchmark();
  const std::vector<corpus::PageSpec> ebay{ebay_specs[1]};  // motors.ebay.com
  report_pair("m.cnn.com:       ", bench::run_benchmark(cnn, orig_cfg),
              bench::run_benchmark(cnn, ea_cfg), 0.15, 0.022);
  report_pair("motors.ebay.com: ", bench::run_benchmark(ebay, orig_cfg),
              bench::run_benchmark(ebay, ea_cfg), 0.31, 0.20);
  return 0;
}
