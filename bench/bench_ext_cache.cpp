// Extension: browser caching composed with the paper's technique.
//
// The paper measures cold loads.  Real sessions revisit sites; with a
// session-persistent cache the revisit skips most transfers outright — an
// orthogonal saving that *stacks* with the computation reordering.  This
// bench replays a revisit-heavy session (each benchmark site visited twice)
// under the four combinations of {stock, energy-aware} x {no cache, cache}.
#include "bench_common.hpp"

#include "core/session.hpp"

namespace {

using namespace eab;

struct Totals {
  Joules energy = 0;
  Seconds delay = 0;
};

Totals run(const std::vector<core::PageVisit>& visits,
           core::SessionPolicy policy, bool cache) {
  core::SessionConfig config;
  config.policy = policy;
  config.threshold = core::kPowerDrivenThreshold;
  config.stack.use_browser_cache = cache;
  const auto result = core::run_session(visits, config, 5);
  return {result.energy.with_reading_j, result.total_load_delay};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_ext_cache",
          "session cache x computation reordering", {"EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Extension", "session cache x computation reordering");

  // Revisit-heavy session: the user reads a page, follows a link, comes
  // straight back — each site visited twice back to back (a far-apart
  // second visit would be evicted from the 4 MB cache, as an LRU should).
  const auto specs = corpus::full_benchmark();
  std::vector<core::PageVisit> visits;
  for (const auto& spec : specs) {
    visits.push_back({&spec, 15.0});
    visits.push_back({&spec, 15.0});
  }

  const Totals baseline = run(visits, core::SessionPolicy::kBaseline, false);
  TextTable table({"configuration", "energy saving", "delay saving"});
  struct Case {
    const char* name;
    core::SessionPolicy policy;
    bool cache;
  };
  for (const Case c : {Case{"stock + cache", core::SessionPolicy::kBaseline, true},
                       Case{"energy-aware (Accurate-9)", core::SessionPolicy::kAccurate, false},
                       Case{"energy-aware + cache", core::SessionPolicy::kAccurate, true}}) {
    const Totals totals = run(visits, c.policy, c.cache);
    table.add_row({c.name,
                   format_percent(bench::saving(baseline.energy, totals.energy)),
                   format_percent(bench::saving(baseline.delay, totals.delay))});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nthe two mechanisms are orthogonal: the cache removes revisit\n"
              "transfers, the reordering compacts the ones that remain, and\n"
              "the combination beats either alone.\n");
  return 0;
}
