// Regenerates Fig 16: power and delay savings of the six radio policies of
// Table 6, measured over whole browsing sessions.
//
// Paper results: Original-Always-off *increases* delay (-1.47 %) and saves
// the least power; Energy-Aware Always-off saves the least delay among the
// reorganized-browser policies (9.2 %); Accurate-20 saves the most delay
// (13.6 %); Accurate-9 saves the most power (26.1 %); each Predict variant
// lands slightly below its oracle.
#include "bench_common.hpp"

#include "core/session.hpp"

namespace {

using namespace eab;

struct SessionTotals {
  Joules energy = 0;
  Seconds delay = 0;
  int audit_failures = 0;  ///< sessions whose trace violated an invariant
};

/// Runs every user's visit sequence under one policy and sums the totals.
/// Sessions of different policies end at different times; energy is compared
/// over a common horizon by padding the shorter session with IDLE power.
/// Under EAB_TRACE=1 each session records a full trace and the TraceAuditor
/// replays it against the session's own radio config and energy integral.
SessionTotals run_policy(
    const std::vector<std::vector<core::PageVisit>>& sessions,
    core::SessionPolicy policy, Seconds threshold, const gbrt::GbrtModel* model,
    Seconds horizon_per_user) {
  SessionTotals totals;
  core::SessionConfig config;
  config.policy = policy;
  config.threshold = threshold;
  config.predictor.model = model;
  const bool traced = bench::knobs().flag("EAB_TRACE");
  config.stack.trace = traced;
  std::uint64_t seed = 1;
  for (const auto& visits : sessions) {
    const auto result = core::run_session(visits, config, seed++);
    totals.energy += result.energy.with_reading_j;
    if (result.energy.window_s < horizon_per_user) {
      totals.energy +=
          config.stack.power.idle * (horizon_per_user - result.energy.window_s);
    }
    totals.delay += result.total_load_delay;
    if (traced) {
      obs::AuditInputs inputs;
      inputs.rrc = config.stack.rrc;
      inputs.power = config.stack.power;
      inputs.max_retries = config.stack.retry.max_retries;
      inputs.radio_energy = result.energy.radio_j;
      inputs.t_end = result.energy.window_s;
      const auto report = obs::TraceAuditor().audit(*result.trace, inputs);
      if (!report.ok()) {
        ++totals.audit_failures;
        std::printf("AUDIT FAIL [%s user %llu]:\n%s\n",
                    core::to_string(policy),
                    static_cast<unsigned long long>(seed - 1),
                    report.summary().c_str());
      }
    }
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_fig16_policies",
          "power and delay saving of the six policies", {"EAB_TRACE",
          "EAB_TRACE_OUT",
          "EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Fig 16", "power and delay saving of the six policies");

  // Build the page library, the user trace and the trained predictor.
  auto records = bench::build_page_library(3);
  trace::TraceConfig trace_config;
  trace_config.users = 12;                    // keep the bench quick
  trace_config.browsing_per_user = 1200.0;    // 20 min per user
  trace::TraceGenerator generator(std::move(records), trace_config, 11);
  const auto views = generator.generate();

  const auto filtered = trace::to_log_dataset(views, generator.records(), 2.0);
  gbrt::GbrtParams params;
  params.trees = 250;
  params.tree.max_leaves = 8;
  const auto model = gbrt::train_gbrt(filtered, params, 3);

  // Group views into per-user sessions.
  std::vector<std::vector<core::PageVisit>> sessions(
      static_cast<std::size_t>(trace_config.users));
  for (const auto& view : views) {
    sessions[static_cast<std::size_t>(view.user)].push_back(core::PageVisit{
        &generator.records()[view.page_index].spec, view.reading_time});
  }
  std::size_t pages = 0;
  for (const auto& s : sessions) pages += s.size();
  std::printf("sessions: %zu users, %zu page views\n\n", sessions.size(), pages);

  const Seconds horizon = trace_config.browsing_per_user * 2.5;
  const SessionTotals baseline = run_policy(
      sessions, core::SessionPolicy::kBaseline, 0, nullptr, horizon);

  struct Case {
    const char* name;
    core::SessionPolicy policy;
    Seconds threshold;
    bool needs_model;
    const char* paper;
  };
  const Case cases[] = {
      {"Original Always-off", core::SessionPolicy::kOriginalAlwaysOff, 0, false,
       "delay -1.47%"},
      {"Energy-Aware Always-off", core::SessionPolicy::kEnergyAwareAlwaysOff, 0,
       false, "delay +9.2%"},
      {"Accurate-9", core::SessionPolicy::kAccurate, 9.0, false,
       "power +26.1% (max)"},
      {"Predict-9", core::SessionPolicy::kPredict, 9.0, true,
       "slightly below Accurate-9"},
      {"Accurate-20", core::SessionPolicy::kAccurate, 20.0, false,
       "delay +13.6% (max)"},
      {"Predict-20", core::SessionPolicy::kPredict, 20.0, true,
       "slightly below Accurate-20"},
  };

  int audit_failures = baseline.audit_failures;
  TextTable table({"case", "power saving", "delay saving", "paper"});
  for (const Case& c : cases) {
    const SessionTotals totals =
        run_policy(sessions, c.policy, c.threshold,
                   c.needs_model ? &model : nullptr, horizon);
    audit_failures += totals.audit_failures;
    table.add_row({c.name,
                   format_percent(bench::saving(baseline.energy, totals.energy)),
                   format_percent(bench::saving(baseline.delay, totals.delay)),
                   c.paper});
  }
  std::printf("%s", table.render().c_str());
  if (bench::knobs().flag("EAB_TRACE")) {
    std::printf("audit: %d session traces violated invariants\n",
                audit_failures);
  }
  bench::print_script_memo_stats();
  return audit_failures > 0 ? 1 : 0;
}
