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

  struct Case {
    const char* name;
    core::SessionPolicy policy;
    Seconds threshold;
    bool needs_model;
    const char* paper;
  };
  const Case cases[] = {
      {"Baseline", core::SessionPolicy::kBaseline, 0, false, ""},
      {"Original Always-off", core::SessionPolicy::kOriginalAlwaysOff, 0, false,
       "delay -1.47%"},
      {"Energy-Aware Always-off", core::SessionPolicy::kEnergyAwareAlwaysOff, 0,
       false, "delay +9.2%"},
      {"Accurate-9", core::SessionPolicy::kAccurate,
       core::kPowerDrivenThreshold, false, "power +26.1% (max)"},
      {"Predict-9", core::SessionPolicy::kPredict, core::kPowerDrivenThreshold,
       true, "slightly below Accurate-9"},
      {"Accurate-20", core::SessionPolicy::kAccurate,
       core::kDelayDrivenThreshold, false, "delay +13.6% (max)"},
      {"Predict-20", core::SessionPolicy::kPredict, core::kDelayDrivenThreshold,
       true, "slightly below Accurate-20"},
  };
  const bool traced = bench::knobs().flag("EAB_TRACE");
  std::vector<core::SessionConfig> configs;
  for (const Case& c : cases) {
    core::SessionConfig& config = configs.emplace_back();
    config.policy = c.policy;
    config.threshold = c.threshold;
    config.model = c.needs_model ? &model : nullptr;
    config.stack.trace = traced;
  }

  // One shard per (case, user): user u's session runs at seed u + 1 under
  // every case.  Sessions of different policies end at different times, so
  // energy is compared over a common horizon by padding the shorter session
  // with IDLE power.  Under EAB_TRACE=1 the TraceAuditor replays each
  // session's trace against its own radio config and energy integral.  The
  // fold runs in index order, so every sum adds in the order of a serial
  // loop over cases, then users.
  const Seconds horizon = trace_config.browsing_per_user * 2.5;
  const std::size_t users = sessions.size();
  std::vector<Joules> energy(configs.size());
  std::vector<Seconds> delay(configs.size());
  int audit_failures = 0;
  core::sweep(
      bench::shared_runner(), configs.size() * users,
      [&](std::size_t i) {
        return core::run_session(sessions[i % users], configs[i / users],
                                 i % users + 1);
      },
      [&](std::size_t i, core::SessionResult&& result) {
        const core::SessionConfig& config = configs[i / users];
        energy[i / users] += result.energy.with_reading_j;
        if (result.energy.window_s < horizon) {
          energy[i / users] +=
              config.stack.power.idle * (horizon - result.energy.window_s);
        }
        delay[i / users] += result.total_load_delay;
        if (!traced) return;
        const auto report = obs::TraceAuditor().audit(
            *result.trace,
            core::make_audit_inputs(config.stack, result.energy.radio_j,
                                    result.energy.window_s));
        if (!report.ok()) {
          ++audit_failures;
          std::printf("AUDIT FAIL [%s user %zu]:\n%s\n",
                      core::to_string(config.policy), i % users + 1,
                      report.summary().c_str());
        }
      });

  TextTable table({"case", "power saving", "delay saving", "paper"});
  for (std::size_t c = 1; c < configs.size(); ++c) {
    table.add_row(
        {cases[c].name,
         format_percent(bench::saving(energy[0], energy[c])),
         format_percent(bench::saving(delay[0], delay[c])),
         cases[c].paper});
  }
  std::printf("%s", table.render().c_str());
  if (traced) {
    std::printf("audit: %d session traces violated invariants\n",
                audit_failures);
  }
  bench::print_script_memo_stats();
  return audit_failures > 0 ? 1 : 0;
}
