// ScenarioBuilder: the unified assembly path for every experiment.
//
// The default builder must reproduce StackConfig{} byte for byte (the memo
// key is a canonical serialization of every StackConfig field, so key
// equality is field-by-field equality), ScenarioBuilder(mode) must couple
// fast dormancy to the pipeline mode, and build()-time validation must
// reject the contradictory-knob combinations that used to surface as hangs
// or silent no-ops deep inside a run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/batch.hpp"
#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"

namespace eab::core {
namespace {

std::string key_of(const StackConfig& config) {
  BatchJob job;
  job.spec = corpus::m_cnn_spec();
  job.config = config;
  return batch_memo_key(job);
}

TEST(ScenarioBuilder, DefaultsMatchDefaultStackConfig) {
  // The canonical serialization covers every StackConfig field: equal keys
  // mean the builder reproduces the pre-builder defaults exactly.
  EXPECT_EQ(key_of(ScenarioBuilder().build().stack), key_of(StackConfig{}));
}

TEST(ScenarioBuilder, MemoKeyCoversHandoverFields) {
  const StackConfig base;
  StackConfig delay = base;
  delay.rrc.handover_delay += 0.1;
  StackConfig power = base;
  power.rrc.handover_power += 0.1;
  EXPECT_NE(key_of(delay), key_of(base));
  EXPECT_NE(key_of(power), key_of(base));
  EXPECT_NE(key_of(delay), key_of(power));
}

TEST(ScenarioBuilder, ModeCouplesFastDormancy) {
  // Energy-aware couples fast dormancy on; Original leaves it off.
  EXPECT_TRUE(ScenarioBuilder(browser::PipelineMode::kEnergyAware)
                  .build()
                  .stack.force_idle_at_tx);
  EXPECT_FALSE(ScenarioBuilder(browser::PipelineMode::kOriginal)
                   .build()
                   .stack.force_idle_at_tx);
}

TEST(ScenarioBuilder, DefaultRunParameters) {
  const Scenario scenario = ScenarioBuilder().build();
  EXPECT_DOUBLE_EQ(scenario.reading_window, 20.0);
  EXPECT_EQ(scenario.seed, 1u);
}

TEST(ScenarioBuilder, RejectsZeroEventBudget) {
  EXPECT_THROW(ScenarioBuilder().sim_event_budget(0).build(),
               std::invalid_argument);
}

TEST(ScenarioBuilder, RejectsStallsWithoutWatchdog) {
  net::FaultPlan plan;
  plan.stall_rate = 0.1;
  EXPECT_THROW(ScenarioBuilder().fault_plan(plan).build(),
               std::invalid_argument);
  // Arming the watchdog makes the same plan valid.
  net::RetryPolicy retry;
  retry.request_timeout = 4.0;
  EXPECT_NO_THROW(ScenarioBuilder().fault_plan(plan).retry(retry).build());
}

TEST(ScenarioBuilder, RejectsCacheStormWithoutCache) {
  ChaosDirectives chaos;
  chaos.cache_storm_count = 2;
  EXPECT_THROW(ScenarioBuilder().chaos(chaos).build(), std::invalid_argument);
  EXPECT_NO_THROW(
      ScenarioBuilder().browser_cache(1 << 20).chaos(chaos).build());
}

TEST(ScenarioBuilder, RejectsNonsenseKnobs) {
  EXPECT_THROW(ScenarioBuilder().max_parallel_connections(0).build(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioBuilder().reading_window(-1.0).build(),
               std::invalid_argument);
  ChaosDirectives chaos;
  chaos.abort_at = -2.0;
  EXPECT_THROW(ScenarioBuilder().chaos(chaos).build(), std::invalid_argument);
  net::RetryPolicy retry;
  retry.max_retries = -1;
  EXPECT_THROW(ScenarioBuilder().retry(retry).build(), std::invalid_argument);
}

TEST(ScenarioBuilder, WholesaleStackValidatesToo) {
  // A pre-built StackConfig handed over through stack() passes the same
  // build() checks as one assembled knob by knob.
  StackConfig config;
  config.sim_event_budget = 0;
  EXPECT_THROW(ScenarioBuilder().stack(config).build(), std::invalid_argument);
}

TEST(ScenarioBuilder, BuildSessionUnifiesRilDirective) {
  ChaosDirectives chaos;
  chaos.ril_socket_failures = 3;
  const SessionConfig session = ScenarioBuilder()
                                    .chaos(chaos)
                                    .build_session(SessionPolicy::kAccurate);
  EXPECT_EQ(session.policy, SessionPolicy::kAccurate);
  EXPECT_EQ(session.ril_socket_failures, 3);
  EXPECT_EQ(key_of(session.stack),
            key_of(ScenarioBuilder().chaos(chaos).build().stack));
}

TEST(EnergyReport, ToJsonIsDeterministicAndExact) {
  EnergyReport report;
  report.load_j = 15.25;
  report.with_reading_j = 27.125;
  report.radio_j = 11.0625;
  report.window_s = 31.5;
  const std::string json =
      "{\"load_j\":15.25,\"with_reading_j\":27.125,\"radio_j\":11.0625,"
      "\"window_s\":31.5}";
  EXPECT_EQ(report.to_json(), json);
  EXPECT_EQ(report.to_json(), report.to_json());
}

TEST(EnergyReport, MeasureIntegratesBothTimelines) {
  PowerTimeline total;
  total.set_power(0.0, 2.0);   // 2 W from t=0
  total.set_power(10.0, 1.0);  // 1 W from t=10
  PowerTimeline radio;
  radio.set_power(0.0, 0.5);
  const EnergyReport report = EnergyReport::measure(total, radio, 10.0, 20.0);
  EXPECT_DOUBLE_EQ(report.load_j, 20.0);
  EXPECT_DOUBLE_EQ(report.with_reading_j, 30.0);
  EXPECT_DOUBLE_EQ(report.radio_j, 10.0);
  EXPECT_DOUBLE_EQ(report.window_s, 20.0);
  EXPECT_THROW(EnergyReport::measure(total, radio, 5.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace eab::core
