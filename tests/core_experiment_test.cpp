#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"

namespace eab::core {
namespace {

using browser::PipelineMode;

/// A built scenario over StackConfig::for_mode(mode), default window/seed.
Scenario scenario_for(PipelineMode mode) {
  return ScenarioBuilder().stack(StackConfig::for_mode(mode)).build();
}

TEST(Experiment, StackConfigForModeSetsForcedRelease) {
  const auto orig = StackConfig::for_mode(browser::PipelineMode::kOriginal);
  EXPECT_FALSE(orig.force_idle_at_tx);
  const auto ea = StackConfig::for_mode(browser::PipelineMode::kEnergyAware);
  EXPECT_TRUE(ea.force_idle_at_tx);
  EXPECT_EQ(ea.pipeline.mode, browser::PipelineMode::kEnergyAware);
}

TEST(Experiment, SingleLoadProducesConsistentMeasurements) {
  const auto result =
      scenario_for(PipelineMode::kOriginal).run_single(corpus::m_cnn_spec());
  EXPECT_GT(result.metrics.transmission_time(), 0.0);
  EXPECT_GE(result.metrics.total_time(), result.metrics.transmission_time());
  EXPECT_GT(result.energy.load_j, 0.0);
  EXPECT_GT(result.energy.with_reading_j, result.energy.load_j);
  EXPECT_GT(result.dch_time, 0.0);
  EXPECT_EQ(result.idle_promotions, 1);  // cold start
  EXPECT_EQ(result.forced_releases, 0);  // original never forces
  EXPECT_GT(result.bytes_fetched, corpus::m_cnn_spec().html_bytes);
  EXPECT_FALSE(result.dom_signature.empty());
}

TEST(Experiment, EnergyAwareForcesExactlyOneRelease) {
  const auto result =
      scenario_for(PipelineMode::kEnergyAware).run_single(corpus::m_cnn_spec());
  EXPECT_EQ(result.forced_releases, 1);
}

TEST(Experiment, EnergyIntegralMatchesPowerTimeline) {
  const auto result =
      ScenarioBuilder()
          .stack(StackConfig::for_mode(browser::PipelineMode::kOriginal))
          .reading_window(20.0)
          .build()
          .run_single(corpus::m_cnn_spec());
  EXPECT_NEAR(result.energy.load_j,
              result.total_power.energy(0, result.metrics.final_display), 1e-9);
  EXPECT_NEAR(
      result.energy.with_reading_j,
      result.total_power.energy(0, result.metrics.final_display + 20.0), 1e-9);
}

TEST(Experiment, DeterministicForSeed) {
  const Scenario scenario =
      ScenarioBuilder()
          .stack(StackConfig::for_mode(browser::PipelineMode::kOriginal))
          .seed(5)
          .build();
  const auto a = scenario.run_single(corpus::m_cnn_spec());
  const auto b = scenario.run_single(corpus::m_cnn_spec());
  EXPECT_DOUBLE_EQ(a.energy.load_j, b.energy.load_j);
  EXPECT_DOUBLE_EQ(a.metrics.final_display, b.metrics.final_display);
  EXPECT_EQ(a.dom_signature, b.dom_signature);
}

TEST(Experiment, HeadlineResultHolds) {
  // The paper's core claim on its featured page: the energy-aware approach
  // cuts transmission time and total energy substantially (Figs 8-10).
  const auto spec = corpus::espn_sports_spec();
  const auto orig = scenario_for(PipelineMode::kOriginal).run_single(spec);
  const auto ea = scenario_for(PipelineMode::kEnergyAware).run_single(spec);

  EXPECT_EQ(orig.dom_signature, ea.dom_signature);
  EXPECT_EQ(orig.bytes_fetched, ea.bytes_fetched);
  // Transmission time saving in the paper's band (27-35 % for full pages;
  // allow a generous envelope so the test pins the direction, not the digit).
  const double tx_saving =
      1.0 - ea.metrics.transmission_time() / orig.metrics.transmission_time();
  EXPECT_GT(tx_saving, 0.15);
  EXPECT_LT(tx_saving, 0.50);
  // Energy saving with 20 s reading: paper reports >30 %.
  const double energy_saving = 1.0 - ea.energy.with_reading_j / orig.energy.with_reading_j;
  EXPECT_GT(energy_saving, 0.25);
  // DCH residency shrinks — that is the capacity mechanism.
  EXPECT_LT(ea.dch_time, orig.dch_time);
}

TEST(Experiment, BulkDownloadFasterThanBrowserLoad) {
  const auto spec = corpus::espn_sports_spec();
  const Scenario scenario = scenario_for(PipelineMode::kOriginal);
  const auto load = scenario.run_single(spec);
  const auto bulk = scenario.run_bulk(load.bytes_fetched);
  // Fig 4: the socket groups all transmissions; the browser spreads them.
  EXPECT_LT(bulk.duration(), load.metrics.transmission_time() * 0.7);
  EXPECT_GT(bulk.energy, 0.0);
}

TEST(Experiment, ReadingWindowEnergyDependsOnRadioPolicy) {
  // During 20 s of reading the original browser's radio walks the timer
  // chain (FACH power for much of it), while the energy-aware stack already
  // released — the per-window energy gap is why Fig 10 shows 30 %+ savings.
  const auto spec = corpus::m_cnn_spec();
  const auto orig = scenario_for(PipelineMode::kOriginal).run_single(spec);
  const auto ea = scenario_for(PipelineMode::kEnergyAware).run_single(spec);
  const Joules orig_reading = orig.energy.with_reading_j - orig.energy.load_j;
  const Joules ea_reading = ea.energy.with_reading_j - ea.energy.load_j;
  EXPECT_GT(orig_reading, ea_reading * 2.0);
}

}  // namespace
}  // namespace eab::core
