#include "radio/profiles.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"

namespace eab::radio {
namespace {

/// `config` through the builder, default reading window and seed.
core::Scenario scenario_of(const core::StackConfig& config) {
  return core::ScenarioBuilder().stack(config).build();
}

TEST(Profiles, UmtsIsTheLibraryDefault) {
  const RadioProfile umts = umts_profile();
  EXPECT_STREQ(umts.name, "UMTS (3G)");
  EXPECT_DOUBLE_EQ(umts.rrc.t1, RrcConfig{}.t1);
  EXPECT_DOUBLE_EQ(umts.power.fach, RadioPowerModel{}.fach);
  EXPECT_DOUBLE_EQ(umts.link.dch_bandwidth, LinkConfig{}.dch_bandwidth);
}

TEST(Profiles, LteIsFasterInEveryControlPlaneDimension) {
  const RadioProfile umts = umts_profile();
  const RadioProfile lte = lte_profile();
  EXPECT_LT(lte.rrc.idle_to_dch_delay, umts.rrc.idle_to_dch_delay);
  EXPECT_LT(lte.rrc.fach_to_dch_delay, umts.rrc.fach_to_dch_delay);
  EXPECT_LT(lte.rrc.t1 + lte.rrc.t2, umts.rrc.t1 + umts.rrc.t2);
  EXPECT_GT(lte.link.dch_bandwidth, umts.link.dch_bandwidth * 4);
  EXPECT_LT(lte.link.rtt, umts.link.rtt);
}

TEST(Profiles, LteHasNoSharedChannelDataPath) {
  sim::Simulator sim;
  const RadioProfile lte = lte_profile();
  RrcMachine rrc(sim, lte.rrc, lte.power);
  rrc.request_channel([&] {
    rrc.begin_transfer();
    rrc.end_transfer();
  });
  sim.run_until(lte.rrc.idle_to_dch_delay + lte.rrc.t1 + 0.2);
  ASSERT_EQ(rrc.state(), RrcState::kFach);  // DRX tail
  EXPECT_FALSE(rrc.small_transfer(100, [] {}));
}

TEST(Profiles, PagesLoadFasterOnLte) {
  core::StackConfig umts_cfg =
      core::ScenarioBuilder(browser::PipelineMode::kOriginal).build().stack;
  core::StackConfig lte_cfg = umts_cfg;
  const RadioProfile lte = lte_profile();
  lte_cfg.rrc = lte.rrc;
  lte_cfg.power = lte.power;
  lte_cfg.link = lte.link;

  const auto spec = corpus::m_cnn_spec();
  const auto on_umts = scenario_of(umts_cfg).run_single(spec);
  const auto on_lte = scenario_of(lte_cfg).run_single(spec);
  EXPECT_LT(on_lte.metrics.total_time(), on_umts.metrics.total_time());
  EXPECT_LT(on_lte.energy.with_reading_j, on_umts.energy.with_reading_j);
  // Same page either way.
  EXPECT_EQ(on_lte.dom_signature, on_umts.dom_signature);
}

TEST(Profiles, TechniqueStillWinsOnLte) {
  const RadioProfile lte = lte_profile();
  core::StackConfig orig_cfg =
      core::ScenarioBuilder(browser::PipelineMode::kOriginal).build().stack;
  core::StackConfig ea_cfg =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build().stack;
  for (core::StackConfig* config : {&orig_cfg, &ea_cfg}) {
    config->rrc = lte.rrc;
    config->power = lte.power;
    config->link = lte.link;
  }
  const auto spec = corpus::espn_sports_spec();
  const auto orig = scenario_of(orig_cfg).run_single(spec);
  const auto ea = scenario_of(ea_cfg).run_single(spec);
  EXPECT_LT(ea.energy.with_reading_j, orig.energy.with_reading_j);
  // ...but the absolute joules recovered shrink vs UMTS.
  const auto umts_orig = core::ScenarioBuilder(browser::PipelineMode::kOriginal)
                             .build()
                             .run_single(spec);
  const auto umts_ea = core::ScenarioBuilder(browser::PipelineMode::kEnergyAware)
                           .build()
                           .run_single(spec);
  const Joules saved_umts = umts_orig.energy.with_reading_j - umts_ea.energy.with_reading_j;
  const Joules saved_lte = orig.energy.with_reading_j - ea.energy.with_reading_j;
  EXPECT_LT(saved_lte, saved_umts);
}

TEST(Proxy, BundlesTheWholePageIntoOneStream) {
  const auto spec = corpus::espn_sports_spec();
  const core::Scenario scenario =
      core::ScenarioBuilder(browser::PipelineMode::kOriginal).build();
  const auto proxy = scenario.run_proxy(spec);
  const auto direct = scenario.run_single(spec);

  // Compressed bundle: fewer bytes than the raw page.
  EXPECT_LT(proxy.bundle_bytes, direct.bytes_fetched);
  EXPECT_GT(proxy.bundle_bytes, direct.bytes_fetched / 4);
  // One grouped stream beats even the reorganized pipeline on time/energy.
  EXPECT_LT(proxy.total_time, direct.metrics.total_time());
  EXPECT_LT(proxy.energy.with_reading_j, direct.energy.with_reading_j);
  EXPECT_GT(proxy.total_time, 0.0);
  EXPECT_GE(proxy.total_time, proxy.transmission_time);
}

TEST(Proxy, DeterministicAndSeedSensitive) {
  const auto spec = corpus::m_cnn_spec();
  const core::Scenario scenario =
      core::ScenarioBuilder(browser::PipelineMode::kOriginal).seed(5).build();
  const auto a = scenario.run_proxy(spec);
  const auto b = scenario.run_proxy(spec);
  EXPECT_DOUBLE_EQ(a.energy.with_reading_j, b.energy.with_reading_j);
  EXPECT_EQ(a.bundle_bytes, b.bundle_bytes);
}

TEST(Proxy, CompressionRatioScalesBundle) {
  const auto spec = corpus::m_cnn_spec();
  const core::Scenario scenario =
      core::ScenarioBuilder(browser::PipelineMode::kOriginal).build();
  core::ProxyConfig heavy;
  heavy.compression_ratio = 0.8;
  core::ProxyConfig light;
  light.compression_ratio = 0.2;
  const auto big = scenario.run_proxy(spec, heavy);
  const auto small = scenario.run_proxy(spec, light);
  EXPECT_GT(big.bundle_bytes, small.bundle_bytes * 3);
  EXPECT_GE(big.total_time, small.total_time);
}

}  // namespace
}  // namespace eab::radio
