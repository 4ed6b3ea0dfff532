// ScenarioBuilder: the unified assembly path for every experiment.
//
// The default builder must reproduce StackConfig{} byte for byte (pinned by
// whole-result digests of run_single), ScenarioBuilder(mode) must couple
// fast dormancy to the pipeline mode, and build()-time validation must
// reject the contradictory-knob combinations that used to surface as hangs
// or silent no-ops deep inside a run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"
#include "support/result_digest.hpp"

namespace eab::core {
namespace {

TEST(ScenarioBuilder, DefaultsMatchDefaultStackConfig) {
  // Every output field of a load, traced and untraced, on a mobile and a
  // full-benchmark page: the builder's defaults change nothing a run
  // reports.
  const corpus::PageSpec pages[] = {corpus::m_cnn_spec(),
                                    corpus::full_benchmark().front()};
  for (const corpus::PageSpec& page : pages) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(page.site + (traced ? " traced" : " untraced"));
      StackConfig stack;
      stack.trace = traced;
      const SingleLoadResult built =
          ScenarioBuilder().trace(traced).build().run_single(page);
      const SingleLoadResult plain =
          ScenarioBuilder().stack(stack).build().run_single(page);
      EXPECT_EQ(built.trace != nullptr, traced);
      EXPECT_EQ(test::result_digest(built), test::result_digest(plain));
    }
  }
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

/// The stack variants the run_single pins cover: each switches on one
/// optional layer of the phone, kAll switches on every one with tracing.
enum class Variant { kPlain, kFaults, kOutage, kCacheStorm, kRil, kAbort, kAll };

constexpr Variant kVariants[] = {Variant::kPlain,      Variant::kFaults,
                                 Variant::kOutage,     Variant::kCacheStorm,
                                 Variant::kRil,        Variant::kAbort,
                                 Variant::kAll};

StackConfig variant_stack(browser::PipelineMode mode, Variant variant) {
  StackConfig stack = ScenarioBuilder(mode).build().stack;
  const bool all = variant == Variant::kAll;
  if (variant == Variant::kFaults || all) {
    net::FaultPlan& faults = stack.fault_plan;
    faults.seed = 7;
    faults.connection_loss_rate = 0.08;
    faults.stall_rate = 0.08;
    faults.truncate_rate = 0.08;
    faults.slow_first_byte_rate = 0.08;
    faults.fade_count = 2;
    faults.fade_start = 1.0;
    faults.fade_period = 3.0;
    faults.fade_duration = 0.8;
    stack.retry.request_timeout = 3.0;
  }
  if (variant == Variant::kOutage || all) {
    stack.outage.seed = 5;
    stack.outage.count = 2;
    stack.outage.start = 0.5;
    stack.outage.period = 4.0;
    stack.outage.duration = 1.5;
    stack.outage.reestablish_fail_rate = 0.3;
  }
  if (variant == Variant::kCacheStorm || all) {
    stack.use_browser_cache = true;
    stack.chaos.cache_storm_count = 3;
    stack.chaos.cache_storm_start = 0.5;
    stack.chaos.cache_storm_period = 0.7;
  }
  if (variant == Variant::kRil || all) stack.chaos.ril_socket_failures = 2;
  if (variant == Variant::kAbort) stack.chaos.abort_at = 5.0;
  if (all) {
    stack.chaos.abort_at = 12.0;
    stack.trace = true;
  }
  return stack;
}

TEST(ScenarioPins, RunSingleIsByteIdenticalToTheRecordedBuild) {
  // FNV-1a over every output field (tests/support/result_digest.hpp) of
  // run_single for each stack variant, both pipelines and a mobile and a
  // full page, recorded before the UE stack assembly was shared between
  // run_single, run_session and the cell.  Any drift in the wiring or the
  // event scheduling order changes these.
  const corpus::PageSpec pages[] = {corpus::m_cnn_spec(),
                                    corpus::espn_sports_spec()};
  const std::uint64_t pins[2][std::size(kVariants)][2] = {
      // kOriginal: plain, faults, outage, cache storm, RIL, abort, all
      {{0xead585bebd3de6f0ULL, 0x1c15dd4a16483549ULL},
       {0xf0fe901f85be7ebbULL, 0x82f64224ebdeac9cULL},
       {0xf49457441ba7df64ULL, 0xc21c5ca6f8871f17ULL},
       {0xd10ef61e25f89b4bULL, 0x3e618ad01528ee8dULL},
       {0xead585bebd3de6f0ULL, 0x1c15dd4a16483549ULL},
       {0x37402306400a6a84ULL, 0x3bafc538501f7bdULL},
       {0xa73c62a511154b62ULL, 0x30699da908067d8bULL}},
      // kEnergyAware: plain, faults, outage, cache storm, RIL, abort, all
      {{0x99cde74f70db4e23ULL, 0x44749a9fa1951c86ULL},
       {0xe3e15f49535c0264ULL, 0x8cdaaada90d69a2bULL},
       {0x73146571d5302cc8ULL, 0xe73d44812d646125ULL},
       {0x23a8081a3e27361ULL, 0x120b31cee1edf21fULL},
       {0x54cc3a4edcae6f05ULL, 0x50db9d485ac52184ULL},
       {0xe82c0496e8afad51ULL, 0x3bafc538501f7bdULL},
       {0x9da4b7296e6312ULL, 0xce4ef8c340ec694aULL}},
  };
  const browser::PipelineMode modes[] = {browser::PipelineMode::kOriginal,
                                         browser::PipelineMode::kEnergyAware};
  int rlf = 0, fades = 0, aborted = 0;
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t v = 0; v < std::size(kVariants); ++v) {
      for (std::size_t p = 0; p < 2; ++p) {
        const SingleLoadResult result =
            ScenarioBuilder()
                .stack(variant_stack(modes[m], kVariants[v]))
                .seed(3)
                .build()
                .run_single(pages[p]);
        rlf += result.rlf_count;
        fades += result.link_fades;
        aborted += result.metrics.aborted ? 1 : 0;
        EXPECT_EQ(test::result_digest(result), pins[m][v][p])
            << "mode " << m << " variant " << v << " page " << p << ": 0x"
            << std::hex << test::result_digest(result);
      }
    }
  }
  // The variants really exercise the layers they are meant to.
  EXPECT_GT(rlf, 0);
  EXPECT_GT(fades, 0);
  EXPECT_GT(aborted, 0);
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
