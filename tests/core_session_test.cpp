#include "core/session.hpp"

#include <gtest/gtest.h>

#include "support/result_digest.hpp"

namespace eab::core {
namespace {

struct SessionFixture : ::testing::Test {
  corpus::PageSpec mobile = corpus::m_cnn_spec();
  corpus::PageSpec full = corpus::espn_sports_spec();

  std::vector<PageVisit> visits() {
    return {{&mobile, 25.0}, {&full, 40.0}, {&mobile, 8.0}, {&mobile, 3.0}};
  }

  SessionResult run(SessionPolicy policy, Seconds threshold = 9.0,
                    const gbrt::GbrtModel* model = nullptr) {
    SessionConfig config;
    config.policy = policy;
    config.threshold = threshold;
    config.predictor.model = model;
    return run_session(visits(), config, 1);
  }
};

TEST_F(SessionFixture, BaselineRunsAllPages) {
  const SessionResult result = run(SessionPolicy::kBaseline);
  EXPECT_EQ(result.pages, 4);
  EXPECT_EQ(result.switches_to_idle, 0);
  EXPECT_EQ(result.page_load_times.size(), 4u);
  EXPECT_GT(result.energy.with_reading_j, 0.0);
  EXPECT_GT(result.energy.window_s, 25 + 40 + 8 + 3);
}

TEST_F(SessionFixture, AlwaysOffSwitchesEveryPage) {
  const SessionResult result = run(SessionPolicy::kOriginalAlwaysOff);
  EXPECT_EQ(result.switches_to_idle, 4);
}

TEST_F(SessionFixture, AccurateSwitchesOnlyLongReads) {
  // Threshold 9 s: pages read for 25 s and 40 s qualify; 8 s and 3 s do not.
  const SessionResult result = run(SessionPolicy::kAccurate, 9.0);
  EXPECT_EQ(result.switches_to_idle, 2);
  // Threshold 20 s: only 25 s and 40 s still qualify.
  EXPECT_EQ(run(SessionPolicy::kAccurate, 20.0).switches_to_idle, 2);
  // Threshold 30 s: only the 40 s read.
  EXPECT_EQ(run(SessionPolicy::kAccurate, 30.0).switches_to_idle, 1);
}

TEST_F(SessionFixture, PredictUsesModel) {
  // A constant model predicting 100 s switches on every page read past
  // alpha; one predicting 1 s never switches.
  const auto always = gbrt::GbrtModel::assemble(std::log(100.0), 1.0, {});
  const auto never = gbrt::GbrtModel::assemble(std::log(1.0), 1.0, {});
  // Reads above alpha = 2 s: 25, 40, 8 (3 s also above). All four predict.
  EXPECT_EQ(run(SessionPolicy::kPredict, 9.0, &always).switches_to_idle, 4);
  EXPECT_EQ(run(SessionPolicy::kPredict, 9.0, &never).switches_to_idle, 0);
}

TEST_F(SessionFixture, PredictRequiresModel) {
  SessionConfig config;
  config.policy = SessionPolicy::kPredict;
  EXPECT_THROW(run_session(visits(), config, 1), std::invalid_argument);
}

TEST_F(SessionFixture, NullSpecRejected) {
  SessionConfig config;
  std::vector<PageVisit> bad = {{nullptr, 5.0}};
  EXPECT_THROW(run_session(bad, config, 1), std::invalid_argument);
}

TEST_F(SessionFixture, EnergyAwarePoliciesUseLessEnergyThanBaseline) {
  const SessionResult baseline = run(SessionPolicy::kBaseline);
  const SessionResult ea_off = run(SessionPolicy::kEnergyAwareAlwaysOff);
  const SessionResult accurate = run(SessionPolicy::kAccurate, 9.0);
  EXPECT_LT(ea_off.energy.with_reading_j, baseline.energy.with_reading_j);
  EXPECT_LT(accurate.energy.with_reading_j, baseline.energy.with_reading_j);
}

TEST_F(SessionFixture, ReorganizedPipelineLoadsFaster) {
  const SessionResult baseline = run(SessionPolicy::kBaseline);
  const SessionResult accurate = run(SessionPolicy::kAccurate, 20.0);
  EXPECT_LT(accurate.total_load_delay, baseline.total_load_delay);
}

TEST_F(SessionFixture, EagerSwitchingCostsDelayOnQuickFollowups) {
  // Visits with short reads: always-off pays the IDLE->DCH promotion on
  // every next click, the timer-driven baseline does not.
  std::vector<PageVisit> quick = {{&mobile, 3.0}, {&mobile, 3.0},
                                  {&mobile, 3.0}, {&mobile, 3.0}};
  SessionConfig baseline_config;
  baseline_config.policy = SessionPolicy::kBaseline;
  SessionConfig eager_config;
  eager_config.policy = SessionPolicy::kOriginalAlwaysOff;
  const SessionResult baseline = run_session(quick, baseline_config, 1);
  const SessionResult eager = run_session(quick, eager_config, 1);
  EXPECT_GT(eager.total_load_delay, baseline.total_load_delay + 2.0);
}

TEST_F(SessionFixture, DeterministicForSeed) {
  const SessionResult a = run(SessionPolicy::kAccurate, 9.0);
  const SessionResult b = run(SessionPolicy::kAccurate, 9.0);
  EXPECT_DOUBLE_EQ(a.energy.with_reading_j, b.energy.with_reading_j);
  EXPECT_DOUBLE_EQ(a.total_load_delay, b.total_load_delay);
}

TEST_F(SessionFixture, EmptySessionIsHarmless) {
  SessionConfig config;
  const SessionResult result = run_session({}, config, 1);
  EXPECT_EQ(result.pages, 0);
  EXPECT_DOUBLE_EQ(result.energy.with_reading_j, 0.0);
}

TEST_F(SessionFixture, Algorithm2PowerDrivenSwitchesAboveTp) {
  // A constant predictor of 12 s: above Tp=9 but below Td=20 — the
  // power-driven mode switches, the delay-driven mode does not.
  const auto model = gbrt::GbrtModel::assemble(std::log(12.0), 1.0, {});
  SessionConfig config;
  config.policy = SessionPolicy::kAlgorithm2;
  config.predictor.model = &model;
  config.controller.mode = DecisionMode::kPowerDriven;
  const auto power_driven = run_session(visits(), config, 1);
  // Reads above alpha: all four -> four predictions, all 12 s > Tp.
  EXPECT_EQ(power_driven.switches_to_idle, 4);

  config.controller.mode = DecisionMode::kDelayDriven;
  const auto delay_driven = run_session(visits(), config, 1);
  EXPECT_EQ(delay_driven.switches_to_idle, 0);
}

TEST_F(SessionFixture, Algorithm2RespectsTdInBothModes) {
  const auto model = gbrt::GbrtModel::assemble(std::log(25.0), 1.0, {});
  SessionConfig config;
  config.policy = SessionPolicy::kAlgorithm2;
  config.predictor.model = &model;
  config.controller.mode = DecisionMode::kDelayDriven;
  // 25 s > Td = 20 s: even the delay-driven mode switches.
  EXPECT_EQ(run_session(visits(), config, 1).switches_to_idle, 4);
}

TEST_F(SessionFixture, Algorithm2RequiresModel) {
  SessionConfig config;
  config.policy = SessionPolicy::kAlgorithm2;
  EXPECT_THROW(run_session(visits(), config, 1), std::invalid_argument);
}

/// The stack variants the run_session pins cover: each switches on one
/// optional layer of the phone, kAll switches on every one with tracing.
enum class SessionVariant { kPlain, kFaults, kOutage, kRil, kAll };

constexpr SessionVariant kSessionVariants[] = {
    SessionVariant::kPlain, SessionVariant::kFaults, SessionVariant::kOutage,
    SessionVariant::kRil, SessionVariant::kAll};

TEST_F(SessionFixture, RunSessionIsByteIdenticalToTheRecordedBuild) {
  // FNV-1a over every SessionResult field plus, when traced, the Chrome
  // trace export (tests/support/result_digest.hpp), recorded before the UE
  // stack assembly was shared between run_single, run_session and the
  // cell.  The outage variant declares radio-link failures mid-session.
  const SessionPolicy policies[] = {
      SessionPolicy::kBaseline, SessionPolicy::kOriginalAlwaysOff,
      SessionPolicy::kEnergyAwareAlwaysOff, SessionPolicy::kAccurate};
  // Columns: plain, faults, outage, RIL failures, all with tracing.
  const std::uint64_t pins[std::size(policies)][std::size(kSessionVariants)] =
      {
          // kBaseline
          {0xf06376d1cf70bf2bULL, 0x76304fb05874302bULL, 0x52a0919816828607ULL,
           0xf06376d1cf70bf2bULL, 0xe60118fccd9f63a1ULL},
          // kOriginalAlwaysOff
          {0x9b447006108e9021ULL, 0x8b467254dd3718bbULL, 0x862e45f23268ce61ULL,
           0x86df8d0a24098373ULL, 0x3f3fbeb5dc658c01ULL},
          // kEnergyAwareAlwaysOff
          {0xe265498f2d4c06bULL, 0x7a70a3281f6e1a49ULL, 0x12fb75a8327b4c55ULL,
           0xb9c8c1207a0aaddcULL, 0xfaba23e88b8d9d46ULL},
          // kAccurate
          {0xaf860adf0a878750ULL, 0xbae659beb44c341bULL, 0x71de817341251af9ULL,
           0xe142a87343bbc162ULL, 0x42610b0c8b9b3025ULL},
      };
  int rlf = 0, socket_failures = 0;
  for (std::size_t p = 0; p < std::size(policies); ++p) {
    for (std::size_t v = 0; v < std::size(kSessionVariants); ++v) {
      const SessionVariant variant = kSessionVariants[v];
      const bool all = variant == SessionVariant::kAll;
      SessionConfig config;
      config.policy = policies[p];
      config.threshold = 9.0;
      if (variant == SessionVariant::kFaults || all) {
        net::FaultPlan& faults = config.stack.fault_plan;
        faults.seed = 11;
        faults.connection_loss_rate = 0.05;
        faults.stall_rate = 0.05;
        faults.truncate_rate = 0.05;
        faults.slow_first_byte_rate = 0.05;
        faults.fade_count = 3;
        faults.fade_start = 2.0;
        faults.fade_period = 20.0;
        faults.fade_duration = 1.0;
        config.stack.retry.request_timeout = 3.0;
      }
      if (variant == SessionVariant::kOutage || all) {
        config.stack.outage.seed = 3;
        config.stack.outage.count = 4;
        config.stack.outage.start = 0.5;
        config.stack.outage.period = 21.0;
        config.stack.outage.duration = 2.0;
        config.stack.outage.reestablish_fail_rate = 0.3;
      }
      if (variant == SessionVariant::kRil || all) {
        config.stack.chaos.ril_socket_failures = 2;
      }
      config.stack.trace = all;
      const SessionResult result = run_session(visits(), config, 1);
      EXPECT_EQ(result.trace != nullptr, all);
      rlf += result.rlf_count;
      socket_failures += result.ril_socket_failures;
      const std::uint64_t digest = test::result_digest(result);
      EXPECT_EQ(digest, pins[p][v])
          << "policy " << p << " variant " << v << ": 0x" << std::hex
          << digest;
    }
  }
  // The variants really exercise the layers they are meant to.
  EXPECT_GT(rlf, 0);
  EXPECT_GT(socket_failures, 0);
}

TEST(SessionPolicyNames, AllDistinct) {
  EXPECT_STREQ(to_string(SessionPolicy::kBaseline), "Original");
  EXPECT_STREQ(to_string(SessionPolicy::kAccurate), "Accurate");
  EXPECT_STREQ(to_string(SessionPolicy::kPredict), "Predict");
  EXPECT_STREQ(to_string(SessionPolicy::kAlgorithm2), "Algorithm-2");
}

}  // namespace
}  // namespace eab::core
