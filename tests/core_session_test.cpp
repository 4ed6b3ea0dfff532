#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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
    config.model = model;
    return run_session(visits(), config, 1);
  }
};

/// A model that predicts `seconds` for every page (it regresses log dwell
/// time, as every trained model does).
gbrt::GbrtModel constant_model(Seconds seconds) {
  return gbrt::GbrtModel::assemble(std::log(seconds), 1.0, {});
}

/// The first value past `t`: the smallest read that is strictly longer.
Seconds just_past(Seconds t) {
  return std::nextafter(t, std::numeric_limits<Seconds>::infinity());
}

/// Runs one m.cnn.com page per read under `config` and returns how many
/// reads the policy released the radio for.
int switches_for(const SessionConfig& config,
                 const std::vector<Seconds>& reads) {
  const corpus::PageSpec page = corpus::m_cnn_spec();
  std::vector<PageVisit> visits;
  for (const Seconds read : reads) visits.push_back({&page, read});
  return run_session(visits, config, 1).switches_to_idle;
}

/// The policy steps of a traced session, in order.
std::vector<obs::TraceEvent> policy_events(const SessionResult& result) {
  std::vector<obs::TraceEvent> steps;
  for (const obs::TraceEvent& event : result.trace->events()) {
    if (event.kind == obs::TraceKind::kPolicyAlphaWait ||
        event.kind == obs::TraceKind::kPolicyPrediction ||
        event.kind == obs::TraceKind::kPolicyDecision) {
      steps.push_back(event);
    }
  }
  return steps;
}

/// A predictor that splits on page size: the mobile pages of visits() read
/// for 5 s, the full ESPN page for 30 s, so Predict at 9 s switches on some
/// pages and keeps the radio on others.
gbrt::GbrtModel page_size_model() {
  return gbrt::GbrtModel::assemble(
      0.0, 1.0,
      // Node feature:threshold:left:right:value; feature 1 is PageSizeKB
      // and the leaves hold ln 5 and ln 30.
      {gbrt::RegressionTree::parse("1:200:1:2:0;"
                                   "-1:0:-1:-1:1.6094379124341003;"
                                   "-1:0:-1:-1:3.4011973816621555;")});
}

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
  // The oracle needs none.
  config.policy = SessionPolicy::kAccurate;
  EXPECT_NO_THROW(run_session(visits(), config, 1));
}

TEST_F(SessionFixture, Algorithm2RequiresModel) {
  // Algorithm 2 is kPredict at Td or Tp: neither threshold spares the model.
  SessionConfig config;
  config.policy = SessionPolicy::kPredict;
  for (const Seconds threshold :
       {kDelayDrivenThreshold, kPowerDrivenThreshold}) {
    config.threshold = threshold;
    EXPECT_THROW(run_session(visits(), config, 1), std::invalid_argument)
        << threshold;
  }
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
  // Algorithm 2 is kPredict at Tp (power-driven) or Td (delay-driven).  A
  // constant 12 s predictor sits above Tp = 9 s but below Td = 20 s: every
  // read past alpha (all four) switches at Tp, none at Td.
  const auto model = constant_model(12.0);
  EXPECT_EQ(
      run(SessionPolicy::kPredict, kPowerDrivenThreshold, &model)
          .switches_to_idle,
      4);
  EXPECT_EQ(
      run(SessionPolicy::kPredict, kDelayDrivenThreshold, &model)
          .switches_to_idle,
      0);
}

TEST_F(SessionFixture, Algorithm2RespectsTdInBothModes) {
  // 25 s > Td = 20 s > Tp: even the delay-driven threshold switches.
  const auto model = constant_model(25.0);
  for (const Seconds threshold :
       {kDelayDrivenThreshold, kPowerDrivenThreshold}) {
    EXPECT_EQ(run(SessionPolicy::kPredict, threshold, &model).switches_to_idle,
              4)
        << threshold;
  }
}

TEST_F(SessionFixture, ReadOfExactlyAlphaArmsNoWait) {
  // Only a read that lasts past alpha reaches a decision, whatever the
  // estimator says.
  const auto always = constant_model(100.0);
  SessionConfig config;
  config.stack.trace = true;
  config.model = &always;
  for (const SessionPolicy policy :
       {SessionPolicy::kAccurate, SessionPolicy::kPredict}) {
    config.policy = policy;
    config.threshold = 1.0;  // below alpha: the oracle would switch too
    const auto at = run_session({{&mobile, config.alpha}}, config, 1);
    EXPECT_EQ(at.switches_to_idle, 0) << to_string(policy);
    EXPECT_TRUE(policy_events(at).empty()) << to_string(policy);
    const auto past = run_session({{&mobile, just_past(config.alpha)}}, config,
                                  1);
    EXPECT_EQ(past.switches_to_idle, 1) << to_string(policy);
    EXPECT_EQ(past.trace->count(obs::TraceKind::kPolicyAlphaWait), 1u)
        << to_string(policy);
  }
}

TEST_F(SessionFixture, AccurateDecidesWhenThePageOpens) {
  // The oracle knows the reading time when the page opens: a read it keeps
  // the radio for records nothing, a read it switches on waits alpha and
  // records its decision with x = 0, and it never records a prediction.
  SessionConfig config;
  config.policy = SessionPolicy::kAccurate;
  config.stack.trace = true;
  const auto kept = run_session({{&mobile, 8.0}}, config, 1);
  EXPECT_TRUE(policy_events(kept).empty());

  const auto released = run_session({{&mobile, 25.0}}, config, 1);
  const std::vector<obs::TraceEvent> steps = policy_events(released);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].kind, obs::TraceKind::kPolicyAlphaWait);
  EXPECT_EQ(steps[0].x, config.alpha);
  EXPECT_EQ(steps[1].kind, obs::TraceKind::kPolicyDecision);
  EXPECT_EQ(steps[1].a, 1);
  EXPECT_EQ(steps[1].x, 0.0);
  EXPECT_DOUBLE_EQ(steps[1].t - steps[0].t, config.alpha);
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
  // The kPredict row was recorded before the three reading-time policies
  // became one threshold rule.
  const gbrt::GbrtModel model = page_size_model();
  const SessionPolicy policies[] = {
      SessionPolicy::kBaseline, SessionPolicy::kOriginalAlwaysOff,
      SessionPolicy::kEnergyAwareAlwaysOff, SessionPolicy::kAccurate,
      SessionPolicy::kPredict};
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
          // kPredict
          {0x6dc33da45109c592ULL, 0xe7890702a94c9908ULL, 0xe60e8b4282b9c945ULL,
           0x3a5ede62fcd04773ULL, 0x051327a59eb868d3ULL},
      };
  int rlf = 0, socket_failures = 0;
  for (std::size_t p = 0; p < std::size(policies); ++p) {
    for (std::size_t v = 0; v < std::size(kSessionVariants); ++v) {
      const SessionVariant variant = kSessionVariants[v];
      const bool all = variant == SessionVariant::kAll;
      SessionConfig config;
      config.policy = policies[p];
      config.threshold = 9.0;
      config.model = &model;
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
      if (policies[p] == SessionPolicy::kPredict && !all &&
          variant != SessionVariant::kRil) {
        // Both branches of the decision: only the full page switches (the
        // RIL variants' socket failures swallow that one request).
        EXPECT_EQ(result.switches_to_idle, 1) << "variant " << v;
      }
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
}

// Algorithm 2's switch rule, run through whole sessions: the oracle's
// reads and the model's predictions meet the same strict threshold.

TEST(Controller, DelayDrivenSwitchesOnlyAboveTd) {
  SessionConfig config;
  config.policy = SessionPolicy::kAccurate;
  config.threshold = kDelayDrivenThreshold;
  // 10 s is above Tp but not Td; a read of exactly Td keeps the radio.
  EXPECT_EQ(switches_for(config, {5.0, 10.0, kDelayDrivenThreshold}), 0);
  EXPECT_EQ(
      switches_for(config, {just_past(kDelayDrivenThreshold), 20.1, 600.0}),
      3);
}

TEST(Controller, PowerDrivenSwitchesAboveTp) {
  SessionConfig config;
  config.policy = SessionPolicy::kAccurate;
  config.threshold = kPowerDrivenThreshold;
  EXPECT_EQ(switches_for(config, {8.9, kPowerDrivenThreshold}), 0);
  EXPECT_EQ(
      switches_for(config, {just_past(kPowerDrivenThreshold), 9.1, 25.0}), 3);
}

TEST(Controller, CustomThresholds) {
  // Any threshold works: a 6 s prediction clears 5 s but neither 12 s nor
  // exactly itself, a 13 s prediction clears 12 s.
  const auto six = constant_model(6.0);
  const auto thirteen = constant_model(13.0);
  SessionConfig config;
  config.policy = SessionPolicy::kPredict;
  config.model = &six;
  config.threshold = 5.0;
  EXPECT_EQ(switches_for(config, {30.0, 30.0}), 2);
  config.threshold = 12.0;
  EXPECT_EQ(switches_for(config, {30.0, 30.0}), 0);
  config.threshold = std::exp(std::log(6.0));
  EXPECT_EQ(switches_for(config, {30.0, 30.0}), 0);
  config.model = &thirteen;
  EXPECT_EQ(switches_for(config, {30.0, 30.0}), 2);
}

TEST(Controller, PaperDefaultsMatchTable2) {
  EXPECT_EQ(kPowerDrivenThreshold, 9.0);   // Tp, Fig 3 crossover
  EXPECT_EQ(kDelayDrivenThreshold, 20.0);  // Td
  const SessionConfig config;
  EXPECT_EQ(config.alpha, 2.0);
  EXPECT_EQ(config.threshold, kPowerDrivenThreshold);
  EXPECT_EQ(config.model, nullptr);
}

TEST(Controller, PredictsThroughPredictor) {
  // A model predicts alpha after the page opens, records the prediction and
  // decides on it: 50 s clears Td.
  const auto model = constant_model(50.0);
  const corpus::PageSpec page = corpus::m_cnn_spec();
  SessionConfig config;
  config.policy = SessionPolicy::kPredict;
  config.threshold = kDelayDrivenThreshold;
  config.model = &model;
  config.stack.trace = true;
  const auto result = run_session({{&page, 30.0}}, config, 1);
  const std::vector<obs::TraceEvent> steps = policy_events(result);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, obs::TraceKind::kPolicyAlphaWait);
  EXPECT_EQ(steps[1].kind, obs::TraceKind::kPolicyPrediction);
  EXPECT_EQ(steps[2].kind, obs::TraceKind::kPolicyDecision);
  EXPECT_DOUBLE_EQ(steps[1].t - steps[0].t, config.alpha);
  EXPECT_NEAR(steps[1].x, 50.0, 1e-9);
  EXPECT_EQ(steps[2].x, steps[1].x);
  EXPECT_EQ(steps[2].a, 1);
  EXPECT_EQ(result.switches_to_idle, 1);
}

TEST(ReadingPredictor, LogDomainConversion) {
  // Every model regresses log dwell time (trace::to_log_dataset), so a
  // model that outputs ln(30) predicts 30 s.
  const auto model = gbrt::GbrtModel::assemble(std::log(30.0), 1.0, {});
  const corpus::PageSpec page = corpus::m_cnn_spec();
  SessionConfig config;
  config.policy = SessionPolicy::kPredict;
  config.model = &model;
  config.stack.trace = true;
  const auto result = run_session({{&page, 30.0}}, config, 1);
  const std::vector<obs::TraceEvent> steps = policy_events(result);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_NEAR(steps[1].x, 30.0, 1e-9);
}

}  // namespace
}  // namespace eab::core
