#include "core/ril.hpp"

#include <gtest/gtest.h>

#include "core/session.hpp"

namespace eab::core {
namespace {

struct RilFixture : ::testing::Test {
  sim::Simulator sim;
  radio::RrcConfig rrc_config;
  radio::RadioPowerModel power;
  radio::RrcMachine rrc{sim, rrc_config, power};

  void bring_to_fach() {
    rrc.request_channel([this] {
      rrc.begin_transfer();
      rrc.end_transfer();
    });
    sim.run_until(rrc_config.idle_to_dch_delay + rrc_config.t1 + 0.5);
    ASSERT_EQ(rrc.state(), radio::RrcState::kFach);
  }
};

TEST_F(RilFixture, RequestTravelsTheChainThenReleases) {
  bring_to_fach();
  RilLatencies latencies;
  RilStateSwitcher ril(sim, rrc, latencies);
  const Seconds requested = sim.now();

  bool switched = false;
  ril.request_idle([&](bool ok) { switched = ok; });
  // Not yet: the message is still travelling.
  EXPECT_EQ(rrc.phase(), radio::RadioPhase::kStable);
  sim.run_until(requested + latencies.total() + 0.001);
  EXPECT_TRUE(switched);
  EXPECT_EQ(rrc.phase(), radio::RadioPhase::kReleasing);

  sim.run_until(requested + latencies.total() + rrc_config.release_delay + 0.1);
  EXPECT_EQ(rrc.state(), radio::RrcState::kIdle);
  EXPECT_EQ(ril.requests_sent(), 1);
  EXPECT_EQ(ril.releases_started(), 1);
}

TEST_F(RilFixture, RequestOnIdleRadioReportsFalse) {
  RilStateSwitcher ril(sim, rrc);
  bool result = true;
  ril.request_idle([&](bool ok) { result = ok; });
  sim.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(ril.releases_started(), 0);
}

TEST_F(RilFixture, SocketFailureLeavesRadioUnderTimerControl) {
  bring_to_fach();
  RilStateSwitcher ril(sim, rrc);
  ril.fail_next(1);
  bool result = true;
  ril.request_idle([&](bool ok) { result = ok; });
  const Seconds fach_entered = sim.now();
  sim.run_until(fach_entered + 1.0);
  EXPECT_FALSE(result);
  EXPECT_EQ(ril.socket_failures(), 1);
  EXPECT_EQ(rrc.state(), radio::RrcState::kFach);  // untouched

  // T2 still demotes the radio eventually — no wedge.
  sim.run_until(fach_entered + rrc_config.t2 + 1.0);
  EXPECT_EQ(rrc.state(), radio::RrcState::kIdle);
}

TEST_F(RilFixture, FailureInjectionIsConsumed) {
  bring_to_fach();
  RilStateSwitcher ril(sim, rrc);
  ril.fail_next(1);
  ril.request_idle();
  sim.run_until(sim.now() + 0.1);
  EXPECT_EQ(ril.socket_failures(), 1);

  // Second request goes through (radio is still FACH).
  bool switched = false;
  ril.request_idle([&](bool ok) { switched = ok; });
  sim.run();
  EXPECT_TRUE(switched);
}

TEST(RilSessionFallback, ExhaustedRetriesStillDemoteViaTimersInSession) {
  // The isolated SocketFailureLeavesRadioUnderTimerControl test drives the
  // switcher by hand; this one asserts the same guarantee inside a full
  // run_session, where the policy fires the requests and the next page's
  // promotion depends on the radio actually being timer-controlled.
  corpus::PageSpec mobile = corpus::m_cnn_spec();
  corpus::PageSpec full = corpus::espn_sports_spec();
  const std::vector<PageVisit> visits = {
      {&mobile, 25.0}, {&full, 40.0}, {&mobile, 8.0}};

  SessionConfig config;
  config.policy = SessionPolicy::kOriginalAlwaysOff;  // requests IDLE per page
  // Every request dies at the socket hop.
  config.stack.chaos.ril_socket_failures = 3;

  const SessionResult result = run_session(visits, config, 1);
  EXPECT_EQ(result.pages, 3);
  // No release ever started: every switch attempt failed...
  EXPECT_EQ(result.switches_to_idle, 0);
  EXPECT_EQ(result.ril_socket_failures, 3);
  // ...yet the radio still reached IDLE during the long reading gaps: the
  // T1/T2 timers demoted it (a wedged transfer marker would pin DCH and
  // radio_idle_time would be zero).
  EXPECT_GT(result.radio_idle_time, 0.0);
  // And the session matches the plain baseline bit for bit: failed releases
  // leave the radio exactly as if the policy had never asked.
  SessionConfig baseline;
  baseline.policy = SessionPolicy::kBaseline;
  const SessionResult plain = run_session(visits, baseline, 1);
  EXPECT_DOUBLE_EQ(result.energy.with_reading_j, plain.energy.with_reading_j);
  EXPECT_DOUBLE_EQ(result.radio_idle_time, plain.radio_idle_time);
  EXPECT_DOUBLE_EQ(result.total_load_delay, plain.total_load_delay);
}

TEST_F(RilFixture, CallbackIsOptional) {
  bring_to_fach();
  RilStateSwitcher ril(sim, rrc);
  EXPECT_NO_THROW(ril.request_idle());
  sim.run();
  EXPECT_EQ(rrc.state(), radio::RrcState::kIdle);
}

TEST_F(RilFixture, DuplicateRequestsOnlyOneRelease) {
  bring_to_fach();
  RilStateSwitcher ril(sim, rrc);
  int successes = 0;
  for (int i = 0; i < 3; ++i) {
    ril.request_idle([&](bool ok) { successes += ok ? 1 : 0; });
  }
  sim.run();
  EXPECT_EQ(successes, 1);  // the release is already in flight for the rest
  EXPECT_EQ(rrc.forced_releases(), 1);
}

}  // namespace
}  // namespace eab::core
