// Radio-link-failure robustness: drop coverage at every fetch-settle
// boundary (plus one mid-first-fetch instant, plus a deterministic instant
// inside every RRC state and signalling phase) under both pipelines, and
// assert the degraded session leaves no residue anywhere in the stack — no
// queued or in-flight fetches, no live link flows, no leaked RRC transfer
// markers — and that the trace auditor accepts the recording,
// out-of-service energy reconciliation included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "obs/audit.hpp"
#include "support/boundary_matrix.hpp"

namespace eab {
namespace {

using test::Stack;

constexpr const char* kSite = "outage.example";

/// Asserts the whole stack is residue-free, drains the radio timers, and
/// replays the recording through the cross-layer auditor.
void expect_clean_teardown(Stack& stack, const char* context) {
  EXPECT_EQ(stack.client.queued(), 0u) << context;
  EXPECT_EQ(stack.client.in_flight(), 0) << context;
  EXPECT_EQ(stack.link.active_flows(), 0u) << context;
  EXPECT_EQ(stack.rrc.active_transfers(), 0) << context;
  EXPECT_EQ(stack.done_count, 1) << context << ": done must fire exactly once";

  // Past every backoff (0.5 + 1 + 2 + 4 s), re-establishment exchange
  // (4 x 1.2 s) and the T1 + T2 inactivity ladder, the radio must be IDLE
  // with no timers pending.
  const Seconds t_end = stack.metrics.final_display + 40.0;
  stack.sim.run_until(t_end);
  EXPECT_EQ(stack.rrc.state(), radio::RrcState::kIdle) << context;
  EXPECT_EQ(stack.rrc.phase(), radio::RadioPhase::kStable) << context;

  obs::AuditInputs inputs;
  inputs.rrc = stack.rrc_config;
  inputs.power = stack.power;
  inputs.max_retries = stack.client.retry_policy().max_retries;
  inputs.radio_energy = stack.rrc.power().energy(0.0, t_end);
  inputs.t_end = t_end;
  const obs::AuditReport report = obs::TraceAuditor().audit(stack.trace, inputs);
  EXPECT_TRUE(report.ok()) << context << "\n" << report.summary();
}

class OutageAtBoundary
    : public ::testing::TestWithParam<test::BoundaryCase> {};

TEST_P(OutageAtBoundary, DegradedSessionLeavesNoResidue) {
  const auto [mode, hole_at] = GetParam();
  Stack stack(mode, kSite);
  stack.start();
  stack.hole_at(hole_at);
  stack.run_to_done();

  char context[96];
  std::snprintf(context, sizeof context, "mode=%d hole_at=%.6f",
                static_cast<int>(mode), hole_at);
  expect_clean_teardown(stack, context);
}

INSTANTIATE_TEST_SUITE_P(EveryFetchBoundary, OutageAtBoundary,
                         ::testing::ValuesIn(test::boundary_cases(kSite)));

/// One deterministic instant inside every RRC state and signalling phase a
/// clean reference run visits: the midpoint of each state's first residency
/// span, plus the midpoint of the first promotion and the first release
/// signalling exchange.
std::vector<Seconds> state_instants_for(browser::PipelineMode mode) {
  Stack reference(mode, kSite);
  reference.start();
  reference.run_to_done();
  const Seconds t_end = reference.metrics.final_display + 25.0;
  reference.sim.run_until(t_end);

  std::vector<Seconds> instants;
  std::map<std::int64_t, bool> seen_state;
  for (const obs::TraceSpan& span : reference.trace.rrc_state_spans(t_end)) {
    if (seen_state[span.tag]) continue;
    seen_state[span.tag] = true;
    instants.push_back(span.begin + span.duration() / 2);
  }
  // Mid-promotion and mid-release: coverage dying while signalling is in
  // flight exercises the waiting-queue cancellation paths.
  Seconds pending_promotion = -1, pending_release = -1;
  bool promotion_done = false, release_done = false;
  for (const obs::TraceEvent& e : reference.trace.events()) {
    switch (e.kind) {
      case obs::TraceKind::kRrcPromotionStart:
        if (!promotion_done) pending_promotion = e.t;
        break;
      case obs::TraceKind::kRrcPromotionDone:
        if (!promotion_done && pending_promotion >= 0) {
          instants.push_back((pending_promotion + e.t) / 2);
          promotion_done = true;
        }
        break;
      case obs::TraceKind::kRrcReleaseStart:
        if (!release_done) pending_release = e.t;
        break;
      case obs::TraceKind::kRrcReleaseDone:
        if (!release_done && pending_release >= 0) {
          instants.push_back((pending_release + e.t) / 2);
          release_done = true;
        }
        break;
      default:
        break;
    }
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());
  return instants;
}

TEST(OutageAtEveryRrcState, DegradedSessionLeavesNoResidue) {
  for (const browser::PipelineMode mode :
       {browser::PipelineMode::kOriginal, browser::PipelineMode::kEnergyAware}) {
    const std::vector<Seconds> instants = state_instants_for(mode);
    ASSERT_GE(instants.size(), 3u) << "reference run must visit IDLE, a "
                                      "promotion and DCH at minimum";
    for (const Seconds at : instants) {
      Stack stack(mode, kSite);
      stack.start();
      stack.hole_at(at);
      stack.run_to_done();

      char context[96];
      std::snprintf(context, sizeof context, "mode=%d state-instant=%.6f",
                    static_cast<int>(mode), at);
      expect_clean_teardown(stack, context);
    }
  }
}

TEST(OutageRecovery, ShortFadeIsAbsorbedWithoutRlf) {
  // A hole shorter than the T313 detection window must be invisible to the
  // RRC layer: no RLF, no OUT_OF_SERVICE residency, load completes.
  Stack stack(browser::PipelineMode::kOriginal, kSite);
  stack.start();
  stack.hole_at(0.5, /*duration=*/0.4);  // rlf_detect defaults to 1 s
  stack.run_to_done();
  EXPECT_EQ(stack.rrc.rlf_count(), 0);
  EXPECT_EQ(stack.rrc.time_in(radio::RrcState::kOutOfService), 0.0);
  expect_clean_teardown(stack, "short-fade");
}

/// A hole instant with the radio on DCH and fetches in flight: a hair after
/// the first settle of a clean reference run (the promotion is long over,
/// the remaining sub-resources are still transferring).
Seconds mid_dch_instant() {
  const std::vector<Seconds>& boundaries =
      test::boundaries_for(browser::PipelineMode::kOriginal, kSite);
  EXPECT_GE(boundaries.size(), 2u);
  return boundaries[1];
}

TEST(OutageRecovery, RlfMidLoadReestablishesAndSettlesRadioLost) {
  // A hole that outlasts T313 mid-DCH declares RLF: the in-flight fetches
  // settle as radio-lost (then re-queue under the retry budget), the UE
  // camps OUT_OF_SERVICE, and re-establishment brings the session back.
  Stack stack(browser::PipelineMode::kOriginal, kSite);
  stack.start();
  stack.hole_at(mid_dch_instant());
  stack.run_to_done();
  EXPECT_GE(stack.rrc.rlf_count(), 1);
  EXPECT_GE(stack.rrc.reestablish_ok(), 1);
  EXPECT_GT(stack.rrc.time_in(radio::RrcState::kOutOfService), 0.0);
  expect_clean_teardown(stack, "rlf-mid-load");
}

TEST(OutageRecovery, RlfWithExhaustedRetryBudgetSettlesRadioLost) {
  // With no retry budget the attempts in flight at the RLF cannot re-queue:
  // they must settle as radio-lost and the load must finish degraded.
  Stack stack(browser::PipelineMode::kOriginal, kSite);
  net::RetryPolicy no_retries;
  no_retries.max_retries = 0;
  stack.client.set_retry_policy(no_retries);
  stack.start();
  stack.hole_at(mid_dch_instant());
  stack.run_to_done();
  EXPECT_GE(stack.rrc.rlf_count(), 1);
  bool saw_radio_lost = false;
  for (const obs::TraceEvent& e : stack.trace.events()) {
    if (e.kind == obs::TraceKind::kHttpFetchSettled &&
        e.b == static_cast<std::int64_t>(net::FetchStatus::kRadioLost)) {
      saw_radio_lost = true;
    }
  }
  EXPECT_TRUE(saw_radio_lost)
      << "an RLF mid-transfer must settle at least one fetch as radio-lost";
  EXPECT_GE(stack.metrics.failed_resources, 1);
  expect_clean_teardown(stack, "rlf-no-retries");
}

TEST(OutageRecovery, ExhaustedReestablishmentReleasesContextAndStillFinishes) {
  // Every re-establishment attempt fails: after max_reestablish_attempts the
  // UE releases the RRC context and drops to IDLE.  The load must still
  // settle (degraded or via retries through a fresh promotion) with zero
  // residue and an audit-clean recording.
  Stack stack(browser::PipelineMode::kOriginal, kSite);
  stack.rrc.set_reestablish_decider([](int) { return false; });
  stack.start();
  stack.hole_at(mid_dch_instant());
  stack.run_to_done();
  EXPECT_GE(stack.rrc.rlf_count(), 1);
  EXPECT_EQ(stack.rrc.reestablish_ok(), 0);
  EXPECT_GE(stack.rrc.reestablish_fail(),
            stack.rrc_config.max_reestablish_attempts);
  expect_clean_teardown(stack, "reestablish-exhausted");
}

}  // namespace
}  // namespace eab
