// User-abort robustness: abort a load at every fetch-settle boundary (plus
// one mid-first-fetch instant) under both pipelines and assert the teardown
// leaves no residue anywhere in the stack — no queued or in-flight fetches,
// no live link flows, no leaked RRC transfer markers — and that the trace
// auditor accepts the partial recording, energy reconciliation included.

#include <gtest/gtest.h>

#include <vector>

#include "obs/audit.hpp"
#include "support/boundary_matrix.hpp"

namespace eab {
namespace {

using test::Stack;

constexpr const char* kSite = "abort.example";

class AbortAtBoundary : public ::testing::TestWithParam<test::BoundaryCase> {};

TEST_P(AbortAtBoundary, TeardownLeavesNoResidue) {
  const auto [mode, abort_at] = GetParam();
  Stack stack(mode, kSite);
  stack.start();
  stack.sim.schedule_at(abort_at, [&stack] { stack.load.abort(); });
  stack.run_to_done();

  // Clean teardown across every layer, aborted or (for the last
  // boundaries, where the load wins the race) completed.
  EXPECT_EQ(stack.client.queued(), 0u);
  EXPECT_EQ(stack.client.in_flight(), 0);
  EXPECT_EQ(stack.link.active_flows(), 0u);
  EXPECT_EQ(stack.rrc.active_transfers(), 0);
  if (stack.metrics.aborted) {
    EXPECT_NEAR(stack.metrics.aborted_at, abort_at, 1e-9);
    EXPECT_NEAR(stack.metrics.final_display, abort_at, 1e-9);
    EXPECT_LE(stack.metrics.first_display, stack.metrics.final_display);
  } else {
    EXPECT_LE(stack.metrics.final_display, abort_at + 1e-9)
        << "an unaborted load must have finished before the abort";
  }
  EXPECT_EQ(stack.done_count, 1) << "done must fire exactly once";

  // Let the radio timers drain, then replay the partial trace through
  // the cross-layer auditor: marker balance, queued==settled and energy
  // reconciliation must all hold on the truncated event stream.
  const Seconds t_end = stack.metrics.final_display + 25.0;
  stack.sim.run_until(t_end);
  obs::AuditInputs inputs;
  inputs.rrc = stack.rrc_config;
  inputs.power = stack.power;
  inputs.max_retries = stack.client.retry_policy().max_retries;
  inputs.radio_energy = stack.rrc.power().energy(0.0, t_end);
  inputs.t_end = t_end;
  const obs::AuditReport report =
      obs::TraceAuditor().audit(stack.trace, inputs);
  EXPECT_TRUE(report.ok())
      << "mode=" << static_cast<int>(mode) << " abort_at=" << abort_at
      << "\n" << report.summary();
}

INSTANTIATE_TEST_SUITE_P(EveryFetchBoundary, AbortAtBoundary,
                         ::testing::ValuesIn(test::boundary_cases(kSite)));

TEST(AbortBasics, AbortBeforeStartAndAfterFinishAreNoOps) {
  Stack stack(browser::PipelineMode::kOriginal, kSite);
  EXPECT_FALSE(stack.load.abort()) << "never-started load";
  stack.start();
  stack.run_to_done();
  EXPECT_FALSE(stack.load.abort()) << "already-finished load";
  EXPECT_EQ(stack.done_count, 1);
  EXPECT_FALSE(stack.metrics.aborted);
}

TEST(AbortBasics, AbortedMetricsAccountPartialWork) {
  // Abort just after the second fetch settles: the document body has landed
  // (bytes > 0) and the discovered sub-resources are still queued/in-flight,
  // so abort() tears them down and books them as failed.
  const std::vector<Seconds>& boundaries =
      test::boundaries_for(browser::PipelineMode::kOriginal, kSite);
  ASSERT_GE(boundaries.size(), 3u);
  const Seconds abort_at = boundaries[2];

  Stack stack(browser::PipelineMode::kOriginal, kSite);
  stack.start();
  stack.sim.schedule_at(abort_at, [&stack] { stack.load.abort(); });
  stack.run_to_done();
  ASSERT_TRUE(stack.metrics.aborted);
  // Partial accounting: whatever settled before the abort is preserved and
  // the torn-down fetches are counted as failed resources.
  EXPECT_GE(stack.metrics.objects_fetched, 1);
  EXPECT_GT(stack.metrics.bytes_fetched, 0u);
  EXPECT_GE(stack.metrics.failed_resources, 1)
      << "fetches in flight at the abort settle as failed (kAborted)";
  EXPECT_NEAR(stack.metrics.total_time(), abort_at, 1e-9);
}

}  // namespace
}  // namespace eab
