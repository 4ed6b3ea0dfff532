#include "browser/cpu.hpp"

#include <gtest/gtest.h>

namespace eab::browser {
namespace {

TEST(CpuScheduler, RunsTasksFifoWithCosts) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  std::vector<std::pair<int, Seconds>> done;
  cpu.submit(2.0, [&] { done.emplace_back(1, sim.now()); });
  cpu.submit(3.0, [&] { done.emplace_back(2, sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, 1);
  EXPECT_DOUBLE_EQ(done[0].second, 2.0);
  EXPECT_DOUBLE_EQ(done[1].second, 5.0);
}

TEST(CpuScheduler, BusyFlagAndQueueDepth) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  EXPECT_FALSE(cpu.busy());
  cpu.submit(1.0, [] {});
  cpu.submit(1.0, [] {});
  EXPECT_TRUE(cpu.busy());
  EXPECT_EQ(cpu.queue_depth(), 1u);  // one running, one queued
  sim.run();
  EXPECT_FALSE(cpu.busy());
}

TEST(CpuScheduler, PowerTimelineTracksBusyPeriods) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  sim.schedule_at(1.0, [&] { cpu.submit(2.0, [] {}); });
  sim.run();
  sim.run_until(10.0);
  EXPECT_NEAR(cpu.power().energy(0, 10), 0.45 * 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(cpu.power().current_power(), 0.0);
}

TEST(CpuScheduler, BackToBackTasksKeepPowerHigh) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  cpu.submit(1.0, [] {});
  cpu.submit(1.0, [] {});
  sim.run();
  // One continuous busy period, not two with a gap.
  EXPECT_NEAR(cpu.power().energy(0, 2), 0.9, 1e-9);
  EXPECT_LE(cpu.power().change_count(), 3u);
}

TEST(CpuScheduler, TasksSubmittedFromTaskRunAfterwards) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  Seconds inner_done = -1;
  cpu.submit(1.0, [&] {
    cpu.submit(2.0, [&] { inner_done = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_done, 3.0);
  EXPECT_DOUBLE_EQ(cpu.busy_time(), 3.0);
}

TEST(CpuScheduler, ZeroCostTaskCompletes) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  bool done = false;
  cpu.submit(0.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(CpuScheduler, CancelQueuedTask) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  bool first = false;
  bool second = false;
  cpu.submit(1.0, [&] { first = true; });
  const TaskId id = cpu.submit(1.0, [&] { second = true; });
  EXPECT_TRUE(cpu.cancel(id));
  EXPECT_FALSE(cpu.cancel(id));  // already gone
  sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_DOUBLE_EQ(cpu.busy_time(), 1.0);
}

TEST(CpuScheduler, CannotCancelRunningTask) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  const TaskId id = cpu.submit(1.0, [] {});
  // The task starts immediately on submit; it is no longer in the queue.
  EXPECT_FALSE(cpu.cancel(id));
  sim.run();
}

TEST(CpuScheduler, CancelDefaultIdIsNoOp) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  EXPECT_FALSE(cpu.cancel(TaskId{}));
}

TEST(CpuScheduler, RejectsBadSubmissions) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  EXPECT_THROW(cpu.submit(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(cpu.submit(1.0, nullptr), std::invalid_argument);
}

TEST(CpuScheduler, DropQueuedDisarmsTheRunningTask) {
  // An aborted page load drops its CPU work; the task already running may
  // not call back into the load afterwards (the load may be freed by then).
  // It still uses up its CPU time, so the power timeline is unchanged.
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  int fired = 0;
  cpu.submit(2.0, [&] { ++fired; });
  cpu.submit(1.0, [&] { ++fired; });
  sim.schedule_at(0.5, [&] { EXPECT_EQ(cpu.drop_queued(), 1u); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(cpu.busy_time(), 2.0);
  EXPECT_NEAR(cpu.power().energy(0, 10), 0.45 * 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(cpu.power().current_power(), 0.0);
  EXPECT_FALSE(cpu.busy());
  // The CPU takes new work normally afterwards.
  cpu.submit(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(CpuScheduler, BusyTimeAccumulates) {
  sim::Simulator sim;
  CpuScheduler cpu(sim, 0.45);
  for (int i = 0; i < 10; ++i) cpu.submit(0.5, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(cpu.busy_time(), 5.0);
}

}  // namespace
}  // namespace eab::browser
