#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace eab::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Seconds fired_at = -1;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1.0, chain);
  };
  sim.schedule_in(1.0, chain);
  const std::size_t ran = sim.run();
  EXPECT_EQ(ran, 100u);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, EmptyActionThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, std::function<void()>{}),
               std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(EventId{}));
}

TEST(Simulator, CancelAfterFiringIsNoOp) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, PendingTracksLifecycle) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.pending(EventId{}));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sim.schedule_at(5.0, [&] { fired.push_back(5.0); });
  sim.schedule_at(9.0, [&] { fired.push_back(9.0); });
  sim.run_until(5.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(20.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, StepRunsExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  const EventId id = sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, CancelledEventDoesNotAdvanceClock) {
  Simulator sim;
  const EventId id = sim.schedule_at(100.0, [] {});
  sim.schedule_at(1.0, [] {});
  sim.cancel(id);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulator, CancelAfterFireWithOtherEventsPending) {
  Simulator sim;
  int fired = 0;
  const EventId first = sim.schedule_at(1.0, [&] { ++fired; });
  const EventId second = sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());  // fires `first`
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_TRUE(sim.pending(second));
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelTwiceAcrossRunBoundary) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run();  // the tombstone surfaces and is discarded here
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
}

TEST(Simulator, RescheduleStormKeepsOneTimerLive) {
  // RRC-style inactivity timer churn: every "packet" cancels the running
  // timer and schedules a fresh one.  Only the last survivor may fire.
  Simulator sim;
  int fires = 0;
  Seconds fired_at = -1;
  EventId timer;
  for (int i = 0; i < 10000; ++i) {
    sim.cancel(timer);
    timer = sim.schedule_at(static_cast<Seconds>(i) + 4.0, [&] {
      ++fires;
      fired_at = sim.now();
    });
    EXPECT_EQ(sim.pending_count(), 1u);
  }
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_DOUBLE_EQ(fired_at, 9999.0 + 4.0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, PendingCountInvariantUnderMixedLifecycles) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_at(static_cast<Seconds>(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_count(), 100u);
  // Cancel every third event; scheduled - cancelled must remain pending.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    EXPECT_TRUE(sim.cancel(ids[i]));
    ++cancelled;
    EXPECT_EQ(sim.pending_count(), 100u - cancelled);
  }
  // Fire the rest one at a time; each step drops exactly one pending event.
  std::size_t remaining = 100u - cancelled;
  while (sim.step()) {
    --remaining;
    EXPECT_EQ(sim.pending_count(), remaining);
  }
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sim.fired_count(), 100u - cancelled);
}

TEST(Simulator, CancelInsideActionSuppressesSameTimePeer) {
  Simulator sim;
  bool peer_fired = false;
  EventId peer;
  sim.schedule_at(1.0, [&] { sim.cancel(peer); });
  peer = sim.schedule_at(1.0, [&] { peer_fired = true; });
  sim.run();
  EXPECT_FALSE(peer_fired);
  EXPECT_EQ(sim.fired_count(), 1u);
}

TEST(Simulator, FiredCountAccumulatesAcrossRuns) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.run_until(1.0);
  EXPECT_EQ(sim.fired_count(), 1u);
  sim.schedule_at(3.0, [] {});
  sim.run();
  EXPECT_EQ(sim.fired_count(), 3u);
}

TEST(Simulator, RunUntilSkipsLeadingTombstones) {
  Simulator sim;
  // Earliest events all cancelled: run_until must discard their tombstones
  // and still stop before later-than-until work.
  for (int i = 0; i < 10; ++i) {
    sim.cancel(sim.schedule_at(1.0, [] {}));
  }
  bool fired_5 = false;
  bool fired_9 = false;
  sim.schedule_at(5.0, [&] { fired_5 = true; });
  sim.schedule_at(9.0, [&] { fired_9 = true; });
  EXPECT_EQ(sim.run_until(6.0), 1u);
  EXPECT_TRUE(fired_5);
  EXPECT_FALSE(fired_9);
  EXPECT_DOUBLE_EQ(sim.now(), 6.0);
}

TEST(Simulator, EventBudgetThrowsWithPendingDump) {
  Simulator sim;
  sim.set_event_budget(100);
  // A self-feeding event loop: the wedged-simulation bug class the budget
  // exists to catch.
  std::function<void()> feed = [&] { sim.schedule_in(0.5, feed); };
  sim.schedule_in(0.5, feed);
  sim.schedule_at(1e9, [] {});  // an innocent bystander for the dump
  try {
    sim.run();
    FAIL() << "unbounded loop should exhaust the budget";
  } catch (const BudgetExhaustedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("event budget exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("pending heap"), std::string::npos) << what;
    EXPECT_NE(what.find("t="), std::string::npos)
        << "the dump lists pending event timestamps: " << what;
  }
  EXPECT_EQ(sim.fired_count(), 100u);
}

TEST(Simulator, DefaultBudgetIsEffectivelyUnlimited) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(static_cast<Seconds>(i), [&fired] { ++fired; });
  }
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(fired, 1000);
}

TEST(Simulator, BoundedRunReportsBudgetExhaustion) {
  Simulator sim;
  std::function<void()> feed = [&] { sim.schedule_in(1.0, feed); };
  sim.schedule_in(1.0, feed);
  const RunResult partial = sim.run(50);
  EXPECT_EQ(partial.status, RunStatus::kBudgetExhausted);
  EXPECT_FALSE(partial.drained());
  EXPECT_EQ(partial.events, 50u);

  // A drainable heap under the cap reports kDrained.
  Simulator finite;
  finite.schedule_at(1.0, [] {});
  finite.schedule_at(2.0, [] {});
  const RunResult drained = finite.run(50);
  EXPECT_EQ(drained.status, RunStatus::kDrained);
  EXPECT_TRUE(drained.drained());
  EXPECT_EQ(drained.events, 2u);
}

TEST(Simulator, PendingDumpListsLiveEventsInOrder) {
  Simulator sim;
  sim.schedule_at(3.0, [] {});
  sim.schedule_at(1.0, [] {});
  sim.cancel(sim.schedule_at(2.0, [] {}));  // tombstones never appear
  const std::string dump = sim.pending_dump();
  EXPECT_NE(dump.find("2 live events"), std::string::npos) << dump;
  const auto pos1 = dump.find("t=1");
  const auto pos3 = dump.find("t=3");
  EXPECT_NE(pos1, std::string::npos) << dump;
  EXPECT_NE(pos3, std::string::npos) << dump;
  EXPECT_LT(pos1, pos3) << "entries sorted by firing order: " << dump;
  EXPECT_EQ(dump.find("t=2"), std::string::npos)
      << "cancelled event leaked into the dump: " << dump;
}

TEST(Simulator, RescheduleStormHoldsConstantMemory) {
  // The RRC inactivity-timer pattern at scale: one live timer, endlessly
  // cancelled and re-armed.  Tombstone compaction must keep the heap bounded
  // instead of letting 100k dead nodes pile up behind the live one.
  Simulator sim;
  constexpr int kIterations = 100000;
  EventId timer = sim.schedule_in(1000.0, [] {});
  for (int i = 1; i < kIterations; ++i) {
    sim.cancel(timer);
    timer = sim.schedule_in(1000.0 + i * 1e-6, [] {});
  }
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_LT(sim.peak_heap_size(), 4096u)
      << "compaction failed to reclaim tombstones";
  sim.run();
  EXPECT_EQ(sim.fired_count(), 1u);
  EXPECT_EQ(sim.cancelled_count(), kIterations - 1u);
  // Compacted and surfaced tombstones both count; over a drained run the
  // total is exactly the number of cancellations.
  EXPECT_EQ(sim.tombstones_popped(), kIterations - 1u);
}

TEST(Simulator, ScheduleErrorsIncludeOffendingValues) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  ASSERT_DOUBLE_EQ(sim.now(), 10.0);
  try {
    sim.schedule_at(-5.0, [] {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("t=-5"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("now()=10"), std::string::npos)
        << e.what();
  }
  try {
    sim.schedule_in(-2.5, [] {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("delay=-2.5"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("now()=10"), std::string::npos)
        << e.what();
  }
}

TEST(Simulator, OversizedCapturesFireCorrectlyAndRecycleBlocks) {
  // A capture far past the inline buffer routes through the overflow pool;
  // the payload must survive intact and the block must be reused.
  Simulator sim;
  std::array<std::uint8_t, 200> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::uint64_t sum = 0;
  sim.schedule_at(1.0, [payload, &sum] {
    for (std::uint8_t b : payload) sum += b;
  });
  sim.run();
  std::uint64_t expected = 0;
  for (std::uint8_t b : payload) expected += b;
  EXPECT_EQ(sum, expected);
  const std::size_t free_after_first = sim.overflow_free_blocks();
  EXPECT_GE(free_after_first, 1u);

  // Same size class again: the freed block is handed back out, not leaked.
  sim.schedule_at(2.0, [payload, &sum] { sum += payload[0]; });
  EXPECT_EQ(sim.overflow_free_blocks(), free_after_first - 1);
  sim.run();
  EXPECT_EQ(sim.overflow_free_blocks(), free_after_first);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  Seconds last = -1;
  bool monotone = true;
  for (int i = 0; i < 5000; ++i) {
    const Seconds at = static_cast<Seconds>((i * 7919) % 1000);
    sim.schedule_at(at, [&, at] {
      if (at < last) monotone = false;
      last = at;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace eab::sim
