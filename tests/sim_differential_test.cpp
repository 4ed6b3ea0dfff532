// Differential property test for the pooled SoA event engine: replays
// seed-derived random operation sequences against a deliberately naive
// reference simulator (a sorted std::vector scanned linearly) and asserts
// the engines agree on everything observable — fire order, timestamps,
// cancel results, counters, and the final clock.  The reference is slow and
// obviously correct; the engine is fast and this test keeps it honest.
//
// The op mix deliberately covers the engine's hairy paths: forced equal
// timestamps (order-stamp tie-break), cancels of live / fired / already-
// cancelled ids (tombstones + stale-handle rejection), events that spawn
// children from inside their own callback (in-place invoke + slot reuse),
// oversized captures (OverflowPool), run_until sweeps, bounded run(max),
// and several independent soups merged on the one queue.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <bit>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace eab::sim {
namespace {

/// Naive reference: every pending event in one flat vector; step() scans for
/// the minimum (at, seq).  O(n) per op, zero cleverness.
class ReferenceSim {
 public:
  std::uint64_t schedule_at(Seconds at, std::function<void()> action) {
    if (at < now_) throw std::invalid_argument("ReferenceSim: past");
    const std::uint64_t id = next_seq_++;
    pending_.push_back({at, id, std::move(action)});
    return id;
  }
  std::uint64_t schedule_in(Seconds delay, std::function<void()> action) {
    if (delay < 0) throw std::invalid_argument("ReferenceSim: negative");
    return schedule_at(now_ + delay, std::move(action));
  }
  bool cancel(std::uint64_t id) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].seq == id) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        ++cancelled_;
        return true;
      }
    }
    return false;
  }
  bool step() {
    const std::size_t min = find_min();
    if (min == pending_.size()) return false;
    Entry entry = std::move(pending_[min]);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(min));
    now_ = entry.at;
    ++fired_;
    entry.action();
    return true;
  }
  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }
  std::size_t run(std::size_t max_events) {
    std::size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }
  std::size_t run_until(Seconds until) {
    std::size_t n = 0;
    for (std::size_t min = find_min();
         min != pending_.size() && pending_[min].at <= until;
         min = find_min()) {
      step();
      ++n;
    }
    if (until > now_) now_ = until;
    return n;
  }
  Seconds now() const { return now_; }
  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t fired_count() const { return fired_; }
  std::uint64_t cancelled_count() const { return cancelled_; }

 private:
  struct Entry {
    Seconds at;
    std::uint64_t seq;
    std::function<void()> action;
  };
  std::size_t find_min() const {
    std::size_t best = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (best == pending_.size() || pending_[i].at < pending_[best].at ||
          (pending_[i].at == pending_[best].at &&
           pending_[i].seq < pending_[best].seq)) {
        best = i;
      }
    }
    return best;
  }
  std::vector<Entry> pending_;
  Seconds now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
};

/// Everything one replay observed; two replays agree iff these are equal.
struct Observations {
  std::vector<std::pair<std::uint64_t, Seconds>> fires;  // (tag, timestamp)
  std::vector<bool> cancel_results;
  std::vector<std::size_t> run_counts;  // events fired per run_until/run(max)
  Seconds final_now = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::size_t pending_after_drain = 0;

  bool operator==(const Observations&) const = default;
};

/// Child-spawn rule shared by both engines: purely a function of the firing
/// event's tag, so the replays stay aligned without consulting the rng.
Seconds child_delay(std::uint64_t tag) {
  return static_cast<Seconds>((tag * 2654435761ull) % 100) / 10.0;
}

constexpr std::uint64_t kChildTagLimit = 1u << 20;  // bounds spawn recursion

// Engine-specific shims so one replay template drives both simulators.
std::uint64_t to_handle(EventId id) {
  static_assert(sizeof(EventId) == sizeof(std::uint64_t));
  return std::bit_cast<std::uint64_t>(id);
}
std::uint64_t to_handle(std::uint64_t id) { return id; }

template <class SimT>
auto from_handle(std::uint64_t raw) {
  if constexpr (std::is_same_v<SimT, Simulator>) {
    return std::bit_cast<EventId>(raw);
  } else {
    return raw;
  }
}

std::size_t run_some(Simulator& sim, std::size_t max) {
  return sim.run(max).events;
}
std::size_t run_some(ReferenceSim& sim, std::size_t max) {
  return sim.run(max);
}

/// Replays `ops` random operations per soup against `sim` (either engine),
/// one seed-derived op soup per entry of `seeds`, interleaved op by op on
/// the one queue.  Every fifth tag spawns a child from inside its own
/// callback; every seventh tag drags a ~200-byte payload through the
/// callable (exercising OverflowPool on the real engine).
template <class SimT>
Observations replay(SimT& sim, const std::vector<std::uint64_t>& seeds,
                    int ops) {
  Observations obs;
  std::uint64_t next_tag = 1;

  std::function<void(std::uint64_t)> fire = [&](std::uint64_t tag) {
    obs.fires.emplace_back(tag, sim.now());
    if (tag % 5 == 0 && tag < kChildTagLimit) {
      const std::uint64_t child = tag * 31 + 7;
      sim.schedule_in(child_delay(tag), [&fire, child] { fire(child); });
    }
  };

  // A soup cancels only its own events, as one cell cancels only its own.
  auto schedule = [&](std::vector<std::uint64_t>& handles, Seconds at) {
    const std::uint64_t tag = next_tag++;
    std::uint64_t handle;
    if (tag % 7 == 0) {
      // Oversized capture: far past the inline buffer, forcing the pool.
      // The payload round-trips through the fired tag so a clobbered
      // overflow block would show up as a fire-log mismatch.
      std::array<std::uint64_t, 32> payload{};
      payload.fill(tag);
      handle = to_handle(sim.schedule_at(
          at, [&fire, payload] { fire(payload[31]); }));
    } else {
      handle = to_handle(sim.schedule_at(at, [&fire, tag] { fire(tag); }));
    }
    handles.push_back(handle);
  };

  struct Soup {
    Rng rng;
    std::vector<std::uint64_t> handles;
  };
  std::vector<Soup> soups;
  for (const std::uint64_t seed : seeds) {
    soups.push_back({Rng(derive_seed(seed, 0xd1ffu)), {}});
  }
  for (int i = 0; i < ops; ++i) {
    for (Soup& soup : soups) {
      Rng& rng = soup.rng;
      const double roll = rng.uniform();
      if (roll < 0.45) {
        schedule(soup.handles, sim.now() + rng.uniform(0.0, 100.0));
      } else if (roll < 0.60) {
        // Quantized times: deliberate collisions to stress the tie-break.
        schedule(soup.handles,
                 sim.now() + static_cast<Seconds>(rng.uniform_index(20)));
      } else if (roll < 0.75 && !soup.handles.empty()) {
        const std::uint64_t victim = rng.uniform_index(soup.handles.size());
        obs.cancel_results.push_back(
            sim.cancel(from_handle<SimT>(soup.handles[victim])));
      } else if (roll < 0.85) {
        sim.step();
      } else if (roll < 0.95) {
        obs.run_counts.push_back(
            sim.run_until(sim.now() + rng.uniform(0.0, 50.0)));
      } else {
        obs.run_counts.push_back(run_some(sim, rng.uniform_index(16)));
      }
    }
  }
  sim.run();

  obs.final_now = sim.now();
  obs.fired = sim.fired_count();
  obs.cancelled = sim.cancelled_count();
  obs.pending_after_drain = sim.pending_count();
  return obs;
}

class SimDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDifferential, EngineMatchesNaiveReference) {
  const std::uint64_t seed = GetParam();
  ReferenceSim reference;
  const Observations expected = replay(reference, {seed}, 400);

  Simulator engine;
  const Observations actual = replay(engine, {seed}, 400);

  ASSERT_EQ(actual.fires.size(), expected.fires.size());
  for (std::size_t i = 0; i < expected.fires.size(); ++i) {
    EXPECT_EQ(actual.fires[i].first, expected.fires[i].first) << "fire " << i;
    // Exact: both engines compute every timestamp the same way.
    EXPECT_EQ(actual.fires[i].second, expected.fires[i].second)
        << "fire " << i;
  }
  EXPECT_EQ(actual.cancel_results, expected.cancel_results);
  EXPECT_EQ(actual.run_counts, expected.run_counts);
  EXPECT_DOUBLE_EQ(actual.final_now, expected.final_now);
  EXPECT_EQ(actual.fired, expected.fired);
  EXPECT_EQ(actual.cancelled, expected.cancelled);
  EXPECT_EQ(actual.pending_after_drain, 0u);
  EXPECT_EQ(expected.pending_after_drain, 0u);
}

TEST_P(SimDifferential, ShardedEngineMatchesNaiveReference) {
  // Three soups share the one queue, interleaved op by op: the shape of a
  // metro run, where every cell's events land in the same heap.  Each soup
  // draws its own seed, so their events collide, cancel and spawn children
  // amid one another, and the merge must still fire strictly by
  // (time, order stamp).
  const std::uint64_t seed = GetParam();
  const std::vector<std::uint64_t> seeds = {
      seed, derive_seed(seed, 1), derive_seed(seed, 2)};
  ReferenceSim reference;
  const Observations expected = replay(reference, seeds, 150);

  Simulator engine;
  const Observations actual = replay(engine, seeds, 150);

  EXPECT_EQ(actual.fires, expected.fires);
  EXPECT_EQ(actual.cancel_results, expected.cancel_results);
  EXPECT_EQ(actual.run_counts, expected.run_counts);
  EXPECT_DOUBLE_EQ(actual.final_now, expected.final_now);
  EXPECT_EQ(actual.fired, expected.fired);
  EXPECT_EQ(actual.cancelled, expected.cancelled);
  EXPECT_EQ(actual.pending_after_drain, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDifferential,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           0xdeadbeefu, 987654321u));

TEST(SimDifferential, BudgetThrowParity) {
  // Both engines fire exactly `budget` events before the engine's budget
  // trips; the reference (no budget machinery) confirms which events those
  // were.
  auto build = [](auto& sim, std::vector<int>& fired) {
    for (int i = 0; i < 20; ++i) {
      sim.schedule_at(static_cast<Seconds>(i), [&fired, i] {
        fired.push_back(i);
      });
    }
  };
  ReferenceSim reference;
  std::vector<int> ref_fired;
  build(reference, ref_fired);
  reference.run(7);

  Simulator engine;
  std::vector<int> engine_fired;
  build(engine, engine_fired);
  engine.set_event_budget(7);
  EXPECT_THROW(engine.run(), BudgetExhaustedError);
  EXPECT_EQ(engine_fired, ref_fired);
  EXPECT_EQ(engine.fired_count(), 7u);
}

}  // namespace
}  // namespace eab::sim
