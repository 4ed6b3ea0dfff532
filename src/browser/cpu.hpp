// Single-core CPU task queue.
//
// Browser computations execute serially on the phone's CPU.  Tasks are
// submitted with a cost in CPU-seconds and run FIFO; while any task runs the
// busy timeline carries the extra CPU power draw, which the energy
// accounting sums with the radio timeline.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/simulator.hpp"
#include "util/timeline.hpp"

namespace eab::browser {

/// Identifies a submitted task (for cancellation of queued work).
class TaskId {
 public:
  TaskId() = default;

 private:
  friend class CpuScheduler;
  explicit TaskId(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// FIFO CPU with an energy-accountable busy timeline.
class CpuScheduler {
 public:
  using OnDone = std::function<void()>;

  /// `busy_power` is the extra draw while a task runs (Table 5: 0.45 W).
  CpuScheduler(sim::Simulator& sim, Watts busy_power);

  /// Enqueues a task costing `cost` CPU-seconds; `done` fires at completion.
  /// Zero-cost tasks still round through the queue (keeps ordering honest).
  TaskId submit(Seconds cost, OnDone done);

  /// Removes a task that has not started yet (display coalescing: a pending
  /// intermediate redraw is obsolete once the final display is queued).
  /// Returns false if the task already started, finished or never existed.
  bool cancel(TaskId id);

  /// Drops every task that has not started yet (an aborted page load stops
  /// rendering immediately; queued work must not keep burning CPU energy)
  /// and disarms the running task's callback: the load that submitted it
  /// may be freed before the task ends.  The running task still uses up
  /// its CPU time, so the power timeline is unchanged.  Returns the number
  /// of queued tasks dropped.
  std::size_t drop_queued();

  bool busy() const { return running_; }
  std::size_t queue_depth() const { return queue_.size(); }

  /// Total CPU-seconds executed so far.
  Seconds busy_time() const { return busy_time_; }

  /// Extra-power timeline (0 when idle, busy_power when executing).
  const PowerTimeline& power() const { return power_; }

 private:
  struct Task {
    std::uint64_t id;
    Seconds cost;
    OnDone done;
  };

  void start_next();

  sim::Simulator& sim_;
  Watts busy_power_;
  std::uint64_t next_id_ = 1;
  bool running_ = false;
  std::deque<Task> queue_;
  OnDone running_done_;  ///< the running task's callback; empty = disarmed
  Seconds busy_time_ = 0;
  PowerTimeline power_;
};

}  // namespace eab::browser
