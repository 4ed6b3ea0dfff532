#include "browser/cpu.hpp"

#include <stdexcept>

namespace eab::browser {

CpuScheduler::CpuScheduler(sim::Simulator& sim, Watts busy_power)
    : sim_(sim), busy_power_(busy_power), power_(0.0) {}

TaskId CpuScheduler::submit(Seconds cost, OnDone done) {
  if (cost < 0) throw std::invalid_argument("CpuScheduler::submit: negative cost");
  if (!done) throw std::invalid_argument("CpuScheduler::submit: empty callback");
  const std::uint64_t id = next_id_++;
  queue_.push_back(Task{id, cost, std::move(done)});
  if (!running_) start_next();
  return TaskId(id);
}

bool CpuScheduler::cancel(TaskId id) {
  if (id.id_ == 0) return false;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == id.id_) {
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t CpuScheduler::drop_queued() {
  const std::size_t dropped = queue_.size();
  queue_.clear();
  running_done_ = nullptr;
  return dropped;
}

void CpuScheduler::start_next() {
  if (queue_.empty()) {
    if (running_) {
      running_ = false;
      power_.set_power(sim_.now(), 0.0);
    }
    return;
  }
  if (!running_) {
    running_ = true;
    power_.set_power(sim_.now(), busy_power_);
  }
  Task task = std::move(queue_.front());
  queue_.pop_front();
  busy_time_ += task.cost;
  running_done_ = std::move(task.done);
  sim_.schedule_in(task.cost, [this] {
    const OnDone done = std::move(running_done_);
    running_done_ = nullptr;
    if (done) done();
    start_next();
  });
}

}  // namespace eab::browser
