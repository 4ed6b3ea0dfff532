#include "core/batch.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/scenario.hpp"

namespace eab::core {

/// A plain fixed-size worker pool: run_all hands out the indices of one
/// task under one mutex and blocks until every index has finished.
class BatchRunner::Pool {
 public:
  explicit Pool(int threads) {
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Runs task(0) .. task(count-1) on the workers; returns when all have.
  void run_all(std::size_t count,
               const std::function<void(std::size_t)>& task) {
    std::unique_lock<std::mutex> lock(mutex_);
    task_ = &task;
    next_ = 0;
    count_ = count;
    inflight_ = count;
    work_ready_.notify_all();
    batch_done_.wait(lock, [this] { return inflight_ == 0; });
    task_ = nullptr;
  }

 private:
  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_ready_.wait(lock, [this] { return stopping_ || next_ < count_; });
      if (next_ >= count_) return;  // stopping, and no batch in flight
      const std::size_t index = next_++;
      const auto* task = task_;
      lock.unlock();
      (*task)(index);
      lock.lock();
      if (--inflight_ == 0) batch_done_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  std::size_t inflight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

int BatchRunner::resolve_jobs(int requested) {
  if (requested > 0) return std::min(requested, 1024);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

BatchRunner::BatchRunner(int jobs) : threads_(resolve_jobs(jobs)) {
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_);
}

BatchRunner::~BatchRunner() = default;

std::vector<std::optional<std::string>> BatchRunner::dispatch(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  // Each index writes only its own failure slot; the pool's completion
  // handshake (or the inline loop) publishes the writes.  No exception
  // escapes a worker, so the rest of the batch always completes.
  std::vector<std::optional<std::string>> failures(count);
  const std::function<void(std::size_t)> guarded = [&](std::size_t index) {
    try {
      fn(index);
    } catch (const std::exception& e) {
      failures[index] = e.what();
    } catch (...) {
      failures[index] = "unknown exception";
    }
  };
  if (pool_) {
    pool_->run_all(count, guarded);
  } else {
    for (std::size_t i = 0; i < count; ++i) guarded(i);
  }
  return failures;
}

void BatchRunner::run_indexed(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (!fn) {
    throw std::invalid_argument("BatchRunner::run_indexed: empty function");
  }
  const auto failures = dispatch(count, fn);
  // Rethrow the lowest-index failure: deterministic no matter which worker
  // hit it first.
  for (std::size_t i = 0; i < count; ++i) {
    if (failures[i]) {
      throw std::runtime_error("BatchRunner::run_indexed: task " +
                               std::to_string(i) + " failed: " + *failures[i]);
    }
  }
}

std::vector<SingleLoadResult> BatchRunner::run(
    const std::vector<BatchJob>& jobs) {
  // A throwing load is quarantined in place: its slot stays
  // value-initialized and its failure becomes a JobError.
  std::vector<SingleLoadResult> results(jobs.size());
  const auto failures = dispatch(jobs.size(), [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    results[i] = ScenarioBuilder()
                     .stack(job.config)
                     .reading_window(job.reading_window)
                     .seed(job.seed)
                     .build()
                     .run_single(job.spec);
  });
  last_errors_.clear();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (failures[i]) {
      last_errors_.push_back(JobError{i, *failures[i], jobs[i].seed});
    }
  }

  // Merge per-job registries in submission order (a quarantined job
  // contributes an empty registry), so the snapshot depends only on the
  // job list, never on which worker finished first.
  metrics_.count("batch.jobs", static_cast<double>(jobs.size()));
  metrics_.count("batch.quarantined",
                 static_cast<double>(last_errors_.size()));
  for (const SingleLoadResult& r : results) metrics_.merge(r.job_metrics);
  return results;
}

}  // namespace eab::core
