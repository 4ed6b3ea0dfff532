#include "core/batch.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "core/scenario.hpp"
#include "util/bytes.hpp"

namespace eab::core {
namespace {

/// Every PageSpec field, in declaration order.
void write_spec(BinaryWriter& w, const corpus::PageSpec& spec) {
  w(spec.site, spec.mobile, static_cast<std::int32_t>(spec.topic),
    spec.html_bytes, spec.css_files, spec.css_bytes, spec.css_images,
    spec.css_image_bytes, spec.js_files, spec.js_bytes,
    spec.js_busy_iterations, spec.js_images, spec.js_image_bytes,
    spec.html_images, spec.image_bytes, spec.flash_objects, spec.flash_bytes,
    spec.anchors, spec.paragraphs);
}

/// Every StackConfig field.  Tracing never changes simulation results, but
/// a traced SingleLoadResult carries its recording — an untraced job must
/// not be served one (or vice versa), so the flag is part of the identity.
void write_config(BinaryWriter& w, const StackConfig& config) {
  const auto& rrc = config.rrc;
  w(rrc.t1, rrc.t2, rrc.idle_to_dch_delay, rrc.fach_to_dch_delay,
    rrc.release_delay, rrc.idle_to_dch_power, rrc.fach_to_dch_power,
    rrc.release_power, rrc.fach_data_threshold, rrc.rlf_detect,
    rrc.reestablish_delay, rrc.reestablish_power, rrc.reestablish_backoff,
    rrc.max_reestablish_attempts, rrc.handover_delay, rrc.handover_power);

  const auto& power = config.power;
  w(power.idle, power.fach, power.dch_no_transfer, power.dch_transfer,
    power.fach_transfer, power.cpu_busy_extra, power.out_of_service);

  const auto& link = config.link;
  w(link.dch_bandwidth, link.fach_bandwidth, link.rtt, link.server_latency,
    link.slow_start_threshold, link.slow_start_rounds_cap);

  const auto& pipeline = config.pipeline;
  const auto& costs = pipeline.costs;
  const auto& viewport = pipeline.viewport;
  w(static_cast<std::int32_t>(pipeline.mode), costs.html_parse_per_kb,
    costs.css_scan_per_kb, costs.js_per_kilo_op, costs.css_parse_per_kb,
    costs.image_decode_per_kb, costs.style_format_per_node,
    costs.layout_per_node, costs.render_per_node, costs.display_overhead,
    costs.reflow_factor, costs.text_display_discount, viewport.width_px,
    viewport.avg_char_width_px, viewport.line_height_px,
    viewport.default_image_height_px, viewport.default_image_width_px,
    pipeline.redraw_min_interval, pipeline.mobile_page,
    pipeline.priority_fetch, pipeline.defer_css_parse,
    pipeline.intermediate_text_display);

  w(config.force_idle_at_tx, config.max_parallel_connections,
    config.use_browser_cache, config.browser_cache_bytes, config.trace,
    config.sim_event_budget);

  const auto& fault = config.fault_plan;
  w(fault.seed, fault.connection_loss_rate, fault.stall_rate,
    fault.truncate_rate, fault.slow_first_byte_rate,
    fault.slow_first_byte_extra, fault.fade_count, fault.fade_start,
    fault.fade_period, fault.fade_duration);

  const auto& retry = config.retry;
  w(retry.request_timeout, retry.max_retries, retry.backoff_initial,
    retry.backoff_factor);

  const auto& outage = config.outage;
  w(outage.seed, outage.count, outage.start, outage.period, outage.duration,
    outage.reestablish_fail_rate);

  const auto& chaos = config.chaos;
  w(chaos.abort_at, chaos.ril_socket_failures, chaos.cache_storm_count,
    chaos.cache_storm_start, chaos.cache_storm_period);
}

}  // namespace

std::string batch_memo_key(const BatchJob& job) {
  std::string key;
  key.reserve(512);
  BinaryWriter w(key);
  write_spec(w, job.spec);
  write_config(w, job.config);
  w(job.reading_window, job.seed);
  return key;
}

/// A plain fixed-size worker pool: tasks queue under one mutex, run_all
/// blocks until every queued task has finished.
class BatchRunner::Pool {
 public:
  explicit Pool(int threads) {
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Enqueues every task and blocks until all have completed.
  void run_all(std::vector<std::function<void()>> tasks) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_ += tasks.size();
      for (auto& task : tasks) queue_.push_back(std::move(task));
    }
    work_ready_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    batch_done_.wait(lock, [this] { return inflight_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--inflight_ == 0) batch_done_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t inflight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

int BatchRunner::resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("EAB_JOBS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0 && value <= 1024) {
      return static_cast<int>(value);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

BatchRunner::BatchRunner(int jobs) : threads_(resolve_jobs(jobs)) {
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_);
}

BatchRunner::~BatchRunner() = default;

void BatchRunner::run_indexed(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (!fn) {
    throw std::invalid_argument("BatchRunner::run_indexed: empty function");
  }
  std::vector<std::string> failures(count);
  std::vector<char> failed(count, 0);
  auto execute = [&](std::size_t index) {
    try {
      fn(index);
    } catch (const std::exception& e) {
      failed[index] = 1;
      failures[index] = e.what();
    } catch (...) {
      failed[index] = 1;
      failures[index] = "unknown exception";
    }
  };
  if (pool_) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      tasks.push_back([&execute, i] { execute(i); });
    }
    pool_->run_all(std::move(tasks));
  } else {
    for (std::size_t i = 0; i < count; ++i) execute(i);
  }
  // Rethrow the lowest-index failure: deterministic no matter which worker
  // hit it first.
  for (std::size_t i = 0; i < count; ++i) {
    if (failed[i]) {
      throw std::runtime_error("BatchRunner::run_indexed: task " +
                               std::to_string(i) + " failed: " + failures[i]);
    }
  }
}

std::vector<SingleLoadResult> BatchRunner::run(
    const std::vector<BatchJob>& jobs) {
  std::vector<SingleLoadResult> results(jobs.size());
  const std::size_t hits_before = cache_hits_;

  // Resolve each job against the memo cache and collapse within-batch
  // duplicates, leaving one work item per distinct uncached key.
  struct Work {
    const BatchJob* job;
    std::string key;
    std::vector<std::size_t> targets;  ///< result slots this load fills
  };
  std::vector<Work> work;
  std::unordered_map<std::string, std::size_t, Fnv1aHash> in_batch;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::string key = batch_memo_key(jobs[i]);
    if (const auto cached = cache_.find(key); cached != cache_.end()) {
      results[i] = cached->second;
      ++cache_hits_;
      continue;
    }
    if (const auto dup = in_batch.find(key); dup != in_batch.end()) {
      work[dup->second].targets.push_back(i);
      ++cache_hits_;
      continue;
    }
    in_batch.emplace(key, work.size());
    work.push_back(Work{&jobs[i], std::move(key), {i}});
    ++cache_misses_;
  }

  // Simulate the distinct loads.  Each task writes only its own slot of
  // `computed` / `failures`; run_all's completion handshake publishes the
  // writes.  A throwing load is quarantined in place: its failure text is
  // captured, its slot stays value-initialized, and no exception escapes
  // a worker — the rest of the batch always completes.
  std::vector<SingleLoadResult> computed(work.size());
  std::vector<std::string> failures(work.size());
  std::vector<char> failed(work.size(), 0);
  auto execute = [&](std::size_t index) {
    try {
      const BatchJob& job = *work[index].job;
      computed[index] = ScenarioBuilder()
                            .stack(job.config)
                            .reading_window(job.reading_window)
                            .seed(job.seed)
                            .build()
                            .run_single(job.spec);
    } catch (const std::exception& e) {
      failed[index] = 1;
      failures[index] = e.what();
    } catch (...) {
      failed[index] = 1;
      failures[index] = "unknown exception";
    }
  };
  if (pool_) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(work.size());
    for (std::size_t i = 0; i < work.size(); ++i) {
      tasks.push_back([&execute, i] { execute(i); });
    }
    pool_->run_all(std::move(tasks));
  } else {
    for (std::size_t i = 0; i < work.size(); ++i) execute(i);
  }

  // Fan results out in submission order; commit only healthy loads to the
  // cache (a quarantined key must be retried, not served, next time) and
  // record one JobError per affected result slot.
  last_errors_.clear();
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (failed[i]) {
      const std::uint64_t digest = fnv1a_64(work[i].key);
      for (const std::size_t target : work[i].targets) {
        last_errors_.push_back(
            JobError{target, failures[i], digest, work[i].job->seed});
      }
      continue;
    }
    for (const std::size_t target : work[i].targets) {
      results[target] = computed[i];
    }
    cache_.emplace(std::move(work[i].key), std::move(computed[i]));
  }
  std::sort(last_errors_.begin(), last_errors_.end(),
            [](const JobError& a, const JobError& b) { return a.index < b.index; });

  // Merge per-job registries in submission order over the fanned-out
  // results (memo hits included: a served job still happened; a quarantined
  // job contributes an empty registry).  The merge order — and with it the
  // snapshot — depends only on the job list, never on which worker finished
  // first.
  metrics_.count("batch.jobs", static_cast<double>(jobs.size()));
  metrics_.count("batch.memo_hits",
                 static_cast<double>(cache_hits_ - hits_before));
  metrics_.count("batch.quarantined",
                 static_cast<double>(last_errors_.size()));
  for (const SingleLoadResult& r : results) metrics_.merge(r.job_metrics);
  return results;
}

}  // namespace eab::core
