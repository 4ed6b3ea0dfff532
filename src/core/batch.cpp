#include "core/batch.hpp"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "core/scenario.hpp"

namespace eab::core {
namespace {

/// Appends fields to a memo key in a fixed, portable byte order.
class KeyWriter {
 public:
  explicit KeyWriter(std::string& out) : out_(out) {}

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void i32(int v) { u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void boolean(bool v) { out_.push_back(v ? '\1' : '\0'); }
  void str(const std::string& s) {
    u64(s.size());
    out_.append(s);
  }

 private:
  std::string& out_;
};

void write_spec(KeyWriter& w, const corpus::PageSpec& spec) {
  w.str(spec.site);
  w.boolean(spec.mobile);
  w.i32(static_cast<int>(spec.topic));
  w.u64(spec.html_bytes);
  w.i32(spec.css_files);
  w.u64(spec.css_bytes);
  w.i32(spec.css_images);
  w.u64(spec.css_image_bytes);
  w.i32(spec.js_files);
  w.u64(spec.js_bytes);
  w.i32(spec.js_busy_iterations);
  w.i32(spec.js_images);
  w.u64(spec.js_image_bytes);
  w.i32(spec.html_images);
  w.u64(spec.image_bytes);
  w.i32(spec.flash_objects);
  w.u64(spec.flash_bytes);
  w.i32(spec.anchors);
  w.i32(spec.paragraphs);
}

void write_config(KeyWriter& w, const StackConfig& config) {
  const auto& rrc = config.rrc;
  w.f64(rrc.t1);
  w.f64(rrc.t2);
  w.f64(rrc.idle_to_dch_delay);
  w.f64(rrc.fach_to_dch_delay);
  w.f64(rrc.release_delay);
  w.f64(rrc.idle_to_dch_power);
  w.f64(rrc.fach_to_dch_power);
  w.f64(rrc.release_power);
  w.u64(rrc.fach_data_threshold);

  const auto& power = config.power;
  w.f64(power.idle);
  w.f64(power.fach);
  w.f64(power.dch_no_transfer);
  w.f64(power.dch_transfer);
  w.f64(power.fach_transfer);
  w.f64(power.cpu_busy_extra);

  const auto& link = config.link;
  w.f64(link.dch_bandwidth);
  w.f64(link.fach_bandwidth);
  w.f64(link.rtt);
  w.f64(link.server_latency);
  w.u64(link.slow_start_threshold);
  w.f64(link.slow_start_rounds_cap);

  const auto& pipeline = config.pipeline;
  w.i32(static_cast<int>(pipeline.mode));
  const auto& costs = pipeline.costs;
  w.f64(costs.html_parse_per_kb);
  w.f64(costs.css_scan_per_kb);
  w.f64(costs.js_per_kilo_op);
  w.f64(costs.css_parse_per_kb);
  w.f64(costs.image_decode_per_kb);
  w.f64(costs.style_format_per_node);
  w.f64(costs.layout_per_node);
  w.f64(costs.render_per_node);
  w.f64(costs.display_overhead);
  w.f64(costs.reflow_factor);
  w.f64(costs.text_display_discount);
  const auto& viewport = pipeline.viewport;
  w.i32(viewport.width_px);
  w.i32(viewport.avg_char_width_px);
  w.i32(viewport.line_height_px);
  w.i32(viewport.default_image_height_px);
  w.i32(viewport.default_image_width_px);
  w.f64(pipeline.redraw_min_interval);
  w.boolean(pipeline.mobile_page);
  w.boolean(pipeline.priority_fetch);
  w.boolean(pipeline.defer_css_parse);
  w.boolean(pipeline.intermediate_text_display);

  w.boolean(config.force_idle_at_tx);
  w.i32(config.max_parallel_connections);
  w.boolean(config.use_browser_cache);
  w.u64(config.browser_cache_bytes);
  // Tracing never changes simulation results, but a traced SingleLoadResult
  // carries its recording — an untraced job must not be served one (or vice
  // versa), so the flag is part of the identity.
  w.boolean(config.trace);

  const auto& fault = config.fault_plan;
  w.u64(fault.seed);
  w.f64(fault.connection_loss_rate);
  w.f64(fault.stall_rate);
  w.f64(fault.truncate_rate);
  w.f64(fault.slow_first_byte_rate);
  w.f64(fault.slow_first_byte_extra);
  w.i32(fault.fade_count);
  w.f64(fault.fade_start);
  w.f64(fault.fade_period);
  w.f64(fault.fade_duration);

  const auto& retry = config.retry;
  w.f64(retry.request_timeout);
  w.i32(retry.max_retries);
  w.f64(retry.backoff_initial);
  w.f64(retry.backoff_factor);

  const auto& chaos = config.chaos;
  w.f64(chaos.abort_at);
  w.i32(chaos.ril_socket_failures);
  w.i32(chaos.cache_storm_count);
  w.f64(chaos.cache_storm_start);
  w.f64(chaos.cache_storm_period);

  w.u64(config.sim_event_budget);

  // Radio failure model (appended so older fields keep their offsets; the
  // key is in-process only, so growing it is safe).
  w.f64(rrc.rlf_detect);
  w.f64(rrc.reestablish_delay);
  w.f64(rrc.reestablish_power);
  w.f64(rrc.reestablish_backoff);
  w.i32(rrc.max_reestablish_attempts);
  w.f64(power.out_of_service);
  const auto& outage = config.outage;
  w.u64(outage.seed);
  w.i32(outage.count);
  w.f64(outage.start);
  w.f64(outage.period);
  w.f64(outage.duration);
  w.f64(outage.reestablish_fail_rate);
}

}  // namespace

std::string batch_memo_key(const BatchJob& job) {
  std::string key;
  key.reserve(512);
  KeyWriter w(key);
  write_spec(w, job.spec);
  write_config(w, job.config);
  w.f64(job.reading_window);
  w.u64(job.seed);
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
