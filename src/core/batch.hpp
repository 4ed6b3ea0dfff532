// Parallel batch experiment engine.
//
// Every figure/table harness runs hundreds of fully independent
// Scenario::run_single stacks — each load owns its own sim::Simulator,
// WebServer and radio, so they parallelise perfectly.  BatchRunner fans
// (PageSpec, StackConfig, reading window, seed) jobs out over a fixed thread
// pool and returns results in submission order, so a batched sweep is
// bit-identical to the serial loop it replaces.  Every job is simulated:
// the runner keeps no results between or within batches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace eab::core {

/// One unit of batch work: a single page load and its reading window.
struct BatchJob {
  corpus::PageSpec spec;
  StackConfig config;
  Seconds reading_window = 20.0;
  std::uint64_t seed = 1;
};

/// One quarantined batch job: the load threw instead of returning.  The
/// runner records what happened — exception text and the job's seed (with
/// the index, enough to re-run the exact load in isolation) — fills the
/// job's result slot with a value-initialized SingleLoadResult, and keeps
/// going; one poisoned configuration no longer aborts a 500-job sweep.
struct JobError {
  std::size_t index = 0;   ///< submission-order slot in the batch
  std::string what;        ///< exception text ("unknown exception" if not std::exception)
  std::uint64_t seed = 0;  ///< the job's seed (chaos scenarios key off this)
};

/// Fixed-size thread pool for batches of single-load jobs and indexed
/// shards.
class BatchRunner {
 public:
  /// `jobs` > 0 pins the worker count (capped at 1024); <= 0 resolves to
  /// hardware_concurrency().  The environment is never read here: harnesses
  /// pass their strictly parsed EAB_JOBS knob.  A runner with one worker
  /// executes jobs inline on the calling thread.
  explicit BatchRunner(int jobs = 0);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Runs every job and returns results in submission order.  A job that
  /// throws is quarantined, never rethrown: its slot holds a
  /// value-initialized SingleLoadResult, a JobError describing the failure
  /// is available from last_errors(), and every other job still completes.
  std::vector<SingleLoadResult> run(const std::vector<BatchJob>& jobs);

  /// Quarantined jobs from the most recent run(), sorted by submission
  /// index; empty when every job succeeded.  Deterministic: depends only on
  /// the job list, never on worker scheduling.
  const std::vector<JobError>& last_errors() const { return last_errors_; }

  /// Generic sharding primitive: invokes fn(0) .. fn(count-1), fanned out
  /// over the pool (inline on the calling thread when threads() == 1).
  /// Each invocation must touch only its own slot of any shared output —
  /// the completion handshake publishes the writes.  Blocks until every
  /// index has run; if any invocation threw, rethrows the lowest-index
  /// failure as std::runtime_error after the batch completes (deterministic
  /// regardless of worker scheduling).
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Worker threads this runner uses (1 = serial).
  int threads() const { return threads_; }

  /// Accumulated metrics over every job this runner has executed: each
  /// job's per-load registry (SingleLoadResult::job_metrics) merged in
  /// submission order — the merge order, and therefore the snapshot, is
  /// identical whether the runner had one worker or many — plus batch.jobs
  /// and batch.quarantined counters for the engine itself.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  void clear_metrics() { metrics_ = {}; }

  /// Worker-count resolution for threads here and for Supervisor's worker
  /// processes: `requested` > 0 capped at 1024, else hardware_concurrency()
  /// (at least 1).
  static int resolve_jobs(int requested);

 private:
  class Pool;

  /// The one dispatch loop: runs fn(0) .. fn(count-1) on the pool or inline
  /// and returns each index's exception text (nullopt where fn returned).
  std::vector<std::optional<std::string>> dispatch(
      std::size_t count, const std::function<void(std::size_t)>& fn);

  int threads_ = 1;
  std::unique_ptr<Pool> pool_;  ///< null when threads_ == 1
  std::vector<JobError> last_errors_;
  obs::MetricsRegistry metrics_;
};

}  // namespace eab::core
