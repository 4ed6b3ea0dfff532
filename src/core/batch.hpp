// Parallel batch experiment engine.
//
// Every figure/table harness runs hundreds of fully independent
// Scenario::run_single stacks — each load owns its own sim::Simulator,
// WebServer and radio, so they parallelise perfectly.  BatchRunner fans
// (PageSpec, StackConfig, reading window, seed) jobs out over a fixed thread
// pool and returns results in submission order, so a batched sweep is
// bit-identical to the serial loop it replaces.
//
// A content-addressed memo cache sits in front of the pool: each job is
// serialised to a canonical byte key (batch_memo_key) hashed with FNV-1a,
// and jobs whose keys match an already-computed load — paired
// Original/Energy-Aware sweeps re-measuring the same pages, the page
// library's repeated per-variant feature loads — reuse the stored
// SingleLoadResult instead of simulating again.  Scenario::run_single is a
// pure function of the key's fields, which is what makes memoisation sound.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/experiment.hpp"
#include "util/hash.hpp"

namespace eab::core {

/// One unit of batch work: a single page load and its reading window.
struct BatchJob {
  corpus::PageSpec spec;
  StackConfig config;
  Seconds reading_window = 20.0;
  std::uint64_t seed = 1;
};

/// Canonical byte encoding of everything Scenario::run_single's output
/// depends on: every PageSpec field, every StackConfig field (including the
/// nested radio, power, link, pipeline and chaos configs), the reading
/// window and the seed.  Two jobs with equal keys produce bit-identical
/// SingleLoadResults.
/// NOTE: any new field added to PageSpec or StackConfig (the fault plan,
/// retry policy and chaos directives included) must be written into the key
/// too, or loads differing only in that field would collide in the cache.
std::string batch_memo_key(const BatchJob& job);

/// One quarantined batch job: the load threw instead of returning.  The
/// runner records what happened — exception text, the job's memo-key digest
/// and its seed (enough to re-run the exact load in isolation) — fills the
/// job's result slot with a value-initialized SingleLoadResult, and keeps
/// going; one poisoned configuration no longer aborts a 500-job sweep.
struct JobError {
  std::size_t index = 0;          ///< submission-order slot in the batch
  std::string what;               ///< exception text ("unknown exception" if not std::exception)
  std::uint64_t key_digest = 0;   ///< fnv1a_64(batch_memo_key(job))
  std::uint64_t seed = 0;         ///< the job's seed (chaos scenarios key off this)
};

/// Fixed-size thread pool + memo cache for batches of single-load jobs.
class BatchRunner {
 public:
  /// `jobs` > 0 pins the worker count; 0 resolves it from the EAB_JOBS
  /// environment variable, falling back to hardware_concurrency().  A runner
  /// with one worker executes jobs inline on the calling thread.
  explicit BatchRunner(int jobs = 0);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Runs every job and returns results in submission order.  Jobs with
  /// identical memo keys are simulated once; previously-run keys are served
  /// from the cache.  A job that throws is quarantined, never rethrown: its
  /// slot holds a value-initialized SingleLoadResult, a JobError describing
  /// the failure is available from last_errors(), the poisoned key is NOT
  /// committed to the memo cache, and every other job still completes.
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
  /// regardless of worker scheduling).  The memo cache is not involved: use
  /// run() for single-load jobs.
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Worker threads this runner uses (1 = serial).
  int threads() const { return threads_; }

  /// Jobs served from the memo cache (including duplicates within a batch).
  std::size_t cache_hits() const { return cache_hits_; }
  /// Jobs that required an actual simulation.
  std::size_t cache_misses() const { return cache_misses_; }
  /// Distinct loads currently memoised.
  std::size_t cache_size() const { return cache_.size(); }
  void clear_cache() { cache_.clear(); }

  /// Accumulated metrics over every job this runner has executed: each
  /// job's per-load registry (SingleLoadResult::job_metrics) merged in
  /// submission order — the merge order, and therefore the snapshot, is
  /// identical whether the runner had one worker or many — plus batch.jobs
  /// and batch.memo_hits counters for the engine itself.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  void clear_metrics() { metrics_ = {}; }

  /// EAB_JOBS / hardware_concurrency resolution (exposed for tests).
  static int resolve_jobs(int requested);

 private:
  struct Fnv1aHash {
    std::size_t operator()(const std::string& key) const {
      return static_cast<std::size_t>(fnv1a_64(key));
    }
  };
  class Pool;

  int threads_ = 1;
  std::unique_ptr<Pool> pool_;  ///< null when threads_ == 1
  std::unordered_map<std::string, SingleLoadResult, Fnv1aHash> cache_;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  std::vector<JobError> last_errors_;
  obs::MetricsRegistry metrics_;
};

}  // namespace eab::core
