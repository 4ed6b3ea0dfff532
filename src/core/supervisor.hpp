// Process-level supervised execution over job shards.
//
// BatchRunner's threads give parallelism but share one address space: a
// segfault, OOM kill or runaway loop in any job takes the whole sweep with
// it, and PR 4's in-process quarantine can only catch what surfaces as a
// C++ exception.  Supervisor is the layer above: an orchestrator forks one
// worker process per shard (up to `workers` concurrently), so whole-worker
// death — SIGSEGV, SIGKILL, the OOM killer — costs exactly one shard
// attempt, never the run.
//
// Supervision contract:
//   - each worker sends heartbeat frames on its result pipe every
//     `heartbeat_interval`; a worker silent for `heartbeat_timeout` is
//     declared hung, SIGKILLed and retried;
//   - each attempt also carries a wall-clock `shard_deadline`;
//   - retries back off exponentially (backoff_initial doubling up to
//     backoff_max) and give up after `max_attempts`, surfacing a
//     ShardError — a shard whose *function* throws is a deterministic
//     failure and is recorded immediately, without retries, exactly like
//     BatchRunner's quarantine;
//   - completed shards stream into a CheckpointJournal (when
//     `checkpoint_path` is set): a re-launched run — even after the
//     orchestrator itself was killed — resumes from the journal and
//     recomputes only the shards that never committed, so its merged
//     output is byte-identical to an uninterrupted run;
//   - results are merged on arrival in submission (shard-index) order:
//     shard k is handed to the merge callback as soon as it and every
//     shard below it have completed, and its payload is released
//     immediately afterwards — aggregation is streaming, no
//     vector-of-results is retained.
//
// Self-chaos (the crash-recovery soak): with `self_chaos_seed` set the
// orchestrator SIGKILLs its own workers at seed-derived commit points
// (`self_chaos_worker_kills` per launch) and — once, on the first launch,
// when `self_chaos_kill_orchestrator` is set and a journal exists —
// SIGKILLs itself right after a durable commit.  scripts/check.sh drives
// this and byte-compares the recovered outputs against an uninterrupted
// run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace eab::core {

struct SupervisorConfig {
  /// Max concurrent worker processes, resolved as BatchRunner::resolve_jobs
  /// resolves a thread count (<= 0: hardware_concurrency; capped at 1024).
  /// Always clamped to the shard count.
  int workers = 0;
  /// Worker liveness: heartbeat frames every `heartbeat_interval`; a worker
  /// silent for `heartbeat_timeout` is killed and the attempt retried.
  Seconds heartbeat_interval = 0.1;
  Seconds heartbeat_timeout = 10.0;
  /// Wall-clock budget for one shard attempt.
  Seconds shard_deadline = 600.0;
  /// Attempts per shard per launch before the shard surfaces a ShardError.
  int max_attempts = 8;
  /// Exponential restart backoff: attempt n waits
  /// min(backoff_initial * 2^(n-1), backoff_max) before respawning.
  Seconds backoff_initial = 0.05;
  Seconds backoff_max = 2.0;
  /// Durable checkpoint journal path; empty = supervise without durability.
  std::string checkpoint_path;
  /// Run identity guard for the journal: when non-empty, the first launch
  /// writes it and every resume verifies it — resuming a journal written by
  /// a different sweep (other axis, seed or mode) throws instead of
  /// silently merging foreign results.
  std::string fingerprint;
  /// Self-chaos: 0 = off.  See file comment.
  std::uint64_t self_chaos_seed = 0;
  int self_chaos_worker_kills = 0;
  bool self_chaos_kill_orchestrator = false;
  /// Live wall-clock progress lines on stderr (per-shard census, heartbeat
  /// age of the stalest worker, shards/s, ETA), throttled to ~1 Hz.  Off by
  /// default; benches enable it via EAB_PROGRESS=1.  Progress reporting is
  /// observability of the supervision process itself and — like the
  /// SupervisorReport metrics — never part of a deterministic snapshot.
  bool progress = false;
};

/// A shard that could not be completed: either its function threw
/// (deterministic, recorded without retries and journaled so resumes do not
/// re-run it) or its worker died `max_attempts` times.
struct ShardError {
  std::size_t shard = 0;
  std::string what;
  bool deterministic = false;  ///< true: the shard fn threw (quarantined)
};

struct SupervisorReport {
  std::size_t shards = 0;
  std::size_t completed = 0;   ///< shards merged (recovered + computed)
  std::size_t recovered = 0;   ///< shards served from the journal
  std::size_t spawned = 0;     ///< worker processes forked
  std::size_t retries = 0;     ///< attempts beyond each shard's first
  std::size_t kills = 0;       ///< workers SIGKILLed (hang, deadline, chaos)
  std::size_t chaos_kills = 0; ///< the subset injected by self-chaos
  std::size_t launch = 0;      ///< 0 = first launch, n = n-th resume
  std::vector<ShardError> errors;  ///< sorted by shard index
  /// Supervision accounting under the same names the in-process engine
  /// uses (batch.quarantined) plus supervisor.* counters, so supervised
  /// and in-process runs report failures uniformly.  Deliberately NOT part
  /// of any per-run deterministic snapshot: retry/kill counts depend on
  /// where crashes landed, and the bit-identity contract covers results,
  /// not the supervision log.
  obs::MetricsRegistry metrics;

  bool ok() const { return errors.empty(); }
  /// One-line summary for stderr logging.
  std::string summary() const;
};

class Supervisor {
 public:
  /// Runs in the WORKER process: compute shard `i`, return its payload
  /// bytes.  Anything thrown becomes a deterministic ShardError.
  using ShardFn = std::function<std::string(std::size_t shard)>;
  /// Runs in the ORCHESTRATOR, strictly in shard order 0..N-1 (failed
  /// shards are skipped); the payload view dies with the call.
  using MergeFn =
      std::function<void(std::size_t shard, std::string_view payload)>;

  explicit Supervisor(SupervisorConfig config = {});

  /// Executes `shard_count` shards under supervision and streams completed
  /// payloads into `merge` in shard order.  Throws std::invalid_argument on
  /// a contradictory config, std::runtime_error on journal corruption or a
  /// fingerprint mismatch.
  SupervisorReport run(std::size_t shard_count, const ShardFn& work,
                       const MergeFn& merge);

  const SupervisorConfig& config() const { return config_; }

  // Journal record types and payload codecs, public so tests can pre-seed
  // or inspect journals.  Payloads: fingerprint = raw bytes; launch =
  // u64 launch index; shard result = u64 shard + length-prefixed bytes;
  // shard error = u64 shard + length-prefixed what().
  static constexpr std::uint32_t kRecordFingerprint = 1;
  static constexpr std::uint32_t kRecordLaunch = 2;
  static constexpr std::uint32_t kRecordShardResult = 3;
  static constexpr std::uint32_t kRecordShardError = 4;
  static std::string encode_shard_payload(std::size_t shard,
                                          std::string_view bytes);
  static void decode_shard_payload(std::string_view payload, std::size_t& shard,
                                   std::string& bytes);

 private:
  SupervisorConfig config_;
};

}  // namespace eab::core
