#include "core/supervisor.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace eab::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

// Worker -> orchestrator pipe frames: [u8 kind][u64 length][payload].  A
// frame cut short by worker death shows up as EOF mid-frame and is simply
// discarded — the shard retries; nothing partial is ever journaled.
constexpr std::uint8_t kFrameHeartbeat = 1;
constexpr std::uint8_t kFrameResult = 2;
constexpr std::uint8_t kFrameError = 3;
constexpr std::size_t kPipeHeaderBytes = 1 + 8;

void pipe_full_write(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      _exit(3);  // orchestrator gone (EPIPE): nothing useful left to do
    }
    written += static_cast<std::size_t>(n);
  }
}

std::string make_frame(std::uint8_t kind, std::string_view payload) {
  std::string frame;
  frame.reserve(kPipeHeaderBytes + payload.size());
  BinaryWriter w(frame);
  w.u8(kind);
  w.u64(payload.size());
  frame.append(payload);
  return frame;
}

/// Worker body after fork: heartbeat thread + shard fn + one result frame.
/// Exits via _exit so inherited stdio buffers are never double-flushed into
/// the orchestrator's output.
[[noreturn]] void run_worker(int write_fd, std::size_t shard,
                             const Supervisor::ShardFn& work,
                             Seconds heartbeat_interval) {
  // Die with the orchestrator: an orphaned worker must not keep computing
  // (or keep a soak's relaunch loop waiting) after a SIGKILLed parent.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  ::signal(SIGPIPE, SIG_IGN);

  std::mutex pipe_mutex;  // heartbeat thread vs result write
  std::atomic<bool> stop{false};
  std::thread heartbeat([&] {
    const auto interval = std::chrono::duration<double>(
        std::max(0.001, static_cast<double>(heartbeat_interval)));
    const std::string frame = make_frame(kFrameHeartbeat, {});
    while (!stop.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(pipe_mutex);
        pipe_full_write(write_fd, frame);
      }
      std::this_thread::sleep_for(interval);
    }
  });

  std::uint8_t kind = kFrameResult;
  std::string payload;
  try {
    payload = work(shard);
  } catch (const std::exception& e) {
    kind = kFrameError;
    payload = e.what();
  } catch (...) {
    kind = kFrameError;
    payload = "unknown exception";
  }

  stop.store(true, std::memory_order_relaxed);
  heartbeat.join();
  {
    std::lock_guard<std::mutex> lock(pipe_mutex);
    pipe_full_write(write_fd, make_frame(kind, payload));
  }
  ::close(write_fd);
  _exit(0);
}

enum class ShardState : std::uint8_t { kPending, kRunning, kDone, kFailed };

struct ShardBook {
  ShardState state = ShardState::kPending;
  int attempts = 0;                   ///< attempts started this launch
  Clock::time_point next_eligible{};  ///< backoff gate for the next attempt
};

struct LiveWorker {
  pid_t pid = -1;
  int fd = -1;
  std::size_t shard = 0;
  Clock::time_point started{};
  Clock::time_point last_io{};
  std::string buffer;     ///< unparsed pipe bytes
  bool settled = false;   ///< result/error frame fully received
  bool killed = false;    ///< we already SIGKILLed it (awaiting EOF)
};

}  // namespace

std::string SupervisorReport::summary() const {
  char line[256];
  std::snprintf(line, sizeof line,
                "supervisor: launch=%zu shards=%zu completed=%zu recovered=%zu "
                "spawned=%zu retries=%zu kills=%zu chaos_kills=%zu errors=%zu",
                launch, shards, completed, recovered, spawned, retries, kills,
                chaos_kills, errors.size());
  return line;
}

Supervisor::Supervisor(SupervisorConfig config) : config_(std::move(config)) {
  if (!(config_.heartbeat_interval > 0) || !(config_.heartbeat_timeout > 0)) {
    throw std::invalid_argument("Supervisor: heartbeat knobs must be > 0");
  }
  if (config_.heartbeat_timeout <= config_.heartbeat_interval) {
    throw std::invalid_argument(
        "Supervisor: heartbeat_timeout must exceed heartbeat_interval");
  }
  if (!(config_.shard_deadline > 0)) {
    throw std::invalid_argument("Supervisor: shard_deadline must be > 0");
  }
  if (config_.max_attempts < 1) {
    throw std::invalid_argument("Supervisor: max_attempts must be >= 1");
  }
  if (!(config_.backoff_initial >= 0) || !(config_.backoff_max >= 0)) {
    throw std::invalid_argument("Supervisor: backoff must be >= 0");
  }
  if (config_.self_chaos_worker_kills < 0) {
    throw std::invalid_argument(
        "Supervisor: self_chaos_worker_kills must be >= 0");
  }
}

std::string Supervisor::encode_shard_payload(std::size_t shard,
                                             std::string_view bytes) {
  std::string payload;
  payload.reserve(16 + bytes.size());
  BinaryWriter w(payload);
  w.u64(shard);
  w.str(bytes);
  return payload;
}

void Supervisor::decode_shard_payload(std::string_view payload,
                                      std::size_t& shard, std::string& bytes) {
  BinaryReader r(payload);
  shard = static_cast<std::size_t>(r.u64());
  bytes = r.str();
  r.expect_done();
}

SupervisorReport Supervisor::run(std::size_t shard_count, const ShardFn& work,
                                 const MergeFn& merge) {
  if (!work) throw std::invalid_argument("Supervisor::run: empty shard fn");
  SupervisorReport report;
  report.shards = shard_count;
  if (shard_count == 0) return report;

  // --- journal recovery -----------------------------------------------------
  std::map<std::size_t, std::string> ready;  ///< completed, not yet merged
  std::vector<ShardBook> book(shard_count);
  std::unique_ptr<CheckpointJournal> journal;
  bool fingerprint_seen = false;
  if (!config_.checkpoint_path.empty()) {
    journal = std::make_unique<CheckpointJournal>(
        config_.checkpoint_path,
        [&](std::uint32_t type, std::string_view payload) {
          switch (type) {
            case kRecordFingerprint:
              fingerprint_seen = true;
              if (!config_.fingerprint.empty() &&
                  payload != config_.fingerprint) {
                throw std::runtime_error(
                    "Supervisor: checkpoint journal " +
                    config_.checkpoint_path +
                    " was written by a different run (fingerprint mismatch); "
                    "refusing to merge foreign results");
              }
              break;
            case kRecordLaunch:
              ++report.launch;
              break;
            case kRecordShardResult: {
              std::size_t shard = 0;
              std::string bytes;
              decode_shard_payload(payload, shard, bytes);
              if (shard < shard_count &&
                  book[shard].state == ShardState::kPending) {
                book[shard].state = ShardState::kDone;
                ready.emplace(shard, std::move(bytes));
                ++report.recovered;
              }
              break;
            }
            case kRecordShardError: {
              std::size_t shard = 0;
              std::string what;
              decode_shard_payload(payload, shard, what);
              if (shard < shard_count &&
                  book[shard].state == ShardState::kPending) {
                book[shard].state = ShardState::kFailed;
                report.errors.push_back(ShardError{shard, std::move(what), true});
              }
              break;
            }
            default:
              break;  // unknown record types are skippable by design
          }
        });
    if (!fingerprint_seen && !config_.fingerprint.empty()) {
      journal->append(kRecordFingerprint, config_.fingerprint);
    }
    std::string launch_payload;
    BinaryWriter w(launch_payload);
    w.u64(report.launch);
    journal->append(kRecordLaunch, launch_payload);
  }

  // --- streaming merge in shard order ---------------------------------------
  std::size_t next_merge = 0;
  std::size_t merged = 0;
  auto advance_merge = [&] {
    while (next_merge < shard_count) {
      if (book[next_merge].state == ShardState::kFailed) {
        ++next_merge;  // failed shards are holes the merge skips
        continue;
      }
      const auto it = ready.find(next_merge);
      if (it == ready.end()) break;
      if (merge) merge(next_merge, it->second);
      ready.erase(it);  // payload released as soon as it is consumed
      ++merged;
      ++next_merge;
    }
  };
  advance_merge();

  // --- self-chaos schedule --------------------------------------------------
  // Kill points are commit counts within this launch, derived from
  // (seed, launch, k): deterministic for a given relaunch history, different
  // across launches so a resumed run does not re-block on the same shards.
  std::vector<std::uint64_t> chaos_kill_points;
  for (int k = 0; k < config_.self_chaos_worker_kills; ++k) {
    if (config_.self_chaos_seed == 0) break;
    chaos_kill_points.push_back(
        1 + derive_seed(config_.self_chaos_seed, report.launch * 256 + k) %
                std::max<std::uint64_t>(1, shard_count));
  }
  std::sort(chaos_kill_points.begin(), chaos_kill_points.end());
  // The orchestrator suicides once, on the first launch, right after a
  // durable commit — pointless (and unrecoverable) without a journal.
  const bool orc_suicide_armed = config_.self_chaos_seed != 0 &&
                                 config_.self_chaos_kill_orchestrator &&
                                 journal != nullptr && report.launch == 0;
  const std::uint64_t orc_suicide_commit =
      1 + derive_seed(config_.self_chaos_seed, 0xFEEDULL) %
              std::max<std::uint64_t>(1, shard_count);
  std::uint64_t commits_this_launch = 0;

  // --- orchestrator loop ----------------------------------------------------
  std::vector<LiveWorker> live;
  const int max_workers = std::min<std::size_t>(
      static_cast<std::size_t>(BatchRunner::resolve_jobs(config_.workers)),
      shard_count);

  auto cleanup_worker = [&](LiveWorker& w) {
    if (w.fd >= 0) ::close(w.fd);
    if (w.pid > 0) {
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    w.fd = -1;
    w.pid = -1;
  };
  struct KillAllGuard {
    std::vector<LiveWorker>* live;
    ~KillAllGuard() {
      for (auto& w : *live) {
        if (w.pid > 0) {
          ::kill(w.pid, SIGKILL);
          int status = 0;
          while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
          }
        }
        if (w.fd >= 0) ::close(w.fd);
      }
      live->clear();
    }
  } kill_all_guard{&live};

  auto record_failure = [&](std::size_t shard, std::string what,
                            bool deterministic) {
    book[shard].state = ShardState::kFailed;
    report.errors.push_back(ShardError{shard, what, deterministic});
    if (deterministic && journal) {
      journal->append(kRecordShardError, encode_shard_payload(shard, what));
      ++commits_this_launch;
    }
    advance_merge();
  };

  /// A worker died without settling: retry with backoff or give up.
  auto attempt_failed = [&](std::size_t shard, const char* why) {
    ShardBook& b = book[shard];
    b.state = ShardState::kPending;
    if (b.attempts >= config_.max_attempts) {
      record_failure(shard,
                     std::string("worker died on every attempt (last: ") +
                         why + ", attempts=" +
                         std::to_string(b.attempts) + ")",
                     false);
      return;
    }
    ++report.retries;
    const double backoff = std::min(
        static_cast<double>(config_.backoff_max),
        static_cast<double>(config_.backoff_initial) *
            static_cast<double>(1u << std::min(20, b.attempts - 1)));
    b.next_eligible =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff));
  };

  auto spawn = [&](std::size_t shard) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw std::runtime_error(std::string("Supervisor: pipe failed: ") +
                               std::strerror(errno));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error(std::string("Supervisor: fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      ::close(fds[0]);
      run_worker(fds[1], shard, work, config_.heartbeat_interval);
    }
    ::close(fds[1]);
    LiveWorker w;
    w.pid = pid;
    w.fd = fds[0];
    w.shard = shard;
    w.started = w.last_io = Clock::now();
    live.push_back(std::move(w));
    ++book[shard].attempts;
    book[shard].state = ShardState::kRunning;
    ++report.spawned;
  };

  /// Parses complete frames out of a worker's buffer; commits results and
  /// deterministic errors as they become whole.
  auto consume_frames = [&](LiveWorker& w) {
    for (;;) {
      if (w.buffer.size() < kPipeHeaderBytes) return;
      BinaryReader header(
          std::string_view(w.buffer).substr(0, kPipeHeaderBytes));
      const std::uint8_t kind = header.u8();
      const std::uint64_t length = header.u64();
      if (w.buffer.size() - kPipeHeaderBytes < length) return;
      const std::string payload =
          w.buffer.substr(kPipeHeaderBytes, static_cast<std::size_t>(length));
      w.buffer.erase(0, kPipeHeaderBytes + static_cast<std::size_t>(length));
      switch (kind) {
        case kFrameHeartbeat:
          break;  // liveness already noted via last_io
        case kFrameResult: {
          if (w.settled) break;
          w.settled = true;
          if (journal) {
            journal->append(kRecordShardResult,
                            encode_shard_payload(w.shard, payload));
          }
          ++commits_this_launch;
          book[w.shard].state = ShardState::kDone;
          ready.emplace(w.shard, payload);
          advance_merge();
          break;
        }
        case kFrameError: {
          if (w.settled) break;
          w.settled = true;
          record_failure(w.shard, payload, true);
          break;
        }
        default:
          // A corrupted stream means the worker is unreliable: kill it and
          // let the attempt fail on the EOF path.
          ::kill(w.pid, SIGKILL);
          w.killed = true;
          ++report.kills;
          return;
      }
    }
  };

  auto inject_chaos = [&] {
    // Worker kills: one per scheduled commit point that has been reached.
    while (!chaos_kill_points.empty() &&
           commits_this_launch >= chaos_kill_points.front()) {
      chaos_kill_points.erase(chaos_kill_points.begin());
      // Kill the live, unsettled worker with the lowest shard index.
      LiveWorker* victim = nullptr;
      for (auto& w : live) {
        if (w.pid > 0 && !w.settled && !w.killed &&
            (victim == nullptr || w.shard < victim->shard)) {
          victim = &w;
        }
      }
      if (victim == nullptr) continue;  // nothing to kill at this instant
      std::fprintf(stderr, "supervisor: chaos SIGKILL worker shard=%zu\n",
                   victim->shard);
      ::kill(victim->pid, SIGKILL);
      victim->killed = true;
      ++report.kills;
      ++report.chaos_kills;
      // Teardown happens on the normal EOF path below.
    }
    if (orc_suicide_armed && commits_this_launch >= orc_suicide_commit) {
      // The last append was fsync'd; a relaunch resumes from it.
      std::fprintf(stderr, "supervisor: chaos SIGKILL orchestrator\n");
      ::raise(SIGKILL);
    }
  };

  auto all_settled = [&] {
    for (std::size_t i = 0; i < shard_count; ++i) {
      if (book[i].state != ShardState::kDone &&
          book[i].state != ShardState::kFailed) {
        return false;
      }
    }
    return live.empty();
  };

  // --- live progress (stderr; wall-clock, never part of any snapshot) -------
  const Clock::time_point progress_start = Clock::now();
  Clock::time_point progress_last = progress_start;
  std::size_t progress_initial_done = 0;
  for (std::size_t i = 0; config_.progress && i < shard_count; ++i) {
    if (book[i].state == ShardState::kDone ||
        book[i].state == ShardState::kFailed) {
      ++progress_initial_done;
    }
  }
  auto report_progress = [&](Clock::time_point now, bool final_line) {
    if (!config_.progress) return;
    if (!final_line && seconds_since(progress_last, now) < 1.0) return;
    progress_last = now;
    std::size_t pending = 0, running = 0, done = 0, failed = 0;
    for (std::size_t i = 0; i < shard_count; ++i) {
      switch (book[i].state) {
        case ShardState::kPending: ++pending; break;
        case ShardState::kRunning: ++running; break;
        case ShardState::kDone: ++done; break;
        case ShardState::kFailed: ++failed; break;
      }
    }
    double stalest_hb = 0;
    for (const auto& w : live) {
      if (!w.settled) stalest_hb = std::max(stalest_hb, seconds_since(w.last_io, now));
    }
    const double elapsed = seconds_since(progress_start, now);
    const std::size_t settled = done + failed;
    const double rate =
        elapsed > 0
            ? static_cast<double>(settled - progress_initial_done) / elapsed
            : 0.0;
    char eta[32];
    if (rate > 0 && settled < shard_count) {
      std::snprintf(eta, sizeof eta, "%.1fs",
                    static_cast<double>(shard_count - settled) / rate);
    } else {
      std::snprintf(eta, sizeof eta, "n/a");
    }
    std::fprintf(stderr,
                 "supervisor: progress %zu/%zu done (%zu failed) running=%zu "
                 "pending=%zu hb_age=%.1fs rate=%.2f/s eta=%s\n",
                 settled, shard_count, failed, running, pending, stalest_hb,
                 rate, eta);
  };

  while (!all_settled()) {
    const Clock::time_point now = Clock::now();
    report_progress(now, false);

    // Spawn workers into free slots, lowest dispatchable shard first.
    while (static_cast<int>(live.size()) < max_workers) {
      std::size_t next = shard_count;
      for (std::size_t i = 0; i < shard_count; ++i) {
        if (book[i].state == ShardState::kPending && now >= book[i].next_eligible) {
          next = i;
          break;
        }
      }
      if (next == shard_count) break;
      spawn(next);
    }

    if (live.empty()) {
      // Everything pending is backing off: sleep to the earliest gate.
      Clock::time_point wake = now + std::chrono::seconds(1);
      for (std::size_t i = 0; i < shard_count; ++i) {
        if (book[i].state == ShardState::kPending) {
          wake = std::min(wake, book[i].next_eligible);
        }
      }
      const double sleep_s = std::max(0.001, seconds_since(now, wake));
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      continue;
    }

    std::vector<pollfd> fds;
    fds.reserve(live.size());
    for (const auto& w : live) {
      fds.push_back(pollfd{w.fd, POLLIN, 0});
    }
    const int timeout_ms = 50;  // deadline/backoff granularity
    const int ready_fds = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready_fds < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("Supervisor: poll failed: ") +
                               std::strerror(errno));
    }

    const Clock::time_point after = Clock::now();
    // Drain readable pipes, then sweep for EOFs, hangs and deadlines.
    for (std::size_t i = 0; i < live.size();) {
      LiveWorker& w = live[i];
      bool eof = false;
      if (ready_fds > 0 && (fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        char chunk[65536];
        for (;;) {
          const ssize_t n = ::read(w.fd, chunk, sizeof chunk);
          if (n > 0) {
            w.last_io = after;
            w.buffer.append(chunk, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof chunk) break;
            continue;
          }
          if (n == 0) {
            eof = true;
            break;
          }
          if (errno == EINTR) continue;
          eof = true;  // read error: treat as worker loss
          break;
        }
        consume_frames(w);
      }

      if (eof) {
        const std::size_t shard = w.shard;
        const bool settled = w.settled;
        cleanup_worker(w);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        if (!settled) attempt_failed(shard, "exited without a result");
        inject_chaos();
        continue;  // do not ++i: erase shifted the vector
      }

      if (!w.settled &&
          seconds_since(w.last_io, after) >
              static_cast<double>(config_.heartbeat_timeout)) {
        std::fprintf(stderr,
                     "supervisor: heartbeat timeout, SIGKILL worker shard=%zu\n",
                     w.shard);
        ::kill(w.pid, SIGKILL);
        ++report.kills;
        const std::size_t shard = w.shard;
        cleanup_worker(w);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        attempt_failed(shard, "heartbeat timeout");
        continue;
      }
      if (!w.settled &&
          seconds_since(w.started, after) >
              static_cast<double>(config_.shard_deadline)) {
        std::fprintf(stderr,
                     "supervisor: deadline exceeded, SIGKILL worker shard=%zu\n",
                     w.shard);
        ::kill(w.pid, SIGKILL);
        ++report.kills;
        const std::size_t shard = w.shard;
        cleanup_worker(w);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        attempt_failed(shard, "shard deadline exceeded");
        continue;
      }
      ++i;
    }
    inject_chaos();
  }

  report_progress(Clock::now(), true);
  advance_merge();
  report.completed = merged;
  std::sort(report.errors.begin(), report.errors.end(),
            [](const ShardError& a, const ShardError& b) {
              return a.shard < b.shard;
            });

  // Uniform failure accounting: same counter name the in-process engine
  // uses for quarantined jobs, plus the supervisor's own process counters.
  report.metrics.count("batch.quarantined",
                       static_cast<double>(report.errors.size()));
  report.metrics.count("supervisor.shards", static_cast<double>(report.shards));
  report.metrics.count("supervisor.recovered",
                       static_cast<double>(report.recovered));
  report.metrics.count("supervisor.spawned",
                       static_cast<double>(report.spawned));
  report.metrics.count("supervisor.shard_retries",
                       static_cast<double>(report.retries));
  report.metrics.count("supervisor.kills", static_cast<double>(report.kills));
  report.metrics.count("supervisor.chaos_kills",
                       static_cast<double>(report.chaos_kills));
  report.metrics.set_max("supervisor.launch", static_cast<double>(report.launch));
  return report;
}

}  // namespace eab::core
