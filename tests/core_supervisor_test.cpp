// Process-level supervision: in-order streaming merge, real crash isolation
// (workers SIGKILL themselves), retry/backoff/give-up accounting,
// deterministic-error quarantine, durable journal resume (including a torn
// last record and a SIGKILLed orchestrator), and self-chaos kills — all
// asserting the bit-identity contract: the merged payload stream never
// depends on the crash history.
#include "core/supervisor.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "util/fileio.hpp"

namespace eab::core {
namespace {

using Merged = std::vector<std::pair<std::size_t, std::string>>;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "sup_" + name + "_" + std::to_string(::getpid());
}

/// The reference payload for shard i: binary-ish and size-varied so framing
/// and length-prefix bugs cannot hide.
std::string payload_for(std::size_t shard) {
  return "shard-" + std::to_string(shard) + std::string("\0#", 2) +
         std::string(shard % 5, 'x');
}

Supervisor::ShardFn plain_work() {
  return [](std::size_t shard) { return payload_for(shard); };
}

Supervisor::MergeFn collect_into(Merged& merged) {
  return [&merged](std::size_t shard, std::string_view payload) {
    merged.emplace_back(shard, std::string(payload));
  };
}

Merged expected_merge(std::size_t shard_count) {
  Merged expected;
  for (std::size_t i = 0; i < shard_count; ++i) {
    expected.emplace_back(i, payload_for(i));
  }
  return expected;
}

/// Fast-failure knobs shared by the tests: real heartbeats, tiny backoff.
SupervisorConfig fast_config() {
  SupervisorConfig config;
  config.workers = 2;
  config.heartbeat_interval = 0.01;
  config.heartbeat_timeout = 5.0;
  config.shard_deadline = 60.0;
  config.backoff_initial = 0.005;
  config.backoff_max = 0.05;
  return config;
}

TEST(SupervisorTest, MergesAllShardsInOrderAcrossWorkerProcesses) {
  SupervisorConfig config = fast_config();
  config.workers = 4;
  Supervisor supervisor(config);
  Merged merged;
  const auto report = supervisor.run(8, plain_work(), collect_into(merged));
  EXPECT_EQ(merged, expected_merge(8));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.shards, 8u);
  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(report.recovered, 0u);
  EXPECT_EQ(report.spawned, 8u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.kills, 0u);
  EXPECT_EQ(report.launch, 0u);
  EXPECT_EQ(report.metrics.value("supervisor.spawned"), 8.0);
  EXPECT_EQ(report.metrics.value("batch.quarantined"), 0.0);
}

TEST(SupervisorTest, ZeroShardsIsANoOp) {
  Supervisor supervisor(fast_config());
  Merged merged;
  const auto report = supervisor.run(0, plain_work(), collect_into(merged));
  EXPECT_TRUE(merged.empty());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.spawned, 0u);
}

TEST(SupervisorTest, RejectsContradictoryConfigs) {
  auto broken = [](auto mutate) {
    SupervisorConfig config;
    mutate(config);
    EXPECT_THROW(Supervisor{config}, std::invalid_argument);
  };
  broken([](SupervisorConfig& c) { c.heartbeat_interval = 0; });
  broken([](SupervisorConfig& c) { c.heartbeat_timeout = 0; });
  broken([](SupervisorConfig& c) { c.heartbeat_timeout = c.heartbeat_interval; });
  broken([](SupervisorConfig& c) { c.shard_deadline = -1; });
  broken([](SupervisorConfig& c) { c.max_attempts = 0; });
  broken([](SupervisorConfig& c) { c.backoff_initial = -0.1; });
  broken([](SupervisorConfig& c) { c.self_chaos_worker_kills = -1; });

  Supervisor supervisor(fast_config());
  EXPECT_THROW(supervisor.run(1, Supervisor::ShardFn{}, {}),
               std::invalid_argument);
}

TEST(SupervisorTest, ResolveWorkersDefaultsToHardwareConcurrency) {
  // The worker count resolves as a thread count does: <= 0 falls back to
  // hardware_concurrency (at least one worker), an explicit count wins.
  EXPECT_GE(BatchRunner::resolve_jobs(0), 1);
  EXPECT_GE(BatchRunner::resolve_jobs(-3), 1);
  EXPECT_EQ(BatchRunner::resolve_jobs(5), 5);
  for (const int workers : {0, -3}) {
    SupervisorConfig config = fast_config();
    config.workers = workers;
    Supervisor supervisor(config);
    Merged merged;
    const auto report = supervisor.run(3, plain_work(), collect_into(merged));
    EXPECT_EQ(merged, expected_merge(3)) << "workers=" << workers;
    EXPECT_TRUE(report.ok()) << "workers=" << workers;
  }
}

TEST(SupervisorTest, ThrowingShardIsQuarantinedWithoutRetries) {
  Supervisor supervisor(fast_config());
  Merged merged;
  const auto report = supervisor.run(
      4,
      [](std::size_t shard) -> std::string {
        if (shard == 1) throw std::runtime_error("poisoned shard");
        return payload_for(shard);
      },
      collect_into(merged));

  // The merge skips the failed shard but still runs in order.
  Merged expected = expected_merge(4);
  expected.erase(expected.begin() + 1);
  EXPECT_EQ(merged, expected);

  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].shard, 1u);
  EXPECT_EQ(report.errors[0].what, "poisoned shard");
  EXPECT_TRUE(report.errors[0].deterministic);
  EXPECT_EQ(report.spawned, 4u);  // deterministic failures are not retried
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.completed, 3u);
  // Uniform accounting with the in-process engine.
  EXPECT_EQ(report.metrics.value("batch.quarantined"), 1.0);
  EXPECT_EQ(report.metrics.value("supervisor.shard_retries"), 0.0);
}

TEST(SupervisorTest, SigkilledWorkerIsRetriedAndSweepCompletes) {
  // Real OS-level crash isolation: the shard-2 worker SIGKILLs itself on
  // the first attempt (the marker file crosses the fork boundary), the
  // supervisor respawns it, and the merged stream is exactly the reference.
  const std::string marker = temp_path("crash_once_marker");
  ::unlink(marker.c_str());
  Supervisor supervisor(fast_config());
  Merged merged;
  const auto report = supervisor.run(
      4,
      [&marker](std::size_t shard) {
        std::string ignored;
        if (shard == 2 && !read_file(marker, ignored)) {
          write_file_atomic(marker, "crashed");
          ::raise(SIGKILL);
        }
        return payload_for(shard);
      },
      collect_into(merged));
  ::unlink(marker.c_str());

  EXPECT_EQ(merged, expected_merge(4));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.spawned, 5u);
  EXPECT_EQ(report.metrics.value("supervisor.shard_retries"), 1.0);
}

TEST(SupervisorTest, GivesUpAfterMaxAttemptsAndSurfacesTheError) {
  SupervisorConfig config = fast_config();
  config.max_attempts = 2;
  Supervisor supervisor(config);
  Merged merged;
  const auto report = supervisor.run(
      2,
      [](std::size_t shard) {
        if (shard == 0) ::raise(SIGKILL);
        return payload_for(shard);
      },
      collect_into(merged));

  EXPECT_EQ(merged, (Merged{{1, payload_for(1)}}));
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].shard, 0u);
  EXPECT_FALSE(report.errors[0].deterministic);
  EXPECT_NE(report.errors[0].what.find("attempts=2"), std::string::npos)
      << report.errors[0].what;
  EXPECT_EQ(report.retries, 1u);  // attempt 2 is the one retry granted
  EXPECT_EQ(report.spawned, 3u);  // 2 for shard 0 + 1 for shard 1
}

TEST(SupervisorTest, JournaledRunResumesWithoutSpawningAnything) {
  const std::string journal = temp_path("resume_journal");
  ::unlink(journal.c_str());
  SupervisorConfig config = fast_config();
  config.checkpoint_path = journal;
  config.fingerprint = "resume-test v1";

  Merged first;
  const auto run1 = Supervisor(config).run(5, plain_work(), collect_into(first));
  EXPECT_TRUE(run1.ok());
  EXPECT_EQ(run1.launch, 0u);
  EXPECT_EQ(run1.spawned, 5u);

  // Relaunch: every shard is served from the journal, bit-identically, and
  // no worker is ever forked (the shard fn aborts the test if it runs).
  Merged second;
  const auto run2 = Supervisor(config).run(
      5,
      [](std::size_t) -> std::string {
        ADD_FAILURE() << "resume must not recompute committed shards";
        return {};
      },
      collect_into(second));
  ::unlink(journal.c_str());

  EXPECT_EQ(second, first);
  EXPECT_TRUE(run2.ok());
  EXPECT_EQ(run2.launch, 1u);
  EXPECT_EQ(run2.recovered, 5u);
  EXPECT_EQ(run2.spawned, 0u);
  EXPECT_EQ(run2.completed, 5u);
  EXPECT_EQ(run2.metrics.value("supervisor.recovered"), 5.0);
}

TEST(SupervisorTest, JournaledDeterministicErrorIsNotRerunOnResume) {
  const std::string journal = temp_path("error_journal");
  ::unlink(journal.c_str());
  SupervisorConfig config = fast_config();
  config.checkpoint_path = journal;

  const auto run1 = Supervisor(config).run(
      3,
      [](std::size_t shard) -> std::string {
        if (shard == 1) throw std::runtime_error("always fails");
        return payload_for(shard);
      },
      {});
  ASSERT_EQ(run1.errors.size(), 1u);

  Merged merged;
  const auto run2 = Supervisor(config).run(
      3,
      [](std::size_t) -> std::string {
        ADD_FAILURE() << "quarantined shard must not be retried on resume";
        return {};
      },
      collect_into(merged));
  ::unlink(journal.c_str());

  EXPECT_EQ(run2.spawned, 0u);
  ASSERT_EQ(run2.errors.size(), 1u);
  EXPECT_EQ(run2.errors[0].shard, 1u);
  EXPECT_EQ(run2.errors[0].what, "always fails");
  EXPECT_TRUE(run2.errors[0].deterministic);
  EXPECT_EQ(merged, (Merged{{0, payload_for(0)}, {2, payload_for(2)}}));
}

TEST(SupervisorTest, ForeignJournalFingerprintIsRejected) {
  const std::string journal = temp_path("foreign_journal");
  ::unlink(journal.c_str());
  SupervisorConfig config = fast_config();
  config.checkpoint_path = journal;
  config.fingerprint = "sweep-A users=1,2,3";
  EXPECT_TRUE(Supervisor(config).run(2, plain_work(), {}).ok());

  config.fingerprint = "sweep-B users=4,5,6";
  EXPECT_THROW(Supervisor(config).run(2, plain_work(), {}),
               std::runtime_error);
  ::unlink(journal.c_str());
}

TEST(SupervisorTest, PreSeededJournalSpawnsOnlyTheMissingShard) {
  // Satellite contract: recovery re-runs EXACTLY the shards the journal
  // does not cover.  Seed results for shards 0 and 2 by hand; only shard 1
  // may spawn a worker.
  const std::string journal = temp_path("seeded_journal");
  ::unlink(journal.c_str());
  {
    CheckpointJournal seeded(journal);
    seeded.append(Supervisor::kRecordShardResult,
                  Supervisor::encode_shard_payload(0, payload_for(0)));
    seeded.append(Supervisor::kRecordShardResult,
                  Supervisor::encode_shard_payload(2, payload_for(2)));
  }
  SupervisorConfig config = fast_config();
  config.checkpoint_path = journal;
  Merged merged;
  const auto report = Supervisor(config).run(
      3,
      [](std::size_t shard) {
        EXPECT_EQ(shard, 1u) << "journal-covered shard recomputed";
        return payload_for(shard);
      },
      collect_into(merged));
  ::unlink(journal.c_str());

  EXPECT_EQ(merged, expected_merge(3));
  EXPECT_EQ(report.recovered, 2u);
  EXPECT_EQ(report.spawned, 1u);
  EXPECT_TRUE(report.ok());
}

TEST(SupervisorTest, TornLastJournalRecordRerunsExactlyThatShard) {
  const std::string journal = temp_path("torn_journal");
  ::unlink(journal.c_str());
  SupervisorConfig config = fast_config();
  config.workers = 1;  // commits land in shard order: the last record is 2
  config.checkpoint_path = journal;
  Merged first;
  ASSERT_TRUE(Supervisor(config).run(3, plain_work(), collect_into(first)).ok());

  std::string bytes;
  ASSERT_TRUE(read_file(journal, bytes));
  ASSERT_EQ(::truncate(journal.c_str(), static_cast<off_t>(bytes.size() - 1)),
            0);

  Merged resumed;
  const auto report = Supervisor(config).run(
      3,
      [](std::size_t shard) {
        EXPECT_EQ(shard, 2u) << "intact shard recomputed after torn tail";
        return payload_for(shard);
      },
      collect_into(resumed));
  ::unlink(journal.c_str());

  EXPECT_EQ(resumed, first);
  EXPECT_EQ(report.recovered, 2u);
  EXPECT_EQ(report.spawned, 1u);
  EXPECT_EQ(report.launch, 1u);
}

TEST(SupervisorTest, SelfChaosWorkerKillsNeverChangeTheMergedStream) {
  Merged reference;
  ASSERT_TRUE(
      Supervisor(fast_config()).run(6, plain_work(), collect_into(reference)).ok());

  SupervisorConfig config = fast_config();
  config.self_chaos_seed = 42;
  config.self_chaos_worker_kills = 4;
  Merged chaotic;
  const auto report = Supervisor(config).run(
      6,
      [](std::size_t shard) {
        // Linger so chaos commit points find live, unsettled victims.
        ::usleep(50 * 1000);
        return payload_for(shard);
      },
      collect_into(chaotic));

  EXPECT_EQ(chaotic, reference);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 6u);
  EXPECT_LE(report.chaos_kills, 4u);
  EXPECT_EQ(report.kills, report.chaos_kills);
  // A chaos-killed worker whose result frame was already buffered can still
  // settle, so retries is at most — not exactly — the kill count.
  EXPECT_LE(report.retries, report.chaos_kills);
  EXPECT_EQ(report.metrics.value("supervisor.chaos_kills"),
            static_cast<double>(report.chaos_kills));
}

TEST(SupervisorTest, SigkilledOrchestratorResumesByteIdentically) {
  // The acceptance scenario in miniature: a supervised run whose
  // ORCHESTRATOR is SIGKILLed mid-sweep (in a forked child, so the test
  // survives), then relaunched — the resumed merge must be byte-identical
  // to an uninterrupted run.
  const std::string journal = temp_path("orc_kill_journal");
  ::unlink(journal.c_str());

  Merged reference;
  ASSERT_TRUE(Supervisor(fast_config())
                  .run(6, plain_work(), collect_into(reference))
                  .ok());

  SupervisorConfig config = fast_config();
  config.workers = 1;
  config.checkpoint_path = journal;
  config.fingerprint = "orc-kill-test";
  config.self_chaos_seed = 99;
  config.self_chaos_kill_orchestrator = true;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    Supervisor(config).run(6, plain_work(), {});
    _exit(0);  // only reached if chaos never fired — the parent checks
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "orchestrator was not chaos-killed";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Relaunch without chaos: resume from whatever was durably committed.
  config.self_chaos_seed = 0;
  config.self_chaos_kill_orchestrator = false;
  Merged resumed;
  const auto report =
      Supervisor(config).run(6, plain_work(), collect_into(resumed));
  ::unlink(journal.c_str());

  EXPECT_EQ(resumed, reference);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.launch, 1u);
  EXPECT_GE(report.recovered, 1u);  // the chaos point guarantees >= 1 commit
  EXPECT_EQ(report.recovered + report.spawned, 6u);
}

TEST(SupervisorTest, ShardPayloadCodecRoundTrips) {
  const std::string bytes = std::string("bin\0ary", 7);
  const std::string encoded = Supervisor::encode_shard_payload(17, bytes);
  std::size_t shard = 0;
  std::string decoded;
  Supervisor::decode_shard_payload(encoded, shard, decoded);
  EXPECT_EQ(shard, 17u);
  EXPECT_EQ(decoded, bytes);
  EXPECT_THROW(
      {
        std::size_t s;
        std::string b;
        Supervisor::decode_shard_payload(encoded.substr(0, 10), s, b);
      },
      std::runtime_error);
}

}  // namespace
}  // namespace eab::core
