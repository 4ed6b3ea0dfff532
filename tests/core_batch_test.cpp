#include "core/batch.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"
#include "util/rng.hpp"

namespace eab::core {
namespace {

/// A deliberately small page so each test load stays cheap.
corpus::PageSpec tiny_spec(int variant) {
  corpus::PageSpec spec;
  spec.site = "test.example/" + std::to_string(variant);
  spec.mobile = true;
  spec.html_bytes = kilobytes(6);
  spec.css_files = 1;
  spec.css_bytes = kilobytes(2);
  spec.css_images = 1;
  spec.js_files = 1;
  spec.js_bytes = kilobytes(2);
  spec.js_busy_iterations = 200;
  spec.js_images = 1;
  spec.html_images = 2;
  spec.image_bytes = kilobytes(3);
  spec.anchors = 4;
  spec.paragraphs = 4;
  return spec;
}

std::vector<BatchJob> sweep_jobs(int count) {
  std::vector<BatchJob> jobs;
  for (int i = 0; i < count; ++i) {
    BatchJob job;
    job.spec = tiny_spec(i % 4);
    job.config = ScenarioBuilder(i % 2 == 0
                                     ? browser::PipelineMode::kOriginal
                                     : browser::PipelineMode::kEnergyAware)
                     .build()
                     .stack;
    job.reading_window = 5.0;
    job.seed = derive_seed(99, static_cast<std::uint64_t>(i));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void expect_identical(const SingleLoadResult& a, const SingleLoadResult& b) {
  EXPECT_EQ(a.energy.load_j, b.energy.load_j);
  EXPECT_EQ(a.energy.with_reading_j, b.energy.with_reading_j);
  EXPECT_EQ(a.metrics.total_time(), b.metrics.total_time());
  EXPECT_EQ(a.metrics.transmission_time(), b.metrics.transmission_time());
  EXPECT_EQ(a.dch_time, b.dch_time);
  EXPECT_EQ(a.fach_time, b.fach_time);
  EXPECT_EQ(a.bytes_fetched, b.bytes_fetched);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.dom_signature, b.dom_signature);
  EXPECT_EQ(a.features.to_row(), b.features.to_row());
}

/// The serial reference for one batch job: the same load, run directly.
SingleLoadResult run_directly(const BatchJob& job) {
  return ScenarioBuilder()
      .stack(job.config)
      .reading_window(job.reading_window)
      .seed(job.seed)
      .build()
      .run_single(job.spec);
}

TEST(BatchRunner, ParallelMatchesSerialElementwise) {
  const auto jobs = sweep_jobs(8);
  std::vector<SingleLoadResult> serial;
  for (const auto& job : jobs) {
    serial.push_back(run_directly(job));
  }

  BatchRunner runner(4);
  EXPECT_EQ(runner.threads(), 4);
  const auto parallel = runner.run(jobs);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(BatchRunner, MemoCacheHitsReturnIdenticalResults) {
  const auto jobs = sweep_jobs(4);
  BatchRunner runner(2);
  const auto first = runner.run(jobs);
  EXPECT_EQ(runner.cache_hits(), 0u);
  EXPECT_EQ(runner.cache_misses(), jobs.size());
  EXPECT_EQ(runner.cache_size(), jobs.size());

  const auto second = runner.run(jobs);
  EXPECT_EQ(runner.cache_hits(), jobs.size());
  EXPECT_EQ(runner.cache_misses(), jobs.size());
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(first[i], second[i]);
  }
}

TEST(BatchRunner, DuplicateJobsWithinBatchComputedOnce) {
  auto jobs = sweep_jobs(2);
  jobs.push_back(jobs[0]);  // exact duplicate of job 0
  jobs.push_back(jobs[1]);  // exact duplicate of job 1
  BatchRunner runner(2);
  const auto results = runner.run(jobs);
  EXPECT_EQ(runner.cache_misses(), 2u);  // only the distinct keys simulated
  EXPECT_EQ(runner.cache_hits(), 2u);    // duplicates served from the batch
  expect_identical(results[0], results[2]);
  expect_identical(results[1], results[3]);
}

TEST(BatchRunner, ClearCacheForcesRecomputation) {
  const auto jobs = sweep_jobs(2);
  BatchRunner runner(2);
  const auto first = runner.run(jobs);
  runner.clear_cache();
  EXPECT_EQ(runner.cache_size(), 0u);
  const auto second = runner.run(jobs);
  EXPECT_EQ(runner.cache_misses(), 2 * jobs.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_identical(first[i], second[i]);
  }
}

TEST(BatchRunner, EabJobsOneDegradesToSerial) {
  ASSERT_EQ(setenv("EAB_JOBS", "1", 1), 0);
  BatchRunner runner;  // resolves from the environment
  unsetenv("EAB_JOBS");
  EXPECT_EQ(runner.threads(), 1);

  const auto jobs = sweep_jobs(4);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(run_directly(jobs[i]), results[i]);
  }
}

TEST(BatchRunner, ResolveJobsPrecedence) {
  ASSERT_EQ(setenv("EAB_JOBS", "3", 1), 0);
  EXPECT_EQ(BatchRunner::resolve_jobs(0), 3);   // env wins when unpinned
  EXPECT_EQ(BatchRunner::resolve_jobs(7), 7);   // explicit request wins
  ASSERT_EQ(setenv("EAB_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(BatchRunner::resolve_jobs(0), 1);   // garbage falls back
  unsetenv("EAB_JOBS");
  EXPECT_GE(BatchRunner::resolve_jobs(0), 1);
}

TEST(BatchRunner, EmptyBatchReturnsEmpty) {
  BatchRunner runner(2);
  EXPECT_TRUE(runner.run({}).empty());
  EXPECT_EQ(runner.cache_hits(), 0u);
  EXPECT_EQ(runner.cache_misses(), 0u);
}

TEST(BatchMemoKey, DistinguishesEveryKeyedInput) {
  BatchJob base;
  base.spec = tiny_spec(0);
  base.config = ScenarioBuilder(browser::PipelineMode::kOriginal).build().stack;
  const auto key = batch_memo_key(base);

  auto other = base;
  other.seed += 1;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.reading_window += 1.0;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.spec.html_bytes += 1;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.config.pipeline.mode = browser::PipelineMode::kEnergyAware;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.config.rrc.t1 += 0.5;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.config.force_idle_at_tx = !other.config.force_idle_at_tx;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.config.chaos.abort_at = 2.0;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.config.chaos.ril_socket_failures = 1;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.config.chaos.cache_storm_count = 1;
  EXPECT_NE(key, batch_memo_key(other));

  other = base;
  other.config.sim_event_budget /= 2;
  EXPECT_NE(key, batch_memo_key(other));

  EXPECT_EQ(key, batch_memo_key(base));  // and it is deterministic
}

/// A configuration Scenario::run_single rejects up front (stalls with no
/// watchdog), used as the deliberately-throwing job in quarantine tests.
BatchJob poisoned_job() {
  BatchJob job;
  job.spec = tiny_spec(0);
  job.config = ScenarioBuilder(browser::PipelineMode::kOriginal).build().stack;
  job.config.fault_plan.stall_rate = 0.5;
  job.config.retry.request_timeout = 0;  // validate_fault_wiring throws
  job.seed = 424242;
  return job;
}

TEST(BatchQuarantine, ThrowingJobIsIsolatedAndBatchCompletes) {
  auto jobs = sweep_jobs(6);
  jobs.insert(jobs.begin() + 3, poisoned_job());

  BatchRunner runner(4);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  ASSERT_EQ(runner.last_errors().size(), 1u);
  const JobError& error = runner.last_errors()[0];
  EXPECT_EQ(error.index, 3u);
  EXPECT_NE(error.what.find("stall_rate"), std::string::npos) << error.what;
  EXPECT_EQ(error.key_digest, fnv1a_64(batch_memo_key(jobs[3])));
  EXPECT_EQ(error.seed, 424242u);

  // The quarantined slot is value-initialized; every other job completed.
  EXPECT_EQ(results[3].sim_events, 0u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) continue;
    SCOPED_TRACE(i);
    EXPECT_GT(results[i].sim_events, 0u);
    EXPECT_GT(results[i].metrics.final_display, 0.0);
  }
  EXPECT_EQ(runner.metrics().value("batch.quarantined"), 1.0);
}

TEST(BatchQuarantine, SerialAndParallelQuarantinesAreIdentical) {
  auto jobs = sweep_jobs(5);
  jobs.insert(jobs.begin() + 1, poisoned_job());

  BatchRunner serial(1);
  BatchRunner parallel(4);
  const auto a = serial.run(jobs);
  const auto b = parallel.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
  ASSERT_EQ(serial.last_errors().size(), 1u);
  ASSERT_EQ(parallel.last_errors().size(), 1u);
  EXPECT_EQ(serial.last_errors()[0].index, parallel.last_errors()[0].index);
  EXPECT_EQ(serial.last_errors()[0].what, parallel.last_errors()[0].what);
  EXPECT_EQ(serial.last_errors()[0].key_digest,
            parallel.last_errors()[0].key_digest);
  EXPECT_TRUE(serial.metrics().same_as(parallel.metrics()));
}

TEST(BatchQuarantine, PoisonedKeyIsNeverCachedAndErrorsReset) {
  const std::vector<BatchJob> jobs = {poisoned_job()};
  BatchRunner runner(1);
  runner.run(jobs);
  EXPECT_EQ(runner.last_errors().size(), 1u);
  EXPECT_EQ(runner.cache_size(), 0u);

  // Re-running retries the load (no stale cache entry) and still reports
  // exactly one error, not an accumulated two.
  runner.run(jobs);
  EXPECT_EQ(runner.last_errors().size(), 1u);
  EXPECT_EQ(runner.cache_misses(), 2u);

  // A healthy batch clears the quarantine list.
  runner.run(sweep_jobs(2));
  EXPECT_TRUE(runner.last_errors().empty());
}

TEST(BatchQuarantine, DuplicatePoisonedJobsEachGetAnError) {
  std::vector<BatchJob> jobs = {poisoned_job(), poisoned_job()};
  BatchRunner runner(2);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(runner.last_errors().size(), 2u);
  EXPECT_EQ(runner.last_errors()[0].index, 0u);
  EXPECT_EQ(runner.last_errors()[1].index, 1u);
  EXPECT_EQ(runner.metrics().value("batch.quarantined"), 2.0);
}

TEST(EnvParsing, ParseEnvU64IsStrict) {
  std::uint64_t out = 0;
  EXPECT_TRUE(bench::parse_env_u64("0", out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(bench::parse_env_u64("18446744073709551615", out));
  EXPECT_EQ(out, 18446744073709551615ull);
  EXPECT_FALSE(bench::parse_env_u64(nullptr, out));
  EXPECT_FALSE(bench::parse_env_u64("", out));
  EXPECT_FALSE(bench::parse_env_u64("12x", out));
  EXPECT_FALSE(bench::parse_env_u64("x12", out));
  EXPECT_FALSE(bench::parse_env_u64("-1", out));
  EXPECT_FALSE(bench::parse_env_u64("+1", out));
  EXPECT_FALSE(bench::parse_env_u64(" 1", out));
  EXPECT_FALSE(bench::parse_env_u64("1 ", out));
  EXPECT_FALSE(bench::parse_env_u64("0x10", out));
  EXPECT_FALSE(bench::parse_env_u64("18446744073709551616", out));  // 2^64
}

TEST(EnvParsing, WellFormedOverridesAreHonored) {
  setenv("EAB_FAULT_SEED", "12345", 1);
  EXPECT_EQ(bench::knobs().u64_or("EAB_FAULT_SEED", 7), 12345u);
  unsetenv("EAB_FAULT_SEED");
  EXPECT_EQ(bench::knobs().u64_or("EAB_FAULT_SEED", 7), 7u);

  setenv("EAB_TRACE", "1", 1);
  EXPECT_TRUE(bench::knobs().flag("EAB_TRACE"));
  setenv("EAB_TRACE", "0", 1);
  EXPECT_FALSE(bench::knobs().flag("EAB_TRACE"));
  unsetenv("EAB_TRACE");
  EXPECT_FALSE(bench::knobs().flag("EAB_TRACE"));

  setenv("EAB_CHAOS_SEEDS", "32", 1);
  EXPECT_EQ(bench::knobs().u64_or("EAB_CHAOS_SEEDS", 256), 32u);
  unsetenv("EAB_CHAOS_SEEDS");
  EXPECT_EQ(bench::knobs().u64_or("EAB_CHAOS_SEEDS", 256), 256u);
}

TEST(EnvParsingDeathTest, MalformedFaultSeedDiesLoudly) {
  setenv("EAB_FAULT_SEED", "12bananas", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_FAULT_SEED", 7),
              ::testing::ExitedWithCode(2), "EAB_FAULT_SEED");
  unsetenv("EAB_FAULT_SEED");
}

TEST(EnvParsingDeathTest, MalformedTraceFlagDiesLoudly) {
  setenv("EAB_TRACE", "yes", 1);
  EXPECT_EXIT(bench::knobs().flag("EAB_TRACE"), ::testing::ExitedWithCode(2),
              "EAB_TRACE");
  unsetenv("EAB_TRACE");
}

TEST(EnvParsingDeathTest, ZeroChaosSeedsDiesLoudly) {
  setenv("EAB_CHAOS_SEEDS", "0", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_CHAOS_SEEDS", 256),
              ::testing::ExitedWithCode(2), "EAB_CHAOS_SEEDS");
  unsetenv("EAB_CHAOS_SEEDS");
}

TEST(EnvParsing, SupervisionKnobsHonorWellFormedValues) {
  setenv("EAB_SUPERVISE", "1", 1);
  EXPECT_TRUE(bench::knobs().flag("EAB_SUPERVISE"));
  setenv("EAB_SUPERVISE", "0", 1);
  EXPECT_FALSE(bench::knobs().flag("EAB_SUPERVISE"));
  unsetenv("EAB_SUPERVISE");
  EXPECT_FALSE(bench::knobs().flag("EAB_SUPERVISE"));

  setenv("EAB_WORKERS", "8", 1);
  EXPECT_EQ(bench::knobs().u64_or("EAB_WORKERS", 0), 8u);
  unsetenv("EAB_WORKERS");
  EXPECT_EQ(bench::knobs().u64_or("EAB_WORKERS", 0), 0u);  // resolve default

  setenv("EAB_SELF_CHAOS", "12345", 1);
  EXPECT_EQ(bench::knobs().u64_or("EAB_SELF_CHAOS", 0), 12345u);
  unsetenv("EAB_SELF_CHAOS");
  EXPECT_EQ(bench::knobs().u64_or("EAB_SELF_CHAOS", 0), 0u);

  setenv("EAB_SELF_CHAOS_KILLS", "4", 1);
  EXPECT_EQ(bench::knobs().u64_or("EAB_SELF_CHAOS_KILLS", 0), 4u);
  unsetenv("EAB_SELF_CHAOS_KILLS");
  EXPECT_EQ(bench::knobs().u64_or("EAB_SELF_CHAOS_KILLS", 0), 0u);

  setenv("EAB_SELF_CHAOS_ORC", "1", 1);
  EXPECT_TRUE(bench::knobs().flag("EAB_SELF_CHAOS_ORC"));
  unsetenv("EAB_SELF_CHAOS_ORC");
  EXPECT_FALSE(bench::knobs().flag("EAB_SELF_CHAOS_ORC"));

  setenv("EAB_CHECKPOINT_DIR", "/tmp/ckpt", 1);
  setenv("EAB_WORKERS", "3", 1);
  const auto config =
      bench::supervisor_config_from_env("sweep.journal", "fp-v1");
  EXPECT_EQ(config.checkpoint_path, "/tmp/ckpt/sweep.journal");
  EXPECT_EQ(config.fingerprint, "fp-v1");
  EXPECT_EQ(config.workers, 3);
  unsetenv("EAB_CHECKPOINT_DIR");
  unsetenv("EAB_WORKERS");
  EXPECT_TRUE(
      bench::supervisor_config_from_env("sweep.journal", "fp-v1")
          .checkpoint_path.empty());
}

TEST(EnvParsingDeathTest, MalformedSuperviseFlagDiesLoudly) {
  setenv("EAB_SUPERVISE", "yes", 1);
  EXPECT_EXIT(bench::knobs().flag("EAB_SUPERVISE"),
              ::testing::ExitedWithCode(2), "EAB_SUPERVISE");
  unsetenv("EAB_SUPERVISE");
}

TEST(EnvParsingDeathTest, MalformedWorkerCountDiesLoudly) {
  setenv("EAB_WORKERS", "0", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_WORKERS", 0),
              ::testing::ExitedWithCode(2), "EAB_WORKERS");
  setenv("EAB_WORKERS", "2000", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_WORKERS", 0),
              ::testing::ExitedWithCode(2), "EAB_WORKERS");
  setenv("EAB_WORKERS", "two", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_WORKERS", 0),
              ::testing::ExitedWithCode(2), "EAB_WORKERS");
  unsetenv("EAB_WORKERS");
}

TEST(EnvParsingDeathTest, MalformedSelfChaosSeedDiesLoudly) {
  setenv("EAB_SELF_CHAOS", "-1", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_SELF_CHAOS", 0),
              ::testing::ExitedWithCode(2), "EAB_SELF_CHAOS");
  unsetenv("EAB_SELF_CHAOS");
}

TEST(EnvParsingDeathTest, OversizedSelfChaosKillsDiesLoudly) {
  setenv("EAB_SELF_CHAOS_KILLS", "65", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_SELF_CHAOS_KILLS", 0),
              ::testing::ExitedWithCode(2), "EAB_SELF_CHAOS_KILLS");
  unsetenv("EAB_SELF_CHAOS_KILLS");
}

TEST(EnvParsingDeathTest, MalformedOrchestratorChaosFlagDiesLoudly) {
  setenv("EAB_SELF_CHAOS_ORC", "maybe", 1);
  EXPECT_EXIT(bench::knobs().flag("EAB_SELF_CHAOS_ORC"),
              ::testing::ExitedWithCode(2), "EAB_SELF_CHAOS_ORC");
  unsetenv("EAB_SELF_CHAOS_ORC");
}

TEST(EnvParsing, TelemetryKnobsHonorWellFormedValues) {
  setenv("EAB_TELEMETRY", "1", 1);
  EXPECT_TRUE(bench::knobs().flag("EAB_TELEMETRY"));
  setenv("EAB_TELEMETRY", "0", 1);
  EXPECT_FALSE(bench::knobs().flag("EAB_TELEMETRY"));
  unsetenv("EAB_TELEMETRY");
  EXPECT_FALSE(bench::knobs().flag("EAB_TELEMETRY"));

  setenv("EAB_TELEMETRY_TICK", "10", 1);
  EXPECT_EQ(bench::knobs().u64_or("EAB_TELEMETRY_TICK", 5), 10u);
  unsetenv("EAB_TELEMETRY_TICK");
  EXPECT_EQ(bench::knobs().u64_or("EAB_TELEMETRY_TICK", 5), 5u);

  setenv("EAB_TELEMETRY_BUDGET", "1024", 1);
  EXPECT_EQ(bench::knobs().u64_or("EAB_TELEMETRY_BUDGET", 256), 1024u);
  unsetenv("EAB_TELEMETRY_BUDGET");
  EXPECT_EQ(bench::knobs().u64_or("EAB_TELEMETRY_BUDGET", 256), 256u);

  setenv("EAB_PROGRESS", "1", 1);
  EXPECT_TRUE(bench::knobs().flag("EAB_PROGRESS"));
  setenv("EAB_PROGRESS", "0", 1);
  EXPECT_FALSE(bench::knobs().flag("EAB_PROGRESS"));
  unsetenv("EAB_PROGRESS");
  EXPECT_FALSE(bench::knobs().flag("EAB_PROGRESS"));
}

TEST(EnvParsingDeathTest, MalformedTelemetryFlagDiesLoudly) {
  setenv("EAB_TELEMETRY", "yes", 1);
  EXPECT_EXIT(bench::knobs().flag("EAB_TELEMETRY"),
              ::testing::ExitedWithCode(2), "EAB_TELEMETRY");
  unsetenv("EAB_TELEMETRY");
}

TEST(EnvParsingDeathTest, OutOfRangeTelemetryTickDiesLoudly) {
  setenv("EAB_TELEMETRY_TICK", "0", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_TELEMETRY_TICK", 5),
              ::testing::ExitedWithCode(2), "EAB_TELEMETRY_TICK");
  setenv("EAB_TELEMETRY_TICK", "86401", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_TELEMETRY_TICK", 5),
              ::testing::ExitedWithCode(2), "EAB_TELEMETRY_TICK");
  setenv("EAB_TELEMETRY_TICK", "5s", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_TELEMETRY_TICK", 5),
              ::testing::ExitedWithCode(2), "EAB_TELEMETRY_TICK");
  unsetenv("EAB_TELEMETRY_TICK");
}

TEST(EnvParsingDeathTest, OutOfRangeTelemetryBudgetDiesLoudly) {
  setenv("EAB_TELEMETRY_BUDGET", "1", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_TELEMETRY_BUDGET", 256),
              ::testing::ExitedWithCode(2), "EAB_TELEMETRY_BUDGET");
  setenv("EAB_TELEMETRY_BUDGET", "1048577", 1);
  EXPECT_EXIT(bench::knobs().u64_or("EAB_TELEMETRY_BUDGET", 256),
              ::testing::ExitedWithCode(2), "EAB_TELEMETRY_BUDGET");
  unsetenv("EAB_TELEMETRY_BUDGET");
}

TEST(EnvParsingDeathTest, MalformedProgressFlagDiesLoudly) {
  setenv("EAB_PROGRESS", "on", 1);
  EXPECT_EXIT(bench::knobs().flag("EAB_PROGRESS"),
              ::testing::ExitedWithCode(2), "EAB_PROGRESS");
  unsetenv("EAB_PROGRESS");
}

TEST(EnvParsing, ParseEnvF64IsStrict) {
  double out = 0;
  EXPECT_TRUE(bench::parse_env_f64("2", out));
  EXPECT_EQ(out, 2.0);
  EXPECT_TRUE(bench::parse_env_f64("0.75", out));
  EXPECT_EQ(out, 0.75);
  EXPECT_TRUE(bench::parse_env_f64("1.5e1", out));
  EXPECT_EQ(out, 15.0);
  EXPECT_FALSE(bench::parse_env_f64(nullptr, out));
  EXPECT_FALSE(bench::parse_env_f64("", out));
  EXPECT_FALSE(bench::parse_env_f64("-1", out));
  EXPECT_FALSE(bench::parse_env_f64("+1", out));
  EXPECT_FALSE(bench::parse_env_f64(".5", out));
  EXPECT_FALSE(bench::parse_env_f64(" 1", out));
  EXPECT_FALSE(bench::parse_env_f64("1 ", out));
  EXPECT_FALSE(bench::parse_env_f64("1.5s", out));
  EXPECT_FALSE(bench::parse_env_f64("0x1p4", out));
  EXPECT_FALSE(bench::parse_env_f64("inf", out));
  EXPECT_FALSE(bench::parse_env_f64("nan", out));
  EXPECT_FALSE(bench::parse_env_f64("1e999", out));
}

TEST(EnvParsing, OutageKnobsHonorWellFormedValues) {
  // All defaults: the plan is disabled and matches a default-constructed
  // one field for field.
  const radio::OutagePlan defaults = bench::outage_plan_from_env();
  EXPECT_FALSE(defaults.enabled());
  EXPECT_EQ(defaults.count, radio::OutagePlan{}.count);
  EXPECT_EQ(defaults.seed, radio::OutagePlan{}.seed);

  setenv("EAB_OUTAGE_COUNT", "3", 1);
  setenv("EAB_OUTAGE_START", "1.5", 1);
  setenv("EAB_OUTAGE_PERIOD", "8", 1);
  setenv("EAB_OUTAGE_DURATION", "2.5", 1);
  setenv("EAB_OUTAGE_FAIL_RATE", "0.25", 1);
  setenv("EAB_OUTAGE_SEED", "42", 1);
  const radio::OutagePlan plan = bench::outage_plan_from_env();
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.count, 3);
  EXPECT_EQ(plan.start, 1.5);
  EXPECT_EQ(plan.period, 8.0);
  EXPECT_EQ(plan.duration, 2.5);
  EXPECT_EQ(plan.reestablish_fail_rate, 0.25);
  EXPECT_EQ(plan.seed, 42u);
  unsetenv("EAB_OUTAGE_COUNT");
  unsetenv("EAB_OUTAGE_START");
  unsetenv("EAB_OUTAGE_PERIOD");
  unsetenv("EAB_OUTAGE_DURATION");
  unsetenv("EAB_OUTAGE_FAIL_RATE");
  unsetenv("EAB_OUTAGE_SEED");
}

TEST(EnvParsingDeathTest, MalformedOutageCountDiesLoudly) {
  setenv("EAB_OUTAGE_COUNT", "two", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_COUNT");
  setenv("EAB_OUTAGE_COUNT", "1001", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_COUNT");
  unsetenv("EAB_OUTAGE_COUNT");
}

TEST(EnvParsingDeathTest, MalformedOutageTimingDiesLoudly) {
  setenv("EAB_OUTAGE_PERIOD", "0", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_PERIOD");
  setenv("EAB_OUTAGE_PERIOD", "8s", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_PERIOD");
  unsetenv("EAB_OUTAGE_PERIOD");
  setenv("EAB_OUTAGE_DURATION", "-2", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_DURATION");
  unsetenv("EAB_OUTAGE_DURATION");
  setenv("EAB_OUTAGE_FAIL_RATE", "1.5", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_FAIL_RATE");
  unsetenv("EAB_OUTAGE_FAIL_RATE");
}

TEST(EnvParsingDeathTest, OverlappingOutageWindowsDieLoudly) {
  // period <= duration on an enabled plan: windows would overlap.
  setenv("EAB_OUTAGE_COUNT", "2", 1);
  setenv("EAB_OUTAGE_PERIOD", "2", 1);
  setenv("EAB_OUTAGE_DURATION", "3", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_PERIOD");
  unsetenv("EAB_OUTAGE_COUNT");
  unsetenv("EAB_OUTAGE_PERIOD");
  unsetenv("EAB_OUTAGE_DURATION");
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a_64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a_64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a_64("foobar"), 0x85944171F73967E8ULL);
}

TEST(RunBenchmark, EmptySpecListYieldsZeroedAverages) {
  const auto avg = bench::run_benchmark(
      {}, ScenarioBuilder(browser::PipelineMode::kOriginal).build().stack);
  EXPECT_EQ(avg.tx_time, 0.0);
  EXPECT_EQ(avg.total_time, 0.0);
  EXPECT_EQ(avg.first_display, 0.0);
  EXPECT_EQ(avg.final_display, 0.0);
  EXPECT_EQ(avg.load_energy, 0.0);
  EXPECT_EQ(avg.energy_20s, 0.0);
  EXPECT_EQ(avg.dch_time, 0.0);
}

}  // namespace
}  // namespace eab::core
