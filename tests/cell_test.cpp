// Multi-UE shared-cell co-simulation: determinism (serial == pooled ==
// supervised sweeps), grant-pool accounting under exhaustion, the
// qualitative Fig 11 capacity claim from first principles, a chaos sweep
// over cell scenarios, and the checked-in service-time quantiles for the
// M/G/N satellite.
#include "cell/cell.hpp"
#include "cell/service_times.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "obs/audit.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace eab::cell {
namespace {

std::vector<corpus::PageSpec> small_mix() {
  const auto all = corpus::mobile_benchmark();
  return {all.begin(), all.begin() + 2};
}

CellConfig small_cell(browser::PipelineMode mode) {
  CellConfig config;
  config.per_ue = core::ScenarioBuilder(mode).build();
  config.specs = small_mix();
  config.users = 6;
  config.channels = 2;
  config.horizon = 120.0;
  config.cell_seed = 7;
  return config;
}

/// Bit-exact comparison surface for one run: every aggregate counter plus
/// each UE's full energy report (%.17g via to_json).
std::string fingerprint(const CellResult& r) {
  std::string out = std::to_string(r.offered) + "/" +
                    std::to_string(r.dropped) + "/" +
                    std::to_string(r.completed) + "/" +
                    std::to_string(r.aborted) + "/" +
                    std::to_string(r.sim_events) + "/" +
                    std::to_string(r.grant_overcommits);
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "/%.17g/%.17g", r.end_time,
                r.mean_busy_grants);
  out += buffer;
  for (const auto& ue : r.per_ue) out += ue.energy.to_json();
  return out;
}

/// run_cell_sweep on `exec`, collected in axis order; every shard must land.
std::vector<CellResult> sweep(const CellConfig& base,
                              const std::vector<int>& axis,
                              const core::SweepExecution& exec) {
  std::vector<CellResult> results(axis.size());
  const core::SupervisorReport report = run_cell_sweep(
      base, axis, exec,
      [&results](std::size_t i, const CellResult& r) { results[i] = r; });
  EXPECT_TRUE(report.ok()) << report.summary();
  return results;
}

std::vector<double> drops_of(const std::vector<CellResult>& results) {
  std::vector<double> drops;
  for (const CellResult& r : results) drops.push_back(r.drop_probability());
  return drops;
}

TEST(CellTest, SameSeedSameResult) {
  const auto config = small_cell(browser::PipelineMode::kEnergyAware);
  const CellResult a = run_cell(config);
  const CellResult b = run_cell(config);
  EXPECT_GT(a.offered, 0u);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(CellTest, SweepSerialEqualsSharded) {
  const auto config = small_cell(browser::PipelineMode::kOriginal);
  const std::vector<int> axis{2, 4, 6};
  core::BatchRunner pooled(3);
  const auto a = sweep(config, axis, core::SweepExecution::serial());
  const auto b = sweep(config, axis, core::SweepExecution::pooled(pooled));
  for (std::size_t i = 0; i < axis.size(); ++i) {
    EXPECT_EQ(a[i].users, axis[i]);
    EXPECT_EQ(serialize_cell_result(b[i]), serialize_cell_result(a[i]))
        << "users=" << axis[i];
  }
}

TEST(CellTest, CellResultSerializationRoundTripsBitExactly) {
  auto config = small_cell(browser::PipelineMode::kEnergyAware);
  config.abort_rate = 0.2;  // exercise the aborted counters too
  const CellResult original = run_cell(config);
  const CellResult restored =
      deserialize_cell_result(serialize_cell_result(original));
  EXPECT_EQ(fingerprint(restored), fingerprint(original));
  EXPECT_EQ(serialize_cell_result(restored), serialize_cell_result(original));
  EXPECT_TRUE(restored.metrics.same_as(original.metrics));
  ASSERT_EQ(restored.per_ue.size(), original.per_ue.size());
  for (std::size_t i = 0; i < restored.per_ue.size(); ++i) {
    EXPECT_EQ(restored.per_ue[i].energy.to_json(),
              original.per_ue[i].energy.to_json());
  }

  EXPECT_THROW(deserialize_cell_result("torn"), std::runtime_error);
}

TEST(CellTest, CellCodecRejectsTornAndPaddedRecords) {
  auto config = small_cell(browser::PipelineMode::kEnergyAware);
  config.telemetry_tick = 7.0;  // the optional telemetry blob too
  const std::string bytes = serialize_cell_result(run_cell(config));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(deserialize_cell_result(std::string_view(bytes).substr(0, len)),
                 std::runtime_error)
        << "accepted a record truncated to " << len << " bytes";
  }
  EXPECT_THROW(deserialize_cell_result(bytes + '\0'), std::runtime_error);
}

TEST(CellTest, CellCodecRejectsOversizedUeCount) {
  const CellResult result =
      run_cell(small_cell(browser::PipelineMode::kEnergyAware));
  const std::string bytes = serialize_cell_result(result);
  // The per-UE count follows the version word and the fixed aggregates:
  // 3 x 4-byte words (version, users, channels), 10 x u64 counters,
  // mean_busy_grants, peak_busy_grants (4), mean_grant_hold, leaked_flows,
  // end_time, sim_events.
  constexpr std::size_t kCountOffset = 12 + 80 + 8 + 4 + 8 + 8 + 8 + 8;
  ASSERT_EQ(BinaryReader(std::string_view(bytes).substr(kCountOffset)).u64(),
            result.per_ue.size());
  for (const std::uint64_t count : {~std::uint64_t{0}, std::uint64_t{1} << 40}) {
    std::string corrupt = bytes.substr(0, kCountOffset);
    BinaryWriter(corrupt).u64(count);
    corrupt += bytes.substr(kCountOffset + 8);
    EXPECT_THROW(deserialize_cell_result(corrupt), std::runtime_error)
        << "count " << count;
  }
}

TEST(CellTest, CellCodecLayoutIsPinned) {
  // FNV-1a of the persisted record for the small_cell fixture, telemetry on.
  // Supervised sweeps resume from checkpoint journals written by earlier
  // builds, so these bytes must not drift: a deliberate layout change bumps
  // the record version and re-records the digests.
  const struct {
    browser::PipelineMode mode;
    std::uint64_t digest;
  } pins[] = {{browser::PipelineMode::kOriginal, 0x64df02e06d52497bULL},
              {browser::PipelineMode::kEnergyAware, 0x51a0400662db9f81ULL}};
  for (const auto& pin : pins) {
    auto config = small_cell(pin.mode);
    config.telemetry_tick = 7.0;
    EXPECT_EQ(fnv1a_64(serialize_cell_result(run_cell(config))), pin.digest)
        << "mode " << static_cast<int>(pin.mode);
  }
}

TEST(CellTest, SerializingTracedResultsIsRejected) {
  auto config = small_cell(browser::PipelineMode::kEnergyAware);
  config.users = 2;
  config.horizon = 30.0;
  config.per_ue.stack.trace = true;
  const CellResult traced = run_cell(config);
  EXPECT_THROW(serialize_cell_result(traced), std::invalid_argument);

  // In-process tiers keep traces; only the supervised tier must refuse them.
  const auto in_process = sweep(config, {2}, core::SweepExecution::serial());
  EXPECT_NE(in_process[0].per_ue[0].trace, nullptr);
  core::Supervisor supervisor;
  EXPECT_THROW(run_cell_sweep(config, {2},
                              core::SweepExecution::supervised(supervisor), {}),
               std::invalid_argument);
}

TEST(CellTest, SupervisedSweepIsBitIdenticalToInProcessSweep) {
  // The whole point of the supervision layer: forked workers, streaming
  // merge, any worker count — same bytes as the in-process BatchRunner
  // sweep.
  const auto config = small_cell(browser::PipelineMode::kOriginal);
  const std::vector<int> axis{2, 4, 6};
  core::BatchRunner runner(2);
  const auto reference =
      sweep(config, axis, core::SweepExecution::pooled(runner));

  core::SupervisorConfig sup_config;
  sup_config.workers = 2;
  core::Supervisor supervisor(sup_config);
  const auto supervised =
      sweep(config, axis, core::SweepExecution::supervised(supervisor));

  for (std::size_t i = 0; i < axis.size(); ++i) {
    EXPECT_EQ(supervised[i].users, axis[i]);
    EXPECT_EQ(serialize_cell_result(supervised[i]),
              serialize_cell_result(reference[i]))
        << "users=" << axis[i];
    EXPECT_TRUE(supervised[i].metrics.same_as(reference[i].metrics));
  }
}

TEST(CellTest, GrantExhaustionDropsSessionsAndStaysClean) {
  auto config = small_cell(browser::PipelineMode::kOriginal);
  config.users = 50;
  config.channels = 2;
  config.horizon = 60.0;
  config.per_ue.stack.trace = true;
  const CellResult result = run_cell(config);

  // 50 users on 2 grants: admission must block, and blocked sessions must
  // not leave anything behind.
  EXPECT_GT(result.dropped, 0u);
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.leaked_flows, 0u);
  if (result.grant_overcommits == 0) {
    EXPECT_LE(result.peak_busy_grants, config.channels);
  }
  EXPECT_GT(result.mean_grant_hold, 0.0);

  // Every UE's trace audits clean against its own radio timeline: no leaked
  // transfer markers, no unsettled fetches, energy reconciles.
  obs::TraceAuditor auditor;
  int audited = 0;
  ASSERT_EQ(result.per_ue.size(), static_cast<std::size_t>(config.users));
  for (const auto& ue : result.per_ue) {
    ASSERT_NE(ue.trace, nullptr);
    obs::AuditInputs inputs;
    inputs.rrc = config.per_ue.stack.rrc;
    inputs.power = config.per_ue.stack.power;
    inputs.max_retries = config.per_ue.stack.retry.max_retries;
    inputs.radio_energy = ue.energy.radio_j;
    inputs.t_end = result.end_time;
    const auto report = auditor.audit(*ue.trace, inputs);
    EXPECT_TRUE(report.ok()) << "ue " << audited << ":\n" << report.summary();
    ++audited;
  }
  EXPECT_EQ(audited, config.users);
}

TEST(CellTest, EnergyAwareAdmitsAtLeastAsManyUsersAtEqualDropTarget) {
  // Enough contention and enough sessions that the capacity gap clears the
  // run-to-run noise of a finite horizon (the bench sweeps a bigger cell).
  const std::vector<int> axis{3, 6, 9, 12, 15, 18};

  auto orig = small_cell(browser::PipelineMode::kOriginal);
  auto ea = small_cell(browser::PipelineMode::kEnergyAware);
  orig.channels = ea.channels = 3;
  orig.horizon = ea.horizon = 360.0;
  const auto orig_results = sweep(orig, axis, core::SweepExecution::serial());
  const auto ea_results = sweep(ea, axis, core::SweepExecution::serial());

  // Both drop curves are (weakly) monotone in #users...
  for (std::size_t i = 1; i < axis.size(); ++i) {
    EXPECT_GE(orig_results[i].drop_probability() + 0.02,
              orig_results[i - 1].drop_probability());
    EXPECT_GE(ea_results[i].drop_probability() + 0.02,
              ea_results[i - 1].drop_probability());
  }
  // ...and fast dormancy frees grants sooner, so the energy-aware pipeline
  // supports at least as many users at the 5 % service level (Fig 11).
  const double cap_orig =
      users_at_drop_target(axis, drops_of(orig_results), 0.05);
  const double cap_ea = users_at_drop_target(axis, drops_of(ea_results), 0.05);
  EXPECT_GE(cap_ea, cap_orig);
  // Shorter holds also show up directly in the grant ledger.
  EXPECT_LT(ea_results.back().mean_grant_hold,
            orig_results.back().mean_grant_hold);
}

TEST(CellTest, ChaosSweepOverCellScenarios) {
  // 32 seeds of aborts + request faults + RIL failures over a small cell:
  // every run must terminate (no budget blowups), keep the grant ledger
  // balanced and leak nothing, whatever the fault timing.
  // EAB_CELL_CHAOS_SEEDS trims the sweep for expensive builds — check.sh
  // replays 16 seeds under ASan to guard the session-teardown lifetimes.
  std::uint64_t seeds = 32;
  if (const char* raw = std::getenv("EAB_CELL_CHAOS_SEEDS")) {
    const long parsed = std::strtol(raw, nullptr, 10);
    if (parsed >= 1 && parsed <= 64) seeds = static_cast<std::uint64_t>(parsed);
  }
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    auto config = small_cell(seed % 2 == 0
                                 ? browser::PipelineMode::kEnergyAware
                                 : browser::PipelineMode::kOriginal);
    config.users = 4;
    config.horizon = 90.0;
    config.cell_seed = seed;
    config.abort_rate = 0.25;
    config.per_ue.stack.fault_plan.connection_loss_rate = 0.05;
    config.per_ue.stack.fault_plan.stall_rate = 0.03;
    config.per_ue.stack.fault_plan.truncate_rate = 0.05;
    config.per_ue.stack.retry.request_timeout = 4.0;  // stalls need a watchdog
    config.per_ue.stack.chaos.ril_socket_failures = seed % 3 == 0 ? 2 : 0;
    const CellResult result = run_cell(config);
    EXPECT_GT(result.offered, 0u) << "seed " << seed;
    EXPECT_EQ(result.offered,
              result.dropped + result.completed + result.aborted +
                  0u * result.users)
        << "seed " << seed;
    EXPECT_EQ(result.leaked_flows, 0u) << "seed " << seed;
  }
}

TEST(CellTest, OutageSweepSerialShardedSupervisedBitIdentical) {
  // 32 seeds of a degraded-radio cell — every UE runs its own coverage
  // process (with re-establishment failures) underneath two whole-cell
  // blackouts — and for every seed the serial run and a supervised run must
  // produce the same bytes through serialize_cell_result (radio-failure
  // counters included).
  // EAB_CELL_OUTAGE_SEEDS trims the sweep for expensive builds (ASan).
  std::uint64_t seeds = 32;
  if (const char* raw = std::getenv("EAB_CELL_OUTAGE_SEEDS")) {
    const long parsed = std::strtol(raw, nullptr, 10);
    if (parsed >= 1 && parsed <= 64) seeds = static_cast<std::uint64_t>(parsed);
  }
  radio::OutagePlan plan;
  plan.seed = 9;
  plan.count = 2;
  plan.start = 2.0;
  plan.period = 25.0;
  plan.duration = 2.0;
  plan.reestablish_fail_rate = 0.4;

  core::SupervisorConfig sup_config;
  sup_config.workers = 2;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const auto mode = seed % 2 == 0 ? browser::PipelineMode::kEnergyAware
                                    : browser::PipelineMode::kOriginal;
    CellConfig config = small_cell(mode);
    config.per_ue = core::ScenarioBuilder(mode).outage(plan).build();
    config.users = 5;
    config.horizon = 60.0;
    config.cell_seed = 1000 + seed;
    config.cell_outage_count = 2;
    config.cell_outage_start = 10.0;
    config.cell_outage_period = 25.0;
    config.cell_outage_duration = 3.0;

    const CellResult serial = run_cell(config);
    EXPECT_GT(serial.offered, 0u) << "seed " << seed;
    EXPECT_EQ(serial.leaked_flows, 0u) << "seed " << seed;
    EXPECT_GT(serial.cell_outages, 0u) << "seed " << seed;
    const std::string reference = serialize_cell_result(serial);

    core::Supervisor supervisor(sup_config);
    const auto supervised =
        sweep(config, {config.users},
              core::SweepExecution::supervised(supervisor));
    EXPECT_EQ(serialize_cell_result(supervised[0]), reference)
        << "seed " << seed << " supervised";
  }
}

TEST(CellTest, RejectsContradictoryConfigs) {
  const auto good = small_cell(browser::PipelineMode::kOriginal);

  auto bad = good;
  bad.specs.clear();
  EXPECT_THROW(run_cell(bad), std::invalid_argument);

  bad = good;
  bad.users = 0;
  EXPECT_THROW(run_cell(bad), std::invalid_argument);

  bad = good;
  bad.channels = 0;
  EXPECT_THROW(run_cell(bad), std::invalid_argument);

  bad = good;
  bad.mean_think_time = 0;
  EXPECT_THROW(run_cell(bad), std::invalid_argument);

  bad = good;
  bad.abort_rate = 1.5;
  EXPECT_THROW(run_cell(bad), std::invalid_argument);

  bad = good;
  bad.sim_event_budget = 0;
  EXPECT_THROW(run_cell(bad), std::invalid_argument);

  // One event queue: sim_shards accepts only 1, and never ignores another
  // value silently.
  for (int shards : {0, 2, 256}) {
    bad = good;
    bad.sim_shards = shards;
    EXPECT_THROW(run_cell(bad), std::invalid_argument) << "shards=" << shards;
  }

  // The per-UE template goes through the same ScenarioBuilder validation as
  // every single-UE experiment: a stall plan without a watchdog is rejected
  // before any simulation starts.
  bad = good;
  bad.per_ue.stack.fault_plan.stall_rate = 0.1;
  bad.per_ue.stack.retry.request_timeout = 0.0;
  EXPECT_THROW(run_cell(bad), std::invalid_argument);
}

// --- service-time satellite ------------------------------------------------

TEST(ServiceTimeTest, MatchesDirectSingleLoads) {
  // With the default sampling config (one sample per spec, seed 1) the
  // measured vector must equal the historical per-spec sweep exactly —
  // this is what keeps the default-mode Fig 11 output byte-identical.
  const auto specs = small_mix();
  core::BatchRunner runner(1);
  const capacity::CapacityConfig config;
  const auto times = measure_service_times(
      specs, browser::PipelineMode::kEnergyAware, config, runner);
  ASSERT_EQ(times.size(), specs.size());
  // Default 20 s reading window and seed 1, as measure_service_times uses.
  const auto direct_path =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto direct = direct_path.run_single(specs[i]);
    EXPECT_EQ(times[i], direct.metrics.transmission_time()) << specs[i].site;
  }
}

TEST(ServiceTimeTest, MultiSampleUsesDerivedSeeds) {
  const auto specs = small_mix();
  core::BatchRunner runner(1);
  capacity::CapacityConfig config;
  config.service_samples_per_spec = 3;
  const auto times = measure_service_times(
      specs, browser::PipelineMode::kOriginal, config, runner);
  ASSERT_EQ(times.size(), specs.size() * 3);
  // Sample 0 of each spec is the seed-1 historical load; further samples
  // use derived seeds and may legitimately coincide in transmission time,
  // but the sweep itself must be reproducible.
  const auto again = measure_service_times(
      specs, browser::PipelineMode::kOriginal, config, runner);
  EXPECT_EQ(times, again);
}

TEST(ServiceTimeTest, QuantileEstimatorIsDeterministic) {
  const std::vector<Seconds> samples{4.0, 1.0, 3.0, 2.0};
  const auto q = service_time_quantiles(samples, {0.0, 0.5, 1.0});
  ASSERT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_DOUBLE_EQ(q[1], 2.5);
  EXPECT_DOUBLE_EQ(q[2], 4.0);
  EXPECT_THROW(service_time_quantiles({}, {0.5}), std::invalid_argument);
  EXPECT_THROW(service_time_quantiles(samples, {1.5}), std::invalid_argument);
}

TEST(ServiceTimeTest, CheckedInQuantilesRegenerateBitIdentically) {
  // Reference service-time quantiles for the mobile benchmark at the
  // default sampling config (seed 1, one sample per spec).  Regenerated
  // with %.17g: any change to the stack that moves a transmission time —
  // however slightly — must update these on purpose, never silently.
  core::BatchRunner runner(0);
  const capacity::CapacityConfig config;
  const std::vector<double> probs{0.1, 0.5, 0.9};

  const auto orig_q = service_time_quantiles(
      measure_service_times(corpus::mobile_benchmark(),
                            browser::PipelineMode::kOriginal, config, runner),
      probs);
  const auto ea_q = service_time_quantiles(
      measure_service_times(corpus::mobile_benchmark(),
                            browser::PipelineMode::kEnergyAware, config,
                            runner),
      probs);

  const std::vector<double> expected_orig{
      6.88814429352678470, 7.42266199720982378, 8.32310692745535619};
  const std::vector<double> expected_ea{
      6.29050456138392899, 6.65449312165178597, 7.03782138392857082};
  ASSERT_EQ(orig_q.size(), expected_orig.size());
  ASSERT_EQ(ea_q.size(), expected_ea.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(orig_q[i], expected_orig[i])
        << "original q" << probs[i] << " is " << std::scientific << orig_q[i];
    EXPECT_EQ(ea_q[i], expected_ea[i])
        << "energy-aware q" << probs[i] << " is " << std::scientific
        << ea_q[i];
  }
}

}  // namespace
}  // namespace eab::cell
