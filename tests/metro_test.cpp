// Metro layer: the 1-cell zero-mobility metro reproduces run_cell byte for
// byte, metro runs are execution-tier-invariant, the mobility ledger
// conserves UEs and grants, the hotspot apportionment is deterministic, and
// traced mobility runs audit clean per UE.
#include "metro/metro.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "cell/cell.hpp"
#include "core/batch.hpp"
#include "core/scenario.hpp"
#include "core/supervisor.hpp"
#include "corpus/page_spec.hpp"
#include "obs/audit.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace eab::metro {
namespace {

std::vector<corpus::PageSpec> small_mix() {
  const auto all = corpus::mobile_benchmark();
  return {all.begin(), all.begin() + 2};
}

cell::CellConfig small_cell(browser::PipelineMode mode) {
  cell::CellConfig config;
  config.per_ue = core::ScenarioBuilder(mode).build();
  config.specs = small_mix();
  config.users = 6;
  config.channels = 2;
  config.horizon = 120.0;
  config.cell_seed = 7;
  return config;
}

MetroConfig small_metro(browser::PipelineMode mode, int w = 2, int h = 2) {
  return MetroBuilder()
      .cell(small_cell(mode))
      .grid(w, h)
      .mean_dwell(20.0)
      .build();
}

TEST(MetroTest, OneCellZeroMobilityIsByteIdenticalToRunCell) {
  const cell::CellConfig config =
      small_cell(browser::PipelineMode::kEnergyAware);
  const cell::CellResult reference = cell::run_cell(config);
  const MetroResult metro =
      run_metro(MetroBuilder().cell(config).grid(1, 1).build());

  ASSERT_EQ(metro.cells.size(), 1u);
  EXPECT_EQ(cell::serialize_cell_result(metro.cells[0]),
            cell::serialize_cell_result(reference));
  EXPECT_EQ(metro.total_users, config.users);
  EXPECT_EQ(metro.offered, reference.offered);
  EXPECT_EQ(metro.sim_events, reference.sim_events);
  EXPECT_EQ(metro.reselects, 0u);
  EXPECT_EQ(metro.handovers, 0u);
}

TEST(MetroTest, OneCellTelemetryAndOutagesStillMatchRunCell) {
  // The hard variants of the identity: the shared TickCoordinator must end
  // the tick chain exactly where run_cell's does, and whole-cell outage
  // scheduling must replay at the same instants.
  cell::CellConfig config = small_cell(browser::PipelineMode::kOriginal);
  config.telemetry_tick = 7.0;
  config.cell_outage_count = 2;
  config.cell_outage_start = 20.0;
  config.cell_outage_period = 40.0;
  config.cell_outage_duration = 4.0;
  const cell::CellResult reference = cell::run_cell(config);
  const MetroResult metro =
      run_metro(MetroBuilder().cell(config).grid(1, 1).build());

  ASSERT_EQ(metro.cells.size(), 1u);
  EXPECT_EQ(cell::serialize_cell_result(metro.cells[0]),
            cell::serialize_cell_result(reference));
  EXPECT_GT(reference.cell_outages, 0u);
}

/// Bit-exact comparison surface minus the metro-global quantities: a metro
/// cell reports the whole run's fired count as sim_events and measures its
/// energy windows out to the METRO's workload end (an idle camping tail
/// past the cell's own last event), so only window-independent statistics
/// can match a standalone run exactly.
std::string workload_fingerprint(const cell::CellResult& r) {
  std::string out = std::to_string(r.offered) + "/" +
                    std::to_string(r.dropped) + "/" +
                    std::to_string(r.completed) + "/" +
                    std::to_string(r.aborted) + "/" +
                    std::to_string(r.grant_overcommits) + "/" +
                    std::to_string(r.peak_busy_grants);
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "/%.17g", r.mean_grant_hold);
  return out + buffer;
}

TEST(MetroTest, ZeroDwellMultiCellEqualsIndependentCells) {
  // With mobility off a metro is exactly M independent cells in one
  // simulator: cell c must reproduce run_cell on the cell-c config in
  // every window-independent statistic, and the metro's single workload
  // end must be exactly the max of the standalone ends.
  const cell::CellConfig base = small_cell(browser::PipelineMode::kOriginal);
  const MetroResult metro =
      run_metro(MetroBuilder().cell(base).grid(3, 1).build());
  ASSERT_EQ(metro.cells.size(), 3u);
  Seconds max_end = 0;
  for (int c = 0; c < 3; ++c) {
    cell::CellConfig config = base;
    config.cell_seed = base.cell_seed + static_cast<std::uint64_t>(c);
    const cell::CellResult standalone = cell::run_cell(config);
    EXPECT_EQ(workload_fingerprint(metro.cells[c]),
              workload_fingerprint(standalone))
        << "cell " << c;
    max_end = std::max(max_end, standalone.end_time);
  }
  EXPECT_EQ(metro.end_time, max_end);
  for (const cell::CellResult& cr : metro.cells) {
    EXPECT_EQ(cr.end_time, max_end);
  }
}

TEST(MetroTest, SweepTiersAreBitIdentical) {
  const MetroConfig base = small_metro(browser::PipelineMode::kOriginal);
  const std::vector<int> axis{2, 4};

  std::vector<std::string> serial;
  run_metro_sweep(base, axis, core::SweepExecution::serial(),
                  [&](std::size_t i, const MetroResult& r) {
                    EXPECT_EQ(i, serial.size());
                    serial.push_back(serialize_metro_result(r));
                  });
  ASSERT_EQ(serial.size(), axis.size());

  core::BatchRunner runner(2);
  std::vector<std::string> pooled;
  run_metro_sweep(base, axis, core::SweepExecution::pooled(runner),
                  [&](std::size_t i, const MetroResult& r) {
                    EXPECT_EQ(i, pooled.size());
                    pooled.push_back(serialize_metro_result(r));
                  });
  EXPECT_EQ(pooled, serial);

  core::SupervisorConfig sup_config;
  sup_config.workers = 2;
  core::Supervisor supervisor(sup_config);
  std::vector<std::string> supervised;
  const core::SupervisorReport report =
      run_metro_sweep(base, axis, core::SweepExecution::supervised(supervisor),
                      [&](std::size_t i, const MetroResult& r) {
                        EXPECT_EQ(i, supervised.size());
                        supervised.push_back(serialize_metro_result(r));
                      });
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(supervised, serial);
}

TEST(MetroTest, MobilityLedgerConserves) {
  // Heavy churn: small dwell against 120 s horizon, contended grants.
  MetroConfig config = small_metro(browser::PipelineMode::kEnergyAware, 3, 2);
  config.cell.users = 8;
  config.cell.channels = 2;
  config.mean_dwell = 10.0;
  const MetroResult result = run_metro(config);

  EXPECT_EQ(result.total_users,
            std::accumulate(result.home_users.begin(),
                            result.home_users.end(), 0));
  EXPECT_EQ(result.total_users, config.cell.users * 6);

  // Every move out is a move in somewhere; the aggregates are the per-cell
  // sums on both sides.
  std::uint64_t reselects_in = 0, reselects_out = 0;
  std::uint64_t handovers_in = 0, handovers_out = 0, drops = 0;
  for (const MetroCellStats& s : result.mobility) {
    reselects_in += s.reselects_in;
    reselects_out += s.reselects_out;
    handovers_in += s.handovers_in;
    handovers_out += s.handovers_out;
    drops += s.handover_drops;
  }
  EXPECT_EQ(reselects_in, result.reselects);
  EXPECT_EQ(reselects_out, result.reselects);
  EXPECT_EQ(handovers_in, result.handovers);
  EXPECT_EQ(handovers_out, result.handovers);
  EXPECT_EQ(drops, result.handover_drops);
  EXPECT_GT(result.reselects, 0u);
  EXPECT_GT(result.handovers, 0u);

  // Session accounting still closes under churn, and no cell leaks flows.
  std::uint64_t offered = 0;
  for (const cell::CellResult& cr : result.cells) {
    offered += cr.offered;
    EXPECT_EQ(cr.leaked_flows, 0u);
  }
  EXPECT_EQ(offered, result.offered);
  EXPECT_GT(result.completed, 0u);
}

TEST(MetroTest, MobilitySeedSweepStaysClean) {
  // Churn across many mobility schedules: whatever the seed puts a move
  // event against (mid-fetch, mid-signalling, mid-release), every run must
  // terminate, keep the mobility ledger balanced and leak nothing.
  // EAB_METRO_SWEEP_SEEDS trims the sweep for expensive builds — check.sh
  // replays 16 seeds under ASan to guard the handover-teardown lifetimes.
  std::uint64_t seeds = 16;
  if (const char* raw = std::getenv("EAB_METRO_SWEEP_SEEDS")) {
    const long parsed = std::strtol(raw, nullptr, 10);
    if (parsed >= 1 && parsed <= 64) seeds = static_cast<std::uint64_t>(parsed);
  }
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    MetroConfig config = small_metro(seed % 2 == 0
                                         ? browser::PipelineMode::kEnergyAware
                                         : browser::PipelineMode::kOriginal);
    config.cell.users = 4;
    config.cell.horizon = 60.0;
    config.cell.cell_seed = seed;
    config.mean_dwell = 8.0;
    config.hotspot = 1.0;
    config.policy =
        seed % 3 == 0 ? HandoverPolicy::kInstant : HandoverPolicy::kHard;
    const MetroResult result = run_metro(config);

    std::uint64_t moves_in = 0, moves_out = 0, offered = 0;
    for (std::size_t c = 0; c < result.cells.size(); ++c) {
      const MetroCellStats& s = result.mobility[c];
      moves_in += s.reselects_in + s.handovers_in;
      moves_out += s.reselects_out + s.handovers_out;
      offered += result.cells[c].offered;
      EXPECT_EQ(result.cells[c].leaked_flows, 0u) << "seed " << seed;
    }
    EXPECT_EQ(moves_in, moves_out) << "seed " << seed;
    EXPECT_EQ(moves_in, result.reselects + result.handovers)
        << "seed " << seed;
    EXPECT_EQ(offered, result.offered) << "seed " << seed;
    EXPECT_EQ(result.offered,
              result.dropped + result.completed + result.aborted)
        << "seed " << seed;
  }
}

TEST(MetroTest, HotspotApportionmentIsSkewedAndDeterministic) {
  MetroConfig config = small_metro(browser::PipelineMode::kOriginal, 4, 2);
  config.mean_dwell = 0;
  config.hotspot = 8.0;
  config.cell.horizon = 30.0;
  const MetroResult a = run_metro(config);
  const MetroResult b = run_metro(config);
  EXPECT_EQ(a.home_users, b.home_users);
  EXPECT_EQ(std::accumulate(a.home_users.begin(), a.home_users.end(), 0),
            config.cell.users * 8);
  const auto [lo, hi] =
      std::minmax_element(a.home_users.begin(), a.home_users.end());
  EXPECT_LT(*lo, *hi) << "hotspot=8 should skew the home distribution";
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].users, a.home_users[c]);
  }
}

TEST(MetroTest, SerializeRoundTripsAndRejectsGarbage) {
  const MetroResult result =
      run_metro(small_metro(browser::PipelineMode::kEnergyAware));
  const std::string bytes = serialize_metro_result(result);
  EXPECT_EQ(serialize_metro_result(deserialize_metro_result(bytes)), bytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        deserialize_metro_result(std::string_view(bytes).substr(0, len)),
        std::runtime_error)
        << "accepted a record truncated to " << len << " bytes";
  }
  EXPECT_THROW(deserialize_metro_result(bytes + '\0'), std::runtime_error);
  EXPECT_THROW(deserialize_metro_result("torn"), std::runtime_error);
}

TEST(MetroTest, MetroCodecRejectsOversizedCellCount) {
  const MetroResult result =
      run_metro(small_metro(browser::PipelineMode::kEnergyAware));
  const std::string bytes = serialize_metro_result(result);
  // The cell count follows the version word, grid_w, grid_h, total_users,
  // 7 x u64 counters, end_time and sim_events.
  constexpr std::size_t kCountOffset = 16 + 56 + 8 + 8;
  ASSERT_EQ(BinaryReader(std::string_view(bytes).substr(kCountOffset)).u64(),
            result.cells.size());
  for (const std::uint64_t count : {~std::uint64_t{0}, std::uint64_t{1} << 40}) {
    std::string corrupt = bytes.substr(0, kCountOffset);
    BinaryWriter(corrupt).u64(count);
    corrupt += bytes.substr(kCountOffset + 8);
    EXPECT_THROW(deserialize_metro_result(corrupt), std::runtime_error)
        << "count " << count;
  }
}

TEST(MetroTest, MetroCodecLayoutIsPinned) {
  // FNV-1a of the persisted record for the small_metro fixture (2x2).
  // Supervised sweeps resume from checkpoint journals written by earlier
  // builds, so these bytes must not drift: a deliberate layout change bumps
  // the record version and re-records the digests.
  const struct {
    browser::PipelineMode mode;
    std::uint64_t digest;
  } pins[] = {{browser::PipelineMode::kOriginal, 0xa42746917f210808ULL},
              {browser::PipelineMode::kEnergyAware, 0x4114ab44a6a67243ULL}};
  for (const auto& pin : pins) {
    EXPECT_EQ(fnv1a_64(serialize_metro_result(run_metro(small_metro(pin.mode)))),
              pin.digest)
        << "mode " << static_cast<int>(pin.mode);
  }
}

TEST(MetroTest, BuilderValidatesAtBuild) {
  const cell::CellConfig cell = small_cell(browser::PipelineMode::kOriginal);
  EXPECT_THROW(MetroBuilder().cell(cell).grid(0, 3).build(),
               std::invalid_argument);
  EXPECT_THROW(MetroBuilder().cell(cell).grid(17, 16).build(),
               std::invalid_argument);  // 272 cells > the 256-cell bound
  EXPECT_THROW(MetroBuilder().cell(cell).mean_dwell(-1.0).build(),
               std::invalid_argument);
  EXPECT_THROW(MetroBuilder().cell(cell).hotspot(-0.5).build(),
               std::invalid_argument);
  cell::CellConfig bad = cell;
  bad.users = 0;  // the template goes through the one cell validation path
  EXPECT_THROW(MetroBuilder().cell(bad).build(), std::invalid_argument);
  bad = cell;
  bad.sim_shards = 2;  // one event queue: only 1 is legal
  EXPECT_THROW(MetroBuilder().cell(bad).build(), std::invalid_argument);

  core::Supervisor supervisor;
  cell::CellConfig traced = cell;
  traced.per_ue.stack.trace = true;
  EXPECT_THROW(
      run_metro_sweep(MetroBuilder().cell(traced).build(), {2},
                      core::SweepExecution::supervised(supervisor), {}),
      std::invalid_argument);
}

TEST(MetroTest, TracedMobilityRunAuditsCleanPerUe) {
  MetroConfig config = small_metro(browser::PipelineMode::kEnergyAware, 2, 1);
  config.cell.users = 4;
  config.cell.channels = 2;
  config.mean_dwell = 12.0;
  config.cell.horizon = 90.0;
  config.cell.per_ue.stack.trace = true;
  const MetroResult result = run_metro(config);
  EXPECT_GT(result.reselects + result.handovers, 0u);

  obs::TraceAuditor auditor;
  int audited = 0;
  for (const cell::CellResult& cr : result.cells) {
    for (const cell::UeStats& ue : cr.per_ue) {
      ASSERT_NE(ue.trace, nullptr);
      obs::AuditInputs inputs;
      inputs.rrc = config.cell.per_ue.stack.rrc;
      inputs.power = config.cell.per_ue.stack.power;
      inputs.max_retries = config.cell.per_ue.stack.retry.max_retries;
      inputs.radio_energy = ue.energy.radio_j;
      inputs.t_end = result.end_time;
      const auto report = auditor.audit(*ue.trace, inputs);
      EXPECT_TRUE(report.ok()) << "ue " << audited << ":\n"
                               << report.summary();
      ++audited;
    }
  }
  EXPECT_EQ(audited, result.total_users);
}

TEST(MetroTest, InstantPolicyMigratesWithoutSignalling) {
  MetroConfig config = small_metro(browser::PipelineMode::kEnergyAware, 2, 1);
  config.cell.users = 8;
  config.cell.channels = 3;
  config.mean_dwell = 8.0;
  config.policy = HandoverPolicy::kInstant;
  const MetroResult result = run_metro(config);
  EXPECT_GT(result.handovers, 0u);
  // No handover exchange means no handover energy and no paused flows:
  // the run still closes its books.
  for (const cell::CellResult& cr : result.cells) {
    EXPECT_EQ(cr.leaked_flows, 0u);
  }
  EXPECT_STREQ(to_string(HandoverPolicy::kInstant), "instant");
  EXPECT_STREQ(to_string(HandoverPolicy::kHard), "hard");
}

TEST(MetroTest, UsersAtDropTargetInterpolates) {
  using cell::users_at_drop_target;  // the one interpolation, shared with cell
  const std::vector<int> axis{10, 20, 30};
  EXPECT_DOUBLE_EQ(users_at_drop_target(axis, {0.0, 0.05, 0.2}, 0.05), 20.0);
  EXPECT_NEAR(users_at_drop_target(axis, {0.0, 0.02, 0.10}, 0.05), 23.75,
              1e-9);
  EXPECT_DOUBLE_EQ(users_at_drop_target(axis, {0.1, 0.2, 0.3}, 0.05), 10.0);
  EXPECT_DOUBLE_EQ(users_at_drop_target(axis, {0.0, 0.0, 0.0}, 0.05), 30.0);
  EXPECT_THROW(users_at_drop_target({}, {}, 0.05), std::invalid_argument);
}

}  // namespace
}  // namespace eab::metro
