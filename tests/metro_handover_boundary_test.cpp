// Handover robustness: force a DCH hard handover (the production
// metro::move_ue, not a re-implementation) at every fetch-settle boundary
// of a reference session — plus idle instants and a handover into a cell
// that is dark for the whole run — under both pipelines, and assert the
// moved session leaves no residue in EITHER cell: no live flows, no leaked
// RRC transfer markers, a settled grant ledger on both sides, and a trace
// the cross-layer auditor accepts (handover signalling energy included).
// Mirrors radio_outage_boundary_test.cpp, which does the same for RLF.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cell/cell.hpp"
#include "cell/cell_sim.hpp"
#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"
#include "metro/metro.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "radio/rrc.hpp"
#include "sim/simulator.hpp"
#include "support/boundary_matrix.hpp"
#include "util/rng.hpp"

namespace eab::metro {
namespace {

cell::CellConfig rig_config(browser::PipelineMode mode, std::uint64_t seed,
                            bool dark) {
  cell::CellConfig config;
  config.per_ue = core::ScenarioBuilder(mode).build();
  config.per_ue.stack.trace = true;
  config.specs = {corpus::mobile_benchmark().front()};
  config.users = 1;
  config.channels = 1;
  config.mean_think_time = 5.0;
  config.horizon = 60.0;
  config.cell_seed = seed;
  if (dark) {
    // One window covering the whole run.  The knob is set on BOTH cell
    // configs (as run_metro's shared template would) so the UE gets its
    // outage injector; only the target cell actually schedules the window.
    config.cell_outage_count = 1;
    config.cell_outage_start = 0.0;
    config.cell_outage_duration = 3600.0;
    config.cell_outage_period = 7200.0;
  }
  return config;
}

/// Two cells, one UE homed in cell 0, driven by the normal cell session
/// process — the minimal metro.
struct MetroRig {
  cell::CellConfig config0;
  cell::CellConfig config1;
  sim::Simulator sim;
  cell::CellSim cell0;
  cell::CellSim cell1;
  std::unique_ptr<cell::CellUe> ue;
  std::vector<MoveOutcome> outcomes;

  explicit MetroRig(browser::PipelineMode mode, bool dark_target = false)
      : config0(rig_config(mode, 11, dark_target)),
        config1(rig_config(mode, 12, dark_target)),
        cell0(sim, config0, 0, 0),
        cell1(sim, config1, 1, 0) {
    ue = cell0.make_ue(0, derive_seed(config0.cell_seed, 0));
    cell0.schedule_first_arrival(*ue);
    if (dark_target) cell1.schedule_cell_outages();
  }

  /// Schedules a production move to the other cell at `t`.
  void move_at(Seconds t, HandoverPolicy policy = HandoverPolicy::kHard) {
    sim.schedule_at(t, [this, policy] {
      cell::CellSim& dst = ue->cell == &cell0 ? cell1 : cell0;
      outcomes.push_back(move_ue(*ue, dst, policy));
    });
  }

  int count(MoveOutcome outcome) const {
    return static_cast<int>(
        std::count(outcomes.begin(), outcomes.end(), outcome));
  }
};

/// Residue-free in both cells, books closed, audit-clean.
void expect_clean(MetroRig& rig, const char* context) {
  EXPECT_EQ(rig.ue->grant, cell::Grant::kFree) << context;
  EXPECT_EQ(rig.ue->link.active_flows(), 0u) << context;
  EXPECT_EQ(rig.ue->rrc.active_transfers(), 0) << context;
  EXPECT_EQ(rig.ue->stats.offered,
            rig.ue->stats.admitted + rig.ue->stats.dropped)
      << context;
  EXPECT_EQ(rig.ue->stats.admitted,
            rig.ue->stats.completed + rig.ue->stats.aborted)
      << context;

  const Seconds t_end = rig.sim.now();
  const cell::CellResult r0 = rig.cell0.finalize(t_end, rig.sim.fired_count());
  const cell::CellResult r1 = rig.cell1.finalize(t_end, rig.sim.fired_count());
  EXPECT_EQ(r0.leaked_flows + r1.leaked_flows, 0u) << context;
  EXPECT_EQ(r0.grant_overcommits, 0u) << context;
  EXPECT_EQ(r1.grant_overcommits, 0u) << context;

  ASSERT_NE(rig.ue->trace, nullptr) << context;
  const obs::AuditReport report = obs::TraceAuditor().audit(
      *rig.ue->trace,
      core::make_audit_inputs(rig.config0.per_ue.stack,
                              rig.ue->rrc.power().energy(0.0, t_end), t_end));
  EXPECT_TRUE(report.ok()) << context << "\n" << report.summary();
}

/// Move instants for one mode: one likely-idle early instant, one instant
/// halfway through the reference workload, and a hair after every distinct
/// fetch-settle of a clean reference run.
std::vector<Seconds> boundaries_for(browser::PipelineMode mode) {
  MetroRig reference(mode);
  reference.sim.run();
  return test::settle_instants(*reference.ue->trace,
                               {0.5, reference.sim.now() * 0.5});
}

TEST(MetroHandoverBoundaryTest, MoveAtEveryFetchSettleLeavesNoResidue) {
  for (const browser::PipelineMode mode :
       {browser::PipelineMode::kOriginal,
        browser::PipelineMode::kEnergyAware}) {
    const std::vector<Seconds> boundaries = boundaries_for(mode);
    ASSERT_GT(boundaries.size(), 2u);
    int handovers = 0;
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
      MetroRig rig(mode);
      rig.move_at(boundaries[i]);
      rig.sim.run();
      ASSERT_EQ(rig.outcomes.size(), 1u);
      handovers += rig.count(MoveOutcome::kHandover);
      const std::string context =
          std::string(mode == browser::PipelineMode::kOriginal ? "orig"
                                                               : "ea") +
          " boundary " + std::to_string(i);
      expect_clean(rig, context.c_str());
      if (rig.outcomes[0] == MoveOutcome::kHandover) {
        // A real hard handover must run the signalling exchange exactly
        // once and land the UE in the other cell with its grant settled.
        EXPECT_EQ(rig.ue->rrc.handovers(), 1) << context;
        EXPECT_EQ(rig.ue->cell, &rig.cell1) << context;
      }
    }
    // The settle boundaries catch the radio in stable DCH: the sweep must
    // actually exercise the handover path, not just reselections.
    EXPECT_GT(handovers, 0) << "mode=" << static_cast<int>(mode);
  }
}

TEST(MetroHandoverBoundaryTest, InstantPolicySkipsTheSignallingExchange) {
  for (const browser::PipelineMode mode :
       {browser::PipelineMode::kOriginal,
        browser::PipelineMode::kEnergyAware}) {
    const std::vector<Seconds> boundaries = boundaries_for(mode);
    int handovers = 0;
    for (const Seconds at : boundaries) {
      MetroRig rig(mode);
      rig.move_at(at, HandoverPolicy::kInstant);
      rig.sim.run();
      handovers += rig.count(MoveOutcome::kHandover);
      EXPECT_EQ(rig.ue->rrc.handovers(), 0);
      for (const obs::TraceEvent& e : rig.ue->trace->events()) {
        EXPECT_NE(e.kind, obs::TraceKind::kRrcHandoverStart);
      }
      expect_clean(rig, "instant");
    }
    EXPECT_GT(handovers, 0);
  }
}

TEST(MetroHandoverBoundaryTest, HandoverIntoDarkCellDropsTheSession) {
  for (const browser::PipelineMode mode :
       {browser::PipelineMode::kOriginal,
        browser::PipelineMode::kEnergyAware}) {
    const std::vector<Seconds> boundaries = boundaries_for(mode);
    int drops = 0;
    for (const Seconds at : boundaries) {
      MetroRig rig(mode, /*dark_target=*/true);
      rig.move_at(at);
      rig.sim.run();
      ASSERT_EQ(rig.outcomes.size(), 1u);
      // The target never has a free grant (it is dark), so a DCH mover is
      // refused and its load dies at the boundary; IDLE movers re-camp
      // into the darkness and lose coverage instead.
      EXPECT_EQ(rig.count(MoveOutcome::kHandover), 0);
      drops += rig.count(MoveOutcome::kHandoverDrop);
      EXPECT_EQ(rig.ue->cell, &rig.cell1);
      EXPECT_EQ(rig.ue->grant, cell::Grant::kFree);
      EXPECT_EQ(rig.ue->link.active_flows(), 0u);
      EXPECT_EQ(rig.ue->rrc.active_transfers(), 0);
      if (rig.outcomes[0] == MoveOutcome::kHandoverDrop) {
        EXPECT_GT(rig.ue->stats.aborted, 0);
      }
    }
    EXPECT_GT(drops, 0) << "mode=" << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace eab::metro
