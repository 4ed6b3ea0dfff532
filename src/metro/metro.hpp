// Metro-scale multi-cell simulation with mobility and handover.
//
// M cells (a grid_w x grid_h grid) run in ONE sim::Simulator with one event
// queue — each cell is a cell::CellSim over the UEs currently attached to
// it, and every event of every cell fires in the one global (time, order)
// sequence, so serial and supervised sweeps stay byte-identical.
//
// Mobility: each UE follows a seed-derived waypoint walk over the grid —
// exponential dwell (mean_dwell) in the current cell, then a uniform step
// to one of its 4-neighbors.  What a move costs depends on what the radio
// is doing (DESIGN.md "Metro layer"):
//
//   - IDLE/FACH (no DCH grant): cell reselection.  Cheap — the UE re-camps
//     and re-registers with the target scheduler; no radio exchange.  A UE
//     holding only an admission *reservation* re-reserves in the target if
//     a grant is free, else the session is dropped mid-load.
//   - stable DCH with a grant (HandoverPolicy::kHard): hard handover.  The
//     target must admit the grant (admission-or-drop); on admit the RRC
//     context moves in one signalling exchange (handover_delay at
//     handover_power, Table-5 calibrated), during which the UE's flows are
//     paused and then re-routed through the target cell's scheduler.  On
//     drop the load is aborted and the connection released.
//   - stable DCH under HandoverPolicy::kInstant: the idealized baseline —
//     the grant migrates with no radio exchange and no flow interruption
//     (admission-or-drop still applies).  bench_metro compares the two
//     policies to price handover signalling.
//   - DCH but the radio is mid-signalling, fading or releasing: the move
//     degenerates to a reselection; the RRC machine reconciles with the
//     target's grant pool through its normal state-change hooks when the
//     signalling settles (a re-established context force-acquires, a
//     completed release no-ops).
//
// Handover is structurally distinct from radio-link failure: a handover is
// a *commanded* transfer while both cells are reachable (bounded cost,
// context preserved), RLF is an uncommanded loss (detection window,
// OUT_OF_SERVICE camp, re-establishment ladder).  Whole-cell outages
// interact with mobility naturally: moving out of a dark cell restores
// coverage, moving into one loses it.
//
// Load imbalance: home cells are drawn from a hotspot-weighted largest-
// remainder apportionment (hotspot = 0 is uniform), so cells start
// unevenly loaded and mobility churns the imbalance.
//
// Determinism: per-cell seeds are cell_seed + c; UE seeds derive from
// their home cell exactly as in run_cell; mobility draws come from a
// dedicated per-UE sub-stream.  A 1-cell, zero-mobility metro is
// byte-identical to cell::run_cell on the same config (check.sh gates
// this), and metro sweeps are bit-identical in process and supervised, at
// any thread or worker count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cell/cell.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace eab::cell {
struct CellUe;
class CellSim;
}  // namespace eab::cell

namespace eab::metro {

/// What a move costs for a UE holding a DCH grant.
enum class HandoverPolicy {
  /// Hard handover: one RRC signalling exchange (handover_delay at
  /// handover_power), flows paused across it.  The realistic default.
  kHard,
  /// Idealized baseline: the grant migrates instantly with no radio
  /// exchange (admission-or-drop still applies).  Prices the signalling.
  kInstant,
};

const char* to_string(HandoverPolicy policy);

/// One metro: a cell grid, a mobility process, a handover policy.
struct MetroConfig {
  /// Per-cell template.  `cell.users` is the MEAN number of UEs homed per
  /// cell (the hotspot distribution apportions users * grid_w * grid_h
  /// across cells); `cell.cell_seed` seeds cell c as cell_seed + c, so a
  /// 1-cell metro reproduces run_cell exactly.
  cell::CellConfig cell;
  int grid_w = 1;
  int grid_h = 1;
  /// Mean exponential dwell time before a UE steps to a neighbor cell.
  /// 0 (the default) disables mobility entirely: no move events are
  /// scheduled and the run is bit-identical to independent cells.
  Seconds mean_dwell = 0;
  /// Home-cell load imbalance: cell weights are 1 + hotspot * u_c with u_c
  /// drawn uniformly per cell from the metro seed.  0 = uniform homes.
  double hotspot = 0;
  HandoverPolicy policy = HandoverPolicy::kHard;
};

/// Per-cell mobility accounting.
struct MetroCellStats {
  std::uint64_t reselects_in = 0;   ///< grant-less moves into this cell
  std::uint64_t reselects_out = 0;
  std::uint64_t handovers_in = 0;   ///< grant-carrying moves admitted here
  std::uint64_t handovers_out = 0;
  std::uint64_t handover_drops = 0; ///< moves this cell refused (no grant)
};

/// Results of one metro run.
struct MetroResult {
  int grid_w = 0;
  int grid_h = 0;
  int total_users = 0;
  std::vector<int> home_users;          ///< per cell, apportioned
  std::vector<cell::CellResult> cells;  ///< per cell, home-UE aggregation
  std::vector<MetroCellStats> mobility; ///< per cell
  std::uint64_t reselects = 0;
  std::uint64_t handovers = 0;
  std::uint64_t handover_drops = 0;
  // Session aggregates over all cells.
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  Seconds end_time = 0;
  std::uint64_t sim_events = 0;
  obs::MetricsRegistry metrics;

  double drop_probability() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(dropped) /
                              static_cast<double>(offered);
  }
};

/// Validates a MetroConfig (the per-cell template goes through
/// cell::validate_cell_config — one validation path whether a cell is
/// built standalone or as a metro member).  Throws std::invalid_argument.
void validate_metro_config(const MetroConfig& config);

/// Fluent builder mirroring core::ScenarioBuilder: all contradictory-knob
/// validation happens at build(), which returns a config run_metro accepts
/// as-is.
class MetroBuilder {
 public:
  MetroBuilder& grid(int w, int h) {
    config_.grid_w = w;
    config_.grid_h = h;
    return *this;
  }
  MetroBuilder& cell(cell::CellConfig cell_template) {
    config_.cell = std::move(cell_template);
    return *this;
  }
  MetroBuilder& mean_dwell(Seconds dwell) {
    config_.mean_dwell = dwell;
    return *this;
  }
  MetroBuilder& hotspot(double strength) {
    config_.hotspot = strength;
    return *this;
  }
  MetroBuilder& policy(HandoverPolicy policy) {
    config_.policy = policy;
    return *this;
  }
  /// Validates and returns the config; throws std::invalid_argument on
  /// contradictions (bad grid or too many cells, bad dwell/hotspot, or a
  /// per-cell template run_cell would reject).
  MetroConfig build() const;

 private:
  MetroConfig config_;
};

/// What one move did (move_ue's return; the metro engine folds these into
/// its counters).
enum class MoveOutcome {
  kReselect,      ///< grant-less re-camp (or DCH degraded to one)
  kHandover,      ///< grant migrated; under kHard the exchange is running
  kHandoverDrop,  ///< target refused the incoming DCH context
  kReselectDrop,  ///< target refused the incoming reservation
};

/// Moves one UE from its serving cell to `dst`, applying the full policy
/// table in the file comment (reselection, hard handover,
/// admission-or-drop, graceful degradation).  This IS the metro engine's
/// move — exposed so boundary tests can force a move at an exact instant.
/// Requires ue.cell != nullptr and dst != *ue.cell.
MoveOutcome move_ue(cell::CellUe& ue, cell::CellSim& dst,
                    HandoverPolicy policy);

/// Runs one metro to completion.  Deterministic: a pure function of the
/// config.  Throws std::invalid_argument on a contradictory config.
MetroResult run_metro(const MetroConfig& config);

/// Bit-exact binary encoding for cross-process transfer (supervised sweep
/// shards and checkpoint journal records).  Traced results cannot cross
/// the process boundary (throws std::invalid_argument).
std::string serialize_metro_result(const MetroResult& result);
/// Inverse; throws std::runtime_error on malformed bytes.
MetroResult deserialize_metro_result(std::string_view bytes);

}  // namespace eab::metro
