// The cell engine behind run_cell, exposed so a metro (src/metro/) can run
// M cells in ONE simulator with UEs migrating between them.
//
// Ownership split: CellSim no longer owns the simulator or the UEs.  The
// driver (run_cell, or metro::run_metro) owns the sim::Simulator and a flat
// vector of CellUe; each CellSim is one cell's scheduler — grant pool,
// bandwidth budget, session process, whole-cell outages, telemetry — over
// the UEs currently *attached* to it.  A UE's serving cell is `ue.cell`;
// every per-session hook (arrival, DCH enter/exit, flow change) routes
// through that pointer, so after a reselection or handover the UE's next
// event lands in the right scheduler with no re-wiring.
//
// Membership seams (the handover substrate):
//   attach(ue)   — ue joins this cell's member set; if the cell is mid
//                  whole-cell outage the UE loses coverage on entry.
//   detach(ue)   — grant bookkeeping is settled (a held grant books its
//                  hold interval, a reservation is released), coverage is
//                  restored if the cell was dark, the UE leaves the member
//                  set.  The UE's RRC state is deliberately untouched:
//                  reselection vs hard handover is the caller's policy
//                  (metro::run_metro), not the cell's.
//   has_free_grant()/reserve_on_entry(ue)/hold_on_entry(ue) — target-side
//                  admission for a migrating UE.
//
// A 1-cell, zero-mobility metro run and run_cell drive this class through
// the identical event-scheduling sequence, so their results are
// byte-identical (enforced by check.sh).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "browser/pipeline.hpp"
#include "cell/cell.hpp"
#include "core/ue_stack.hpp"
#include "corpus/generator.hpp"
#include "net/http_client.hpp"
#include "net/web_server.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/timeline.hpp"
#include "util/units.hpp"

namespace eab::cell {

/// Validates a CellConfig exactly as run_cell does (the per-UE template is
/// re-validated through ScenarioBuilder::build()).  Public so a metro can
/// validate its per-cell template once without duplicating the checks.
/// Throws std::invalid_argument on a contradictory config.
void validate_cell_config(const CellConfig& config);

/// DCH grant lifecycle: admission reserves, promotion holds, demotion frees.
enum class Grant { kFree, kReserved, kHeld };

class CellSim;

/// One UE: its phone (core::UeStack, the same stack a single load or a
/// session runs on, with the fault and outage plans re-seeded per UE) plus
/// its session process and cell-membership state.  Constructed via
/// CellSim::make_ue (which attaches the cell's grant and rebalance hooks);
/// owned by the driver.
struct CellUe : core::UeStack {
  int id;               ///< globally unique across the whole run
  std::uint64_t seed;   ///< derive_seed(cell_seed, local_index)
  Rng rng;              ///< arrival/spec/abort decision stream
  net::WebServer server;
  corpus::PageGenerator generator;
  std::vector<std::string> hosted_urls;  ///< per spec index, "" = unhosted
  std::unique_ptr<net::HttpClient> client;
  std::unique_ptr<browser::PageLoad> load;
  int generation = 0;        ///< bumps on every teardown; stale events no-op
  int sessions_started = 0;  ///< per-load seed index
  UeStats stats;

  CellSim* cell = nullptr;  ///< serving cell (membership; updated on moves)
  CellSim* home = nullptr;  ///< creating cell (stats aggregate here)
  Grant grant = Grant::kFree;
  Seconds hold_start = 0;          ///< when the current hold began
  bool session_active = false;     ///< a load is in flight (begin_load set)

  CellUe(sim::Simulator& sim, const CellConfig& config, int id_,
         std::uint64_t seed_);
};

/// Ends every cell's telemetry tick chain exactly when the whole
/// simulator's workload drains.  With M live chains, each chain holds
/// exactly one pending tick between events, so when a tick fires and only
/// the other chains' ticks remain (pending == live - 1) the workload is
/// done and this chain stops; with M == 1 this reduces to the classic
/// `pending_count() > 0` check.  consume_tick_fired() lets the run loop
/// exclude tick events from end-of-run accounting, keeping end_time and
/// every energy window bit-identical to an unsampled run.
class TickCoordinator {
 public:
  void chain_started() { ++live_; }
  /// Called from inside a tick after sampling; true = reschedule.
  bool keep_alive(std::size_t pending) {
    if (pending > live_ - 1) return true;
    --live_;
    return false;
  }
  void mark_tick() { tick_fired_ = true; }
  /// True (and resets) iff the event just fired was a telemetry tick.
  bool consume_tick_fired() {
    const bool fired = tick_fired_;
    tick_fired_ = false;
    return fired;
  }

 private:
  std::size_t live_ = 0;
  bool tick_fired_ = false;
};

/// One cell's scheduler: grant pool, bandwidth budget, session process,
/// whole-cell outages, telemetry.  See file comment for the ownership
/// split and the membership seams.
class CellSim {
 public:
  /// `config` and `ticks` must outlive the CellSim.  `ticks` is required
  /// when config.telemetry_tick > 0 and ignored otherwise.  `shard_base`
  /// is the first simulator shard of this cell's shard range (cell c of a
  /// metro owns shards [c*S, (c+1)*S) where S = config.sim_shards);
  /// whole-cell events (outage windows, telemetry ticks) live on it.
  CellSim(sim::Simulator& sim, const CellConfig& config, int cell_index = 0,
          int shard_base = 0, TickCoordinator* ticks = nullptr);

  CellSim(const CellSim&) = delete;
  CellSim& operator=(const CellSim&) = delete;

  const CellConfig& config() const { return config_; }
  int index() const { return index_; }
  int shard_base() const { return shard_base_; }
  bool down() const { return cell_down_; }
  std::shared_ptr<obs::Telemetry> telemetry() const {
    return telemetry_result_;
  }

  // --- construction-time registration (driver sets the schedule shard
  //     before each call; events scheduled inside inherit it) -------------

  /// Builds a UE homed in this cell, attaches its grant and rebalance
  /// hooks and registers it as a member.  The caller owns the UE and must
  /// keep it alive until finalize().
  std::unique_ptr<CellUe> make_ue(int id, std::uint64_t seed);

  /// Schedules this cell's whole-cell outage windows (no-op when
  /// cell_outage_count == 0).
  void schedule_cell_outages();

  /// Schedules the UE's first session arrival (exponential think time from
  /// t = 0; skipped when it lands at or past the horizon).
  void schedule_first_arrival(CellUe& ue);

  /// Samples the t = 0 baseline and starts the self-rescheduling telemetry
  /// tick chain.  Requires config.telemetry_tick > 0.
  void start_telemetry();

  // --- membership seams (reselection / handover substrate) ---------------

  void attach(CellUe& ue);
  void detach(CellUe& ue);
  bool has_free_grant() const {
    return !cell_down_ && busy_ < config_.channels;
  }
  /// Target-side admission for a migrating UE that held only a reservation.
  void reserve_on_entry(CellUe& ue);
  /// Target-side grant hold for a hard handover (UE arrives in DCH).
  void hold_on_entry(CellUe& ue);
  /// Recomputes every active member's link capacity (public so a move
  /// between cells can rebalance both sides).
  void rebalance();

  // --- end of run ---------------------------------------------------------

  /// Builds this cell's CellResult over its HOME UEs (creation order).
  /// `end` is the workload end time, `sim_events` the events attributable
  /// to this cell (the whole run's fired count for a standalone cell).
  CellResult finalize(Seconds end, std::uint64_t sim_events);

 private:
  /// Attaches the grant-transition and bandwidth-rebalance hooks; the rest
  /// of the phone is wired by core::UeStack.
  void wire(CellUe& ue);

  // --- grant pool ---------------------------------------------------------

  void note_busy();
  bool try_admit(CellUe& ue);
  void on_dch_enter(CellUe& ue);
  void on_dch_exit(CellUe& ue);
  void release_if_reserved(CellUe& ue);

  // --- whole-cell outages -------------------------------------------------

  void cell_outage_begin();
  void cell_outage_end();

  // --- session process ----------------------------------------------------

  void schedule_next_arrival(CellUe& ue);
  void start_session(CellUe& ue);
  void begin_load(CellUe& ue, std::size_t spec_index, bool wants_abort,
                  Seconds abort_after);
  void on_session_done(CellUe& ue, const browser::LoadMetrics& m);

  // --- telemetry ----------------------------------------------------------

  void sample_gauges(Seconds t);
  void schedule_tick(Seconds at);

  const CellConfig& config_;
  sim::Simulator& sim_;
  const int index_;
  const int shard_base_;
  BytesPerSecond per_ue_rate_;
  BytesPerSecond cell_rate_;
  std::vector<CellUe*> members_;    ///< currently attached (serving set)
  std::vector<CellUe*> home_ues_;   ///< created here, creation order

  const bool outage_enabled_;      ///< any outage knob on (per-UE or cell)
  bool cell_down_ = false;         ///< inside a whole-cell outage window
  std::uint64_t cell_outages_ = 0;
  int busy_ = 0;
  int peak_busy_ = 0;
  std::uint64_t overcommits_ = 0;
  Seconds held_total_ = 0;
  std::uint64_t hold_intervals_ = 0;
  PowerTimeline busy_timeline_;  ///< busy-grant count as a step function

  bool rebalancing_ = false;
  bool rebalance_dirty_ = false;
  std::vector<CellUe*> active_;  ///< scratch for rebalance()

  std::shared_ptr<obs::Telemetry> telemetry_result_;
  obs::Telemetry* telemetry_ = nullptr;  ///< null = sampling disabled
  TickCoordinator* ticks_ = nullptr;
  std::uint64_t retired_retries_ = 0;    ///< retries of torn-down clients
};

}  // namespace eab::cell
