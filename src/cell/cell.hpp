// Multi-UE shared-cell co-simulation (paper Section 5.4, from first
// principles).
//
// The M/G/N loss model of capacity/mgn.hpp assumes each session's service
// time: here we derive it.  N independent UE stacks — each with its own
// RrcMachine, SharedLink, HttpClient, pipeline and fault plan, all seeded
// from derive_seed(cell_seed, ue_id) — run in ONE sim::Simulator against a
// CellScheduler that owns a bounded pool of channel pairs (DCH grants) and
// a shared downlink bandwidth budget.  A session that arrives while every
// grant is busy is dropped (admission blocking, no queue), which is exactly
// the dropping probability Fig 11 plots; the energy-aware pipeline's
// fast-dormancy release frees its grant at transmission-complete instead of
// after the T1 tail, so the same pool admits more users.
//
// The per-UE template is a core::Scenario — the same validated object every
// single-UE experiment is built from — so a config that passed
// ScenarioBuilder::build() is valid here too.  Within the cell:
//   - per-UE seeds:     derive_seed(cell_seed, ue_id)
//   - arrival stream:   Rng(derive_seed(ue_seed, kArrivalStream))
//   - per-load seed:    derive_seed(ue_seed, session_index)
//   - fault plan seed:  derive_seed(ue_seed, kFaultStream) (when enabled)
// Chaos directives: ril_socket_failures and cache storms apply per UE;
// abort_at does not map onto an open-ended session stream and is ignored —
// use CellConfig::abort_rate, which aborts a random fraction of admitted
// sessions at a uniform 0.5–10 s offset.
//
// Grant lifecycle (kFree → kReserved → kHeld → kFree): admission reserves a
// grant, DCH promotion converts the reservation to a hold, demotion (T1
// expiry or fast-dormancy release) frees it.  A promotion with no
// reservation — a mid-session re-promotion after a stall demoted the radio —
// force-acquires and counts an overcommit rather than killing the session.
//
// Bandwidth: each UE owns a SharedLink whose capacity is recomputed on
// every flow start/finish/pause/resume (SharedLink::set_on_flow_change →
// CellScheduler rebalance → SharedLink::set_capacity): round-robin splits
// the cell budget equally across UEs with active unpaused flows,
// proportional-fair weights each UE by 1/(1 + delivered/1MB); both cap a
// UE's share at its own DCH bearer rate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/energy_report.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "corpus/page_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace eab::cell {

/// How the cell splits its downlink budget across active UEs.
enum class SharePolicy {
  kRoundRobin,         ///< equal split across UEs with active flows
  kProportionalFair,   ///< weight 1/(1 + delivered/1MB): lighter users first
};

const char* to_string(SharePolicy policy);

/// One cell: N users, a grant pool, a bandwidth budget, a session process.
struct CellConfig {
  /// Per-UE stack template (validated through ScenarioBuilder).  The
  /// reading window is unused here — think times cover reading — and the
  /// per-scenario seed is superseded by cell_seed-derived per-UE seeds.
  core::Scenario per_ue;
  /// Session page mix (Table 3); each session picks uniformly.  Must be
  /// non-empty.
  std::vector<corpus::PageSpec> specs;
  int users = 16;
  /// Bounded pool of dedicated channel pairs (the M/G/N "N").
  int channels = 8;
  /// Shared downlink budget in bytes/s; 0 resolves to
  /// channels * per_ue.stack.link.dch_bandwidth (grant-limited, no
  /// bandwidth contention — the paper's regime).
  BytesPerSecond cell_bandwidth = 0;
  SharePolicy share = SharePolicy::kRoundRobin;
  /// Mean exponential think time between a session's end and the same
  /// user's next arrival (paper: 25 s).
  Seconds mean_think_time = 25.0;
  /// No arrivals are scheduled at or past the horizon; in-flight sessions
  /// drain to completion (paper: 4 hours).
  Seconds horizon = 4.0 * 3600.0;
  std::uint64_t cell_seed = 1;
  /// Fraction of admitted sessions the user abandons mid-load (chaos atom;
  /// 0 = never).  Abort offset is uniform in [0.5, 10] s after start.
  double abort_rate = 0.0;
  /// Whole-cell coverage outages (robustness extension): `cell_outage_count`
  /// windows of `cell_outage_duration` seconds, the first beginning at
  /// `cell_outage_start` and subsequent ones `cell_outage_period` apart.
  /// While the cell is down every UE loses coverage simultaneously — the
  /// grant pool drains as radio-link failure demotes the holders into
  /// OUT_OF_SERVICE — and arrivals are dropped at admission; on restore
  /// every RLF'd UE runs re-establishment and admission re-ramps.  0
  /// disables: the run is byte-identical to a build without the feature.
  /// Independent of the per-UE OutagePlan in per_ue.stack.outage (whose
  /// seed-derived windows hit one UE at a time); both may be enabled.
  int cell_outage_count = 0;
  Seconds cell_outage_start = 60.0;
  Seconds cell_outage_period = 120.0;
  Seconds cell_outage_duration = 5.0;
  /// Liveness guard for the whole cell (many stacks share one simulator,
  /// so the budget is far above the single-load default).
  std::uint64_t sim_event_budget = 2'000'000'000;
  /// Must be 1: the simulator has one event queue (DESIGN.md §6c).  Kept so
  /// configs that spell the old single-queue setting still compile; any
  /// other value is rejected by validate_cell_config.
  int sim_shards = 1;
  /// Simulated-time telemetry sampling period (DESIGN.md §11).  0 (the
  /// default) disables telemetry entirely: no series, no tick events, the
  /// run is bit-identical — sim_events included — to a build without the
  /// telemetry layer.  When positive, a self-rescheduling tick samples
  /// cross-layer gauges (RRC census, grant occupancy, link flows, fetch
  /// queues, energy by state, drop/retry/abort counters) every
  /// telemetry_tick simulated seconds; grant-occupancy changes additionally
  /// piggyback on already-fired events.  The tick never mutates simulation
  /// state, so the workload trajectory matches the untelemetered run; only
  /// sim_events grows by the tick count.
  Seconds telemetry_tick = 0;
  /// Per-series point budget: past it, adjacent windows merge (power-of-two
  /// downsampling) so memory stays constant on arbitrarily long runs.
  std::size_t telemetry_budget = 256;
  /// Also record per-UE series (ue<id>.rrc_state, ue<id>.fetches); off by
  /// default because they scale the series count by the user count.
  bool telemetry_per_ue = false;
};

/// Per-UE accounting.
struct UeStats {
  int offered = 0;    ///< sessions that arrived (admitted + dropped)
  int admitted = 0;
  int dropped = 0;    ///< blocked at admission: every grant busy
  int completed = 0;  ///< loads that reached final display
  int aborted = 0;    ///< admitted loads abandoned by the abort atom
  Seconds total_load_time = 0;     ///< sum of total_time over settled loads
  Seconds total_service_time = 0;  ///< sum of data-transmission times
  // Radio-failure accounting (all zero unless an outage knob is enabled).
  int radio_outages = 0;  ///< coverage losses this UE saw (incl. cell-wide)
  int rlf = 0;            ///< radio-link failures declared
  int reestablish_ok = 0;
  int reestablish_fail = 0;
  Seconds out_of_service_time = 0;  ///< residency camped without coverage
  /// Energy over the whole run (load_j == with_reading_j: the window is the
  /// full cell run, there is no separate reading tail).
  core::EnergyReport energy;
  /// Per-UE structured trace when per_ue.stack.trace is set (each UE owns
  /// its recorder, so TraceAuditor runs per UE); null otherwise.
  std::shared_ptr<obs::TraceRecorder> trace;
};

/// Results of one cell run.
struct CellResult {
  int users = 0;
  int channels = 0;
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  /// DCH promotions that found no reservation and every grant busy.
  std::uint64_t grant_overcommits = 0;
  // Radio-failure aggregates (sums of the per-UE fields; all zero unless an
  // outage knob is enabled).
  std::uint64_t radio_outages = 0;
  std::uint64_t rlf = 0;
  std::uint64_t reestablish_ok = 0;
  std::uint64_t reestablish_fail = 0;
  std::uint64_t cell_outages = 0;  ///< whole-cell windows that began
  double mean_busy_grants = 0;  ///< time-averaged busy (reserved+held) grants
  int peak_busy_grants = 0;
  Seconds mean_grant_hold = 0;  ///< mean DCH occupancy per hold interval
  /// Link flows still registered after the simulator drained (0 on any
  /// healthy run; a leak here means a fetch path lost track of a flow).
  std::uint64_t leaked_flows = 0;
  Seconds end_time = 0;         ///< simulator clock after draining
  std::uint64_t sim_events = 0;
  std::vector<UeStats> per_ue;
  obs::MetricsRegistry metrics;
  /// Cross-layer time series when CellConfig::telemetry_tick > 0; null
  /// otherwise.  Serialized with the result (unlike traces), so supervised
  /// sweeps carry series across process boundaries bit-identically.
  std::shared_ptr<obs::Telemetry> telemetry;

  double drop_probability() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(dropped) /
                              static_cast<double>(offered);
  }
};

/// Runs one cell to completion.  Deterministic: a pure function of the
/// config.  Throws std::invalid_argument on a contradictory config (the
/// per-UE template is re-validated through ScenarioBuilder::build()).
CellResult run_cell(const CellConfig& config);

/// Bit-exact binary encoding of a CellResult for cross-process transfer
/// (supervised sweeps checkpoint these records): every field including the
/// per-UE stats and the metrics registry round-trips exactly — doubles as
/// bit patterns — so a shard recovered from the journal is byte-identical
/// to one recomputed in-process.  Traces are not carried: serializing a
/// result whose UEs hold trace recorders throws std::invalid_argument.
std::string serialize_cell_result(const CellResult& result);
/// Inverse of serialize_cell_result; throws std::runtime_error on
/// truncated or malformed bytes (a torn checkpoint record).
CellResult deserialize_cell_result(std::string_view bytes);

/// Users-axis sweep on any execution tier: shard i is run_cell(base with
/// users = users_axis[i]), and `consume` (may be empty) receives each result
/// in ascending axis order — merge-on-arrival, each result released after
/// the callback returns, so aggregation is constant-memory in the axis
/// length.  The consumed bytes are identical on the serial, pooled and
/// supervised tiers for any worker count; on the supervised tier a run with
/// a checkpoint path resumes bit-identically after a kill, and a failed
/// shard surfaces in the returned report (consume skips it) instead of
/// throwing.  Throws std::invalid_argument on an invalid base config, or on
/// the supervised tier when the per-UE template enables tracing (recorders
/// cannot cross the process boundary).
core::SupervisorReport run_cell_sweep(
    const CellConfig& base, const std::vector<int>& users_axis,
    const core::SweepExecution& exec,
    const std::function<void(std::size_t index, const CellResult& result)>&
        consume);

/// Users supported at `target` drop probability, linearly interpolated over
/// ascending (users_axis[i], drops[i]) sweep points.  Returns the last axis
/// value if the target is never reached; throws std::invalid_argument on an
/// empty axis or a size mismatch.
double users_at_drop_target(const std::vector<int>& users_axis,
                            const std::vector<double>& drops, double target);

}  // namespace eab::cell
