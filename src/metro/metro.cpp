#include "metro/metro.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "cell/cell_sim.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace eab::metro {

namespace {

// Seed sub-streams (cell-layer streams end at ...0004; see cell_sim.cpp).
// Mobility draws hang off each UE's own seed so adding mobility never
// perturbs the arrival/spec/fault streams; the hotspot weights hang off the
// metro seed because they are a per-cell, not per-UE, property.
constexpr std::uint64_t kMobilityStream = 0x00A1'55EE'0000'0005ULL;
constexpr std::uint64_t kHotspotStream = 0x00A1'55EE'0000'0006ULL;

/// Hotspot-weighted largest-remainder apportionment of
/// users * cells home slots across cells.  hotspot == 0 is exactly uniform
/// (every cell homes `users` UEs, no RNG consumed).
std::vector<int> apportion_homes(const MetroConfig& config) {
  const int cells = config.grid_w * config.grid_h;
  if (config.hotspot <= 0) {
    return std::vector<int>(static_cast<std::size_t>(cells),
                            config.cell.users);
  }
  const std::int64_t total =
      static_cast<std::int64_t>(config.cell.users) * cells;
  Rng rng(derive_seed(config.cell.cell_seed, kHotspotStream));
  std::vector<double> weights(static_cast<std::size_t>(cells));
  double weight_sum = 0;
  for (double& w : weights) {
    w = 1.0 + config.hotspot * rng.uniform();
    weight_sum += w;
  }
  std::vector<int> homes(weights.size());
  std::vector<double> fractions(weights.size());
  std::int64_t assigned = 0;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    const double quota =
        static_cast<double>(total) * weights[c] / weight_sum;
    homes[c] = static_cast<int>(std::floor(quota));
    fractions[c] = quota - std::floor(quota);
    assigned += homes[c];
  }
  // Hand the leftover slots to the largest fractional parts, ties to the
  // lower cell index — a total order, so the apportionment is a pure
  // function of the config.
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (fractions[a] != fractions[b]) return fractions[a] > fractions[b];
    return a < b;
  });
  for (std::size_t k = 0; assigned < total; ++k, ++assigned) {
    ++homes[order[k]];
  }
  return homes;
}

/// The metro engine: owns the cells, the UEs and the mobility process.
class MetroSim {
 public:
  MetroSim(sim::Simulator& sim, const MetroConfig& config,
           cell::TickCoordinator* ticks)
      : config_(config),
        sim_(sim),
        cell_count_(config.grid_w * config.grid_h),
        home_users_(apportion_homes(config)),
        stats_(static_cast<std::size_t>(cell_count_)) {
    // Per-cell configs differ from the template only in seed and home
    // count; they must be at their final addresses before any CellSim
    // takes a reference, hence the two-pass construction.
    cell_configs_.reserve(static_cast<std::size_t>(cell_count_));
    for (int c = 0; c < cell_count_; ++c) {
      cell::CellConfig cc = config_.cell;
      cc.cell_seed =
          config_.cell.cell_seed + static_cast<std::uint64_t>(c);
      cc.users = home_users_[static_cast<std::size_t>(c)];
      cell_configs_.push_back(std::move(cc));
    }
    int total = 0;
    for (int users : home_users_) total += users;
    total_users_ = total;
    mobiles_.reserve(static_cast<std::size_t>(total));
    // Cell construction and UE registration interleave exactly as
    // run_cell's (construct, then make_ue per local index), so a 1-cell
    // metro replays run_cell's event-scheduling sequence verbatim.
    cells_.reserve(static_cast<std::size_t>(cell_count_));
    int next_id = 0;
    for (int c = 0; c < cell_count_; ++c) {
      const auto uc = static_cast<std::size_t>(c);
      cells_.push_back(std::make_unique<cell::CellSim>(
          sim_, cell_configs_[uc], c, ticks));
      for (int local = 0; local < home_users_[uc]; ++local) {
        std::unique_ptr<cell::CellUe> ue = cells_[uc]->make_ue(
            next_id++, derive_seed(cell_configs_[uc].cell_seed,
                                   static_cast<std::uint64_t>(local)));
        const std::uint64_t mobility_seed =
            derive_seed(ue->seed, kMobilityStream);
        mobiles_.push_back(Mobile{std::move(ue), Rng(mobility_seed)});
      }
    }
  }

  MetroSim(const MetroSim&) = delete;
  MetroSim& operator=(const MetroSim&) = delete;

  int total_users() const { return total_users_; }

  /// Whole-cell outages, session arrivals, then the mobility process —
  /// the same per-phase order run_cell uses, extended cell-major.
  void schedule() {
    if (config_.cell.cell_outage_count > 0) {
      for (auto& cell : cells_) cell->schedule_cell_outages();
    }
    for (Mobile& m : mobiles_) m.ue->home->schedule_first_arrival(*m.ue);
    if (config_.mean_dwell > 0) {
      for (std::size_t i = 0; i < mobiles_.size(); ++i) schedule_first_move(i);
    }
  }

  void start_telemetry() {
    for (auto& cell : cells_) cell->start_telemetry();
  }

  MetroResult finalize(Seconds end, std::uint64_t sim_events) {
    MetroResult result;
    result.grid_w = config_.grid_w;
    result.grid_h = config_.grid_h;
    result.total_users = total_users_;
    result.home_users = home_users_;
    result.mobility = stats_;
    result.reselects = reselects_;
    result.handovers = handovers_;
    result.handover_drops = handover_drops_;
    result.end_time = end;
    result.sim_events = sim_events;
    result.cells.reserve(cells_.size());
    for (auto& cell : cells_) {
      // Event attribution is metro-global: every cell reports the whole
      // run's fired count (which also keeps a 1-cell metro's CellResult
      // byte-identical to run_cell's).
      cell::CellResult cr = cell->finalize(end, sim_events);
      result.offered += cr.offered;
      result.dropped += cr.dropped;
      result.completed += cr.completed;
      result.aborted += cr.aborted;
      result.metrics.merge(cr.metrics);
      result.cells.push_back(std::move(cr));
    }
    result.metrics.set_max("metro.cells", static_cast<double>(cell_count_));
    result.metrics.set_max("metro.users", static_cast<double>(total_users_));
    result.metrics.observe("metro.drop_probability",
                           result.drop_probability());
    // Registered only when mobility is on: a zero-dwell metro's metrics
    // snapshot carries no trace of the mobility process.
    if (config_.mean_dwell > 0) {
      result.metrics.count("metro.reselects",
                           static_cast<double>(reselects_));
      result.metrics.count("metro.handovers",
                           static_cast<double>(handovers_));
      result.metrics.count("metro.handover_drops",
                           static_cast<double>(handover_drops_));
    }
    return result;
  }

 private:
  struct Mobile {
    std::unique_ptr<cell::CellUe> ue;
    Rng rng;  ///< dwell + waypoint stream (derive_seed(ue.seed, mobility))
  };

  void schedule_first_move(std::size_t i) {
    const Seconds at = mobiles_[i].rng.exponential(config_.mean_dwell);
    if (at >= config_.cell.horizon) return;
    sim_.schedule_at(at, [this, i] { on_move(i); });
  }

  void schedule_next_move(std::size_t i) {
    const Seconds at =
        sim_.now() + mobiles_[i].rng.exponential(config_.mean_dwell);
    if (at >= config_.cell.horizon) return;
    sim_.schedule_at(at, [this, i] { on_move(i); });
  }

  /// Uniform step to a valid 4-neighbor; -1 when the grid has none
  /// (1x1 metro: the walk draws dwell times but never moves).
  int draw_neighbor(Rng& rng, int from) const {
    const int x = from % config_.grid_w;
    const int y = from / config_.grid_w;
    int candidates[4];
    int n = 0;
    if (x > 0) candidates[n++] = from - 1;
    if (x < config_.grid_w - 1) candidates[n++] = from + 1;
    if (y > 0) candidates[n++] = from - config_.grid_w;
    if (y < config_.grid_h - 1) candidates[n++] = from + config_.grid_w;
    if (n == 0) return -1;
    return candidates[rng.uniform_index(static_cast<std::uint64_t>(n))];
  }

  void on_move(std::size_t i) {
    Mobile& m = mobiles_[i];
    const int from = m.ue->cell->index();
    const int to = draw_neighbor(m.rng, from);
    if (to >= 0) {
      move(*m.ue, *cells_[static_cast<std::size_t>(from)],
           *cells_[static_cast<std::size_t>(to)]);
    }
    schedule_next_move(i);
  }

  void record(cell::CellUe& ue, obs::TraceKind kind, int from, int to) {
    if (ue.trace) [[unlikely]] {
      ue.trace->record(sim_.now(), kind, from, to);
    }
  }

  void move(cell::CellUe& ue, cell::CellSim& src, cell::CellSim& dst) {
    const auto from = static_cast<std::size_t>(src.index());
    const auto to = static_cast<std::size_t>(dst.index());
    switch (move_ue(ue, dst, config_.policy)) {
      case MoveOutcome::kReselect:
        ++reselects_;
        ++stats_[from].reselects_out;
        ++stats_[to].reselects_in;
        record(ue, obs::TraceKind::kMetroReselect, src.index(), dst.index());
        break;
      case MoveOutcome::kHandover:
        ++handovers_;
        ++stats_[from].handovers_out;
        ++stats_[to].handovers_in;
        record(ue, obs::TraceKind::kMetroHandover, src.index(), dst.index());
        break;
      case MoveOutcome::kHandoverDrop:
        ++handover_drops_;
        ++stats_[to].handover_drops;
        record(ue, obs::TraceKind::kMetroHandoverDrop, src.index(),
               dst.index());
        break;
      case MoveOutcome::kReselectDrop:
        ++reselects_;
        ++stats_[from].reselects_out;
        ++stats_[to].reselects_in;
        ++handover_drops_;
        ++stats_[to].handover_drops;
        record(ue, obs::TraceKind::kMetroHandoverDrop, src.index(),
               dst.index());
        break;
    }
  }

  const MetroConfig& config_;
  sim::Simulator& sim_;
  const int cell_count_;
  std::vector<int> home_users_;
  int total_users_ = 0;
  std::vector<cell::CellConfig> cell_configs_;
  std::vector<std::unique_ptr<cell::CellSim>> cells_;
  std::vector<Mobile> mobiles_;
  std::vector<MetroCellStats> stats_;
  std::uint64_t reselects_ = 0;
  std::uint64_t handovers_ = 0;
  std::uint64_t handover_drops_ = 0;
};

}  // namespace

namespace {

/// Kills the UE's in-flight session (abort settles every transfer and
/// books the outcome through the normal done hook, now owned by the new
/// serving cell) and releases the RRC connection.  If the radio is
/// mid-signalling force_idle refuses and the state-change hooks reconcile
/// with the new cell's grant pool when it settles (a completed promotion
/// force-acquires and counts an overcommit there).
void drop_session(cell::CellUe& ue) {
  if (ue.session_active && ue.load) ue.load->abort();
  ue.rrc.force_idle();
}

}  // namespace

MoveOutcome move_ue(cell::CellUe& ue, cell::CellSim& dst,
                    HandoverPolicy policy) {
  cell::CellSim& src = *ue.cell;
  const bool held = ue.grant == cell::Grant::kHeld;
  const bool stable_dch =
      ue.rrc.state() == radio::RrcState::kDch &&
      ue.rrc.phase() == radio::RadioPhase::kStable && !ue.rrc.link_down();
  if (held && stable_dch) {
    if (!dst.has_free_grant()) {
      // Admission-or-drop: the target has no grant for the incoming DCH
      // context, so the session dies with the move.
      src.detach(ue);
      dst.attach(ue);
      drop_session(ue);
      return MoveOutcome::kHandoverDrop;
    }
    src.detach(ue);
    dst.attach(ue);
    dst.hold_on_entry(ue);
    if (policy == HandoverPolicy::kHard) {
      // One signalling exchange at handover_power; flows freeze across it
      // and resume through the target scheduler when it completes.  Resume
      // only what we paused, and never into a faded link — if RLF
      // interrupts the exchange the completion is cancelled and the outage
      // machinery owns the resume (SharedLink::pause is idempotent, not
      // nested).
      const bool we_paused = !ue.link.paused();
      if (we_paused) ue.link.pause();
      ue.rrc.start_handover([&ue, we_paused] {
        if (we_paused && !ue.rrc.link_down()) ue.link.resume();
      });
    }
    return MoveOutcome::kHandover;
  }
  // Cell reselection: the cheap re-camp for IDLE/FACH movers — and the
  // graceful degradation for a DCH UE whose radio is mid-signalling,
  // fading or releasing: detach settles the grant ledger and the RRC
  // state-change hooks reconcile with the target pool when the radio
  // settles (a completed release no-ops, a re-establishment
  // force-acquires).
  const bool reserved = ue.grant == cell::Grant::kReserved;
  src.detach(ue);
  dst.attach(ue);
  if (reserved) {
    // An admitted-but-not-yet-promoted session needs a slot in the new
    // cell too: re-reserve, or drop the load at the boundary.
    if (dst.has_free_grant()) {
      dst.reserve_on_entry(ue);
    } else {
      drop_session(ue);
      return MoveOutcome::kReselectDrop;
    }
  }
  return MoveOutcome::kReselect;
}

const char* to_string(HandoverPolicy policy) {
  switch (policy) {
    case HandoverPolicy::kHard: return "hard";
    case HandoverPolicy::kInstant: return "instant";
  }
  return "?";
}

void validate_metro_config(const MetroConfig& config) {
  cell::validate_cell_config(config.cell);
  if (config.grid_w < 1 || config.grid_h < 1) {
    throw std::invalid_argument(
        "run_metro: grid dimensions must be >= 1");
  }
  const std::int64_t cells =
      static_cast<std::int64_t>(config.grid_w) * config.grid_h;
  // The cell bound also keeps the engine's `int` grid arithmetic
  // (grid_w * grid_h) from overflowing.
  if (cells > 256) {
    throw std::invalid_argument("run_metro: grid_w * grid_h must be <= 256");
  }
  if (cells * config.cell.users > INT_MAX) {
    throw std::invalid_argument("run_metro: total user count overflows");
  }
  if (!std::isfinite(config.mean_dwell) || config.mean_dwell < 0) {
    throw std::invalid_argument(
        "run_metro: mean_dwell must be finite and >= 0");
  }
  if (!std::isfinite(config.hotspot) || config.hotspot < 0) {
    throw std::invalid_argument(
        "run_metro: hotspot must be finite and >= 0");
  }
}

MetroConfig MetroBuilder::build() const {
  validate_metro_config(config_);
  return config_;
}

MetroResult run_metro(const MetroConfig& config) {
  validate_metro_config(config);
  const int cell_count = config.grid_w * config.grid_h;
  sim::Simulator sim;
  // The per-cell budget scales with the cell count (saturating: the knob
  // is a liveness guard, not an accounting device).
  const std::uint64_t per_cell = config.cell.sim_event_budget;
  const auto m = static_cast<std::uint64_t>(cell_count);
  sim.set_event_budget(
      per_cell > std::numeric_limits<std::uint64_t>::max() / m
          ? std::numeric_limits<std::uint64_t>::max()
          : per_cell * m);
  cell::TickCoordinator ticks;
  const bool telemetry = config.cell.telemetry_tick > 0;
  MetroSim metro(sim, config, telemetry ? &ticks : nullptr);
  metro.schedule();
  Seconds workload_end = 0;
  if (telemetry) {
    metro.start_telemetry();
    // Same exclusion as run_cell: the last non-tick event is the workload
    // end, so sampling leaves end_time and every energy window untouched.
    while (sim.step()) {
      if (!ticks.consume_tick_fired()) workload_end = sim.now();
    }
  } else {
    sim.run();
  }
  return metro.finalize(telemetry ? workload_end : sim.now(),
                        sim.fired_count());
}

namespace {

constexpr std::uint32_t kMetroResultVersion = 1;

/// The MetroResult layout after the version word (util/bytes.hpp visitor).
template <class Io, class R>
void fields(Io& io, R& result) {
  io(result.grid_w, result.grid_h, result.total_users, result.reselects,
     result.handovers, result.handover_drops, result.offered, result.dropped,
     result.completed, result.aborted, result.end_time, result.sim_events);
  // Per cell: home users, the mobility ledger, then the cell's own record.
  std::size_t c = 0;
  io.seq(result.cells, [&result, &c](Io& io, auto& cell_result) {
    if constexpr (Io::kReading) {
      result.home_users.emplace_back();
      result.mobility.emplace_back();
    }
    auto& s = result.mobility[c];
    io(result.home_users[c], s.reselects_in, s.reselects_out, s.handovers_in,
       s.handovers_out, s.handover_drops);
    if constexpr (Io::kReading) {
      cell_result = cell::deserialize_cell_result(io.str());
    } else {
      io.str(cell::serialize_cell_result(cell_result));
    }
    ++c;
  });
  io(result.metrics);
}

}  // namespace

std::string serialize_metro_result(const MetroResult& result) {
  std::string out;
  BinaryWriter w(out);
  w.u32(kMetroResultVersion);
  fields(w, result);
  return out;
}

MetroResult deserialize_metro_result(std::string_view bytes) {
  BinaryReader r(bytes);
  if (r.u32() != kMetroResultVersion) {
    throw std::runtime_error(
        "deserialize_metro_result: unknown record version");
  }
  MetroResult result;
  fields(r, result);
  r.expect_done();
  return result;
}

}  // namespace eab::metro
