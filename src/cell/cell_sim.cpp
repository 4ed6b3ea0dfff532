#include "cell/cell_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/bytes.hpp"

namespace eab::cell {

namespace {

// Sub-stream indices under each UE's derive_seed(cell_seed, ue_id) root.
// Session load seeds use the session index directly, so these sit far
// outside any plausible session count.
constexpr std::uint64_t kArrivalStream = 0x00A1'55EE'0000'0001ULL;
constexpr std::uint64_t kFaultStream = 0x00A1'55EE'0000'0002ULL;
constexpr std::uint64_t kGeneratorStream = 0x00A1'55EE'0000'0003ULL;
constexpr std::uint64_t kOutageStream = 0x00A1'55EE'0000'0004ULL;

/// Proportional-fair reference volume: a UE that has already pulled this
/// many bytes weighs half of a fresh one.
constexpr double kFairShareRefBytes = 1024.0 * 1024.0;

/// Any outage knob on, per-UE or whole-cell: every UE then gets an
/// OutageInjector and the cell registers its radio-failure accounting.
bool outage_enabled(const CellConfig& config) {
  return config.per_ue.stack.outage.enabled() || config.cell_outage_count > 0;
}

/// The UE's fault and outage plans, re-seeded from its own seed.  A
/// disabled per-UE outage plan still gets an injector when whole-cell
/// outages are on: it schedules no windows of its own and exists so
/// cell_outage_begin/end can drive coverage (and so the plan's
/// reestablish_fail_rate applies to cell-driven re-establishment too).
core::UePlans ue_plans(const CellConfig& config, int id, std::uint64_t seed) {
  const core::StackConfig& stack = config.per_ue.stack;
  core::UePlans plans;
  plans.ue_id = static_cast<std::uint64_t>(id);
  plans.faults = stack.fault_plan;
  plans.faults.seed = derive_seed(seed, kFaultStream);
  plans.outage = stack.outage;
  plans.outage.seed = derive_seed(seed, kOutageStream);
  plans.outage_injector = outage_enabled(config);
  return plans;
}

}  // namespace

void validate_cell_config(const CellConfig& config) {
  // Re-validates the per-UE template exactly as every single-UE experiment
  // is validated; a Scenario assembled by hand gets the same checks here.
  core::ScenarioBuilder()
      .stack(config.per_ue.stack)
      .reading_window(config.per_ue.reading_window)
      .seed(config.per_ue.seed)
      .build();
  if (config.specs.empty()) {
    throw std::invalid_argument("run_cell: specs must be non-empty");
  }
  if (config.users < 1) {
    throw std::invalid_argument("run_cell: users must be >= 1");
  }
  if (config.channels < 1) {
    throw std::invalid_argument("run_cell: channels must be >= 1");
  }
  if (config.cell_bandwidth < 0) {
    throw std::invalid_argument("run_cell: cell_bandwidth must be >= 0");
  }
  if (!(config.mean_think_time > 0)) {
    throw std::invalid_argument("run_cell: mean_think_time must be > 0");
  }
  if (!(config.horizon > 0)) {
    throw std::invalid_argument("run_cell: horizon must be > 0");
  }
  if (config.abort_rate < 0 || config.abort_rate > 1) {
    throw std::invalid_argument("run_cell: abort_rate must be in [0, 1]");
  }
  if (config.sim_event_budget == 0) {
    throw std::invalid_argument("run_cell: sim_event_budget must be > 0");
  }
  if (config.sim_shards < 1 || config.sim_shards > 256) {
    throw std::invalid_argument("run_cell: sim_shards must be in [1, 256] (got " +
                                std::to_string(config.sim_shards) + ")");
  }
  if (config.telemetry_tick < 0 || !std::isfinite(config.telemetry_tick)) {
    throw std::invalid_argument(
        "run_cell: telemetry_tick must be >= 0 and finite");
  }
  if (config.telemetry_tick > 0 && config.telemetry_budget < 2) {
    throw std::invalid_argument("run_cell: telemetry_budget must be >= 2");
  }
  if (config.cell_outage_count < 0) {
    throw std::invalid_argument("run_cell: cell_outage_count must be >= 0");
  }
  if (config.cell_outage_count > 0) {
    if (!(config.cell_outage_start >= 0) ||
        !std::isfinite(config.cell_outage_start)) {
      throw std::invalid_argument(
          "run_cell: cell_outage_start must be >= 0 and finite");
    }
    if (!(config.cell_outage_duration > 0) ||
        !std::isfinite(config.cell_outage_duration)) {
      throw std::invalid_argument(
          "run_cell: cell_outage_duration must be > 0 and finite");
    }
    if (!(config.cell_outage_period > config.cell_outage_duration) ||
        !std::isfinite(config.cell_outage_period)) {
      throw std::invalid_argument(
          "run_cell: cell_outage_period must exceed cell_outage_duration "
          "(windows must not overlap) and be finite");
    }
  }
}

CellUe::CellUe(sim::Simulator& sim, const CellConfig& config, int id_,
               std::uint64_t seed_)
    : core::UeStack(sim, config.per_ue.stack, ue_plans(config, id_, seed_)),
      id(id_),
      seed(seed_),
      rng(derive_seed(seed, kArrivalStream)),
      generator(derive_seed(seed, kGeneratorStream)),
      hosted_urls(config.specs.size()) {}

CellSim::CellSim(sim::Simulator& sim, const CellConfig& config,
                 int cell_index, int shard_base, TickCoordinator* ticks)
    : config_(config),
      sim_(sim),
      index_(cell_index),
      shard_base_(shard_base),
      per_ue_rate_(config.per_ue.stack.link.dch_bandwidth),
      cell_rate_(config.cell_bandwidth > 0
                     ? config.cell_bandwidth
                     : config.channels * per_ue_rate_),
      outage_enabled_(outage_enabled(config)),
      ticks_(ticks) {
  if (config.telemetry_tick > 0) {
    if (ticks_ == nullptr) {
      throw std::invalid_argument(
          "CellSim: telemetry requires a TickCoordinator");
    }
    obs::TelemetryConfig telemetry_config;
    telemetry_config.tick = config.telemetry_tick;
    telemetry_config.point_budget = config.telemetry_budget;
    telemetry_config.per_ue = config.telemetry_per_ue;
    telemetry_result_ = std::make_shared<obs::Telemetry>(telemetry_config);
    telemetry_ = telemetry_result_.get();
  }
}

std::unique_ptr<CellUe> CellSim::make_ue(int id, std::uint64_t seed) {
  auto ue = std::make_unique<CellUe>(sim_, config_, id, seed);
  ue->cell = this;
  ue->home = this;
  members_.push_back(ue.get());
  home_ues_.push_back(ue.get());
  wire(*ue);
  return ue;
}

void CellSim::schedule_cell_outages() {
  // Whole-cell events touch every UE, so they live on the cell's base
  // shard like the telemetry tick; the merged fire order is
  // shard-count-invariant.
  for (int i = 0; i < config_.cell_outage_count; ++i) {
    const Seconds begin =
        config_.cell_outage_start + i * config_.cell_outage_period;
    sim_.schedule_at(begin, [this] { cell_outage_begin(); });
    sim_.schedule_at(begin + config_.cell_outage_duration,
                     [this] { cell_outage_end(); });
  }
}

void CellSim::wire(CellUe& ue) {
  // Hooks route through ue.cell, the SERVING cell: after a reselection or
  // handover the UE's grant transitions and rebalances land in the right
  // scheduler without re-wiring.
  ue.rrc.set_on_state_change([&ue](radio::RrcState from, radio::RrcState to) {
    if (to == radio::RrcState::kDch && from != radio::RrcState::kDch) {
      ue.cell->on_dch_enter(ue);
    } else if (from == radio::RrcState::kDch &&
               to != radio::RrcState::kDch) {
      ue.cell->on_dch_exit(ue);
    }
  });
  ue.link.set_on_flow_change([&ue] { ue.cell->rebalance(); });
}

// --- grant pool -----------------------------------------------------------

void CellSim::note_busy() {
  busy_timeline_.set_power(sim_.now(), static_cast<double>(busy_));
  peak_busy_ = std::max(peak_busy_, busy_);
  // Piggyback sampling on the grant transition that already fired: exact
  // occupancy resolution with zero extra simulator events.
  if (telemetry_) {
    telemetry_->sample("cell.busy_grants", sim_.now(),
                       static_cast<double>(busy_));
  }
}

/// Admission check at session arrival.  A UE still holding a grant from
/// its previous session (Original-pipeline tail across a short think
/// time) is admitted on that grant — unless the whole cell is down, which
/// blocks even grant holders (their grants are mid-drain via RLF).
bool CellSim::try_admit(CellUe& ue) {
  if (cell_down_) return false;
  if (ue.grant != Grant::kFree) return true;
  if (busy_ >= config_.channels) return false;
  ue.grant = Grant::kReserved;
  ++busy_;
  note_busy();
  return true;
}

void CellSim::on_dch_enter(CellUe& ue) {
  if (ue.grant == Grant::kReserved) {
    ue.grant = Grant::kHeld;
  } else if (ue.grant == Grant::kFree) {
    // Mid-session re-promotion (a stall let T1 demote the radio while the
    // load was still in flight): take a grant back rather than killing an
    // admitted session, and count the overcommit when none is free.
    if (busy_ >= config_.channels) ++overcommits_;
    ue.grant = Grant::kHeld;
    ++busy_;
    note_busy();
  }
  ue.hold_start = sim_.now();
}

void CellSim::on_dch_exit(CellUe& ue) {
  if (ue.grant != Grant::kHeld) return;
  held_total_ += sim_.now() - ue.hold_start;
  ++hold_intervals_;
  ue.grant = Grant::kFree;
  --busy_;
  note_busy();
}

/// Session ended without the radio ever promoting (fully cache-served
/// load, or an abort before the promotion completed): give the
/// reservation back.
void CellSim::release_if_reserved(CellUe& ue) {
  if (ue.grant != Grant::kReserved) return;
  ue.grant = Grant::kFree;
  --busy_;
  note_busy();
}

// --- membership seams -----------------------------------------------------

void CellSim::attach(CellUe& ue) {
  ue.cell = this;
  members_.push_back(&ue);
  // Entering a dark cell is entering the outage: the UE loses coverage the
  // moment it camps.
  if (cell_down_ && ue.outage) ue.outage->coverage_lost();
  rebalance();
}

void CellSim::detach(CellUe& ue) {
  // Settle the grant ledger before the UE leaves: a held grant books its
  // hold interval here (the target cell starts a fresh one), a reservation
  // is simply released.  The RRC machine is untouched — whether the move
  // is a cheap reselection or a hard handover is the caller's policy.
  if (ue.grant == Grant::kHeld) {
    held_total_ += sim_.now() - ue.hold_start;
    ++hold_intervals_;
    ue.grant = Grant::kFree;
    --busy_;
    note_busy();
  } else if (ue.grant == Grant::kReserved) {
    ue.grant = Grant::kFree;
    --busy_;
    note_busy();
  }
  // Leaving a dark cell restores coverage (the target applies its own
  // outage state on attach).
  if (cell_down_ && ue.outage) ue.outage->coverage_restored();
  members_.erase(std::find(members_.begin(), members_.end(), &ue));
  ue.cell = nullptr;
  rebalance();
}

void CellSim::reserve_on_entry(CellUe& ue) {
  ue.grant = Grant::kReserved;
  ++busy_;
  note_busy();
}

void CellSim::hold_on_entry(CellUe& ue) {
  ue.grant = Grant::kHeld;
  ++busy_;
  ue.hold_start = sim_.now();
  note_busy();
}

// --- whole-cell outages ---------------------------------------------------

/// The cell goes dark: every attached UE loses coverage at once.  Grants
/// are not freed here — each holder drains through its own RLF detection
/// (T313-style) into OUT_OF_SERVICE, whose DCH-exit hook frees the grant;
/// admission is blocked for the whole window via cell_down_.
void CellSim::cell_outage_begin() {
  cell_down_ = true;
  ++cell_outages_;
  if (telemetry_) {
    telemetry_->sample("cell.down", sim_.now(), 1.0);
  }
  for (CellUe* ue : members_) {
    if (ue->outage) ue->outage->coverage_lost();
  }
}

/// Coverage returns: every RLF'd UE starts re-establishment (bounded
/// attempts with backoff), idle campers re-camp silently, and admission
/// re-ramps as re-established holders re-acquire grants.
void CellSim::cell_outage_end() {
  cell_down_ = false;
  if (telemetry_) {
    telemetry_->sample("cell.down", sim_.now(), 0.0);
  }
  for (CellUe* ue : members_) {
    if (ue->outage) ue->outage->coverage_restored();
  }
}

// --- bandwidth sharing ----------------------------------------------------

/// Recomputes every active UE's link capacity.  Re-entrant calls (a
/// set_capacity completing a flow whose callback starts another) fold
/// into one loop pass; termination is guaranteed because set_capacity
/// no-ops on an unchanged value and no simulated time passes in here.
void CellSim::rebalance() {
  if (rebalancing_) {
    rebalance_dirty_ = true;
    return;
  }
  rebalancing_ = true;
  do {
    rebalance_dirty_ = false;
    active_.clear();
    for (CellUe* ue : members_) {
      if (ue->link.active_flows() > 0 && !ue->link.paused()) {
        active_.push_back(ue);
      }
    }
    if (active_.empty()) continue;
    if (config_.share == SharePolicy::kRoundRobin) {
      const BytesPerSecond share =
          cell_rate_ / static_cast<double>(active_.size());
      for (CellUe* ue : active_) {
        ue->link.set_capacity(std::clamp(share, 1.0, per_ue_rate_));
      }
    } else {
      double total_weight = 0;
      for (CellUe* ue : active_) {
        total_weight +=
            1.0 / (1.0 + static_cast<double>(ue->link.delivered()) /
                             kFairShareRefBytes);
      }
      for (CellUe* ue : active_) {
        const double weight =
            1.0 / (1.0 + static_cast<double>(ue->link.delivered()) /
                             kFairShareRefBytes);
        const BytesPerSecond share = cell_rate_ * weight / total_weight;
        ue->link.set_capacity(std::clamp(share, 1.0, per_ue_rate_));
      }
    }
  } while (rebalance_dirty_);
  rebalancing_ = false;
}

// --- session process ------------------------------------------------------

void CellSim::schedule_first_arrival(CellUe& ue) {
  const Seconds at = ue.rng.exponential(config_.mean_think_time);
  if (at >= config_.horizon) return;
  sim_.schedule_at(at, [&ue] { ue.cell->start_session(ue); });
}

void CellSim::schedule_next_arrival(CellUe& ue) {
  const Seconds at =
      sim_.now() + ue.rng.exponential(config_.mean_think_time);
  if (at >= config_.horizon) return;
  sim_.schedule_at(at, [&ue] { ue.cell->start_session(ue); });
}

void CellSim::start_session(CellUe& ue) {
  ++ue.stats.offered;
  // Draw the whole per-session decision tuple up front so the stream is
  // identical whether or not this session is admitted.
  const std::size_t spec_index = static_cast<std::size_t>(
      ue.rng.uniform_index(config_.specs.size()));
  const bool wants_abort =
      config_.abort_rate > 0 && ue.rng.chance(config_.abort_rate);
  const Seconds abort_after = wants_abort ? ue.rng.uniform(0.5, 10.0) : 0.0;
  if (!try_admit(ue)) {
    ++ue.stats.dropped;
    schedule_next_arrival(ue);
    return;
  }
  ++ue.stats.admitted;
  begin_load(ue, spec_index, wants_abort, abort_after);
}

void CellSim::begin_load(CellUe& ue, std::size_t spec_index, bool wants_abort,
                         Seconds abort_after) {
  // The previous session's objects stay alive through the think time (a
  // late watchdog or RRC event may still reference them) and are torn
  // down only now, when the next session needs the slot.  The retired
  // retries accrue in the cell that serves the NEW session.
  if (ue.client) retired_retries_ += ue.client->stats().retries;
  ue.load.reset();
  ue.client.reset();
  ++ue.generation;

  const corpus::PageSpec& spec = config_.specs[spec_index];
  if (ue.hosted_urls[spec_index].empty()) {
    ue.hosted_urls[spec_index] = ue.generator.host_page(spec, ue.server);
  }
  ue.client = ue.make_client(ue.server);
  const std::uint64_t load_seed = derive_seed(
      ue.seed, static_cast<std::uint64_t>(ue.sessions_started));
  ++ue.sessions_started;
  ue.load = ue.make_load(*ue.client, spec, load_seed);

  ue.session_active = true;
  const int gen = ue.generation;
  ue.load->start(ue.hosted_urls[spec_index],
                 [&ue, gen](const browser::LoadMetrics& m) {
                   if (ue.generation != gen) return;
                   ue.cell->on_session_done(ue, m);
                 });
  if (wants_abort) {
    sim_.schedule_in(abort_after, [&ue, gen] {
      // Stale by the time it fires (the load settled and the next session
      // replaced it): the generation check makes it a no-op.
      if (ue.generation == gen && ue.load) ue.load->abort();
    });
  }
}

void CellSim::on_session_done(CellUe& ue, const browser::LoadMetrics& m) {
  ue.session_active = false;
  if (m.aborted) {
    ++ue.stats.aborted;
  } else {
    ++ue.stats.completed;
  }
  ue.stats.total_load_time += m.total_time();
  ue.stats.total_service_time += m.transmission_time();
  release_if_reserved(ue);
  schedule_next_arrival(ue);
}

// --- telemetry ------------------------------------------------------------
// Null-sink idiom (DESIGN.md §11): telemetry_ is null when disabled, and
// every sampling site is guarded, so a disabled run schedules zero extra
// events and stays bit-identical to a build without telemetry.

/// Samples every cross-layer gauge at simulated time `t`.  Read-only over
/// the simulation state: the workload trajectory is unchanged.  Gauges
/// cover the UEs currently attached to this cell.
void CellSim::sample_gauges(Seconds t) {
  const radio::RadioPowerModel& power = config_.per_ue.stack.power;
  int idle = 0, fach = 0, dch = 0, oos = 0;
  double radio_w = 0, flows = 0, link_bps = 0;
  double energy_idle = 0, energy_fach = 0, energy_dch = 0, energy_oos = 0;
  std::uint64_t in_flight = 0, queued = 0, retries = retired_retries_;
  std::uint64_t offered = 0, dropped = 0, aborted = 0;
  std::uint64_t rlf = 0, reestablish_ok = 0, reestablish_fail = 0;
  for (const CellUe* owner : members_) {
    const CellUe& ue = *owner;
    const radio::RrcState state = ue.rrc.state();
    switch (state) {
      case radio::RrcState::kIdle: ++idle; break;
      case radio::RrcState::kFach: ++fach; break;
      case radio::RrcState::kDch: ++dch; break;
      case radio::RrcState::kOutOfService: ++oos; break;
    }
    radio_w += ue.rrc.power().current_power();
    // Residency-derived cumulative energy at the nominal per-state dwell
    // powers (Table 5); transfer and signalling overlays live in the exact
    // per-UE PowerTimeline, this series tracks where the joules accrue.
    energy_idle += ue.rrc.time_in(radio::RrcState::kIdle) * power.idle;
    energy_fach += ue.rrc.time_in(radio::RrcState::kFach) * power.fach;
    energy_dch +=
        ue.rrc.time_in(radio::RrcState::kDch) * power.dch_no_transfer;
    if (outage_enabled_) {
      energy_oos += ue.rrc.time_in(radio::RrcState::kOutOfService) *
                    power.out_of_service;
      rlf += static_cast<std::uint64_t>(ue.rrc.rlf_count());
      reestablish_ok += static_cast<std::uint64_t>(ue.rrc.reestablish_ok());
      reestablish_fail +=
          static_cast<std::uint64_t>(ue.rrc.reestablish_fail());
    }
    const std::size_t ue_flows = ue.link.active_flows();
    flows += static_cast<double>(ue_flows);
    if (ue_flows > 0 && !ue.link.paused()) link_bps += ue.link.capacity();
    std::uint64_t ue_fetches = 0;
    if (ue.client) {
      in_flight += static_cast<std::uint64_t>(ue.client->in_flight());
      queued += ue.client->queued();
      retries += ue.client->stats().retries;
      ue_fetches = static_cast<std::uint64_t>(ue.client->in_flight()) +
                   ue.client->queued();
    }
    offered += static_cast<std::uint64_t>(ue.stats.offered);
    dropped += static_cast<std::uint64_t>(ue.stats.dropped);
    aborted += static_cast<std::uint64_t>(ue.stats.aborted);
    if (telemetry_->config().per_ue) {
      char name[32];
      std::snprintf(name, sizeof name, "ue%03d.rrc_state", ue.id);
      telemetry_->sample(name, t, static_cast<double>(state));
      std::snprintf(name, sizeof name, "ue%03d.fetches", ue.id);
      telemetry_->sample(name, t, static_cast<double>(ue_fetches));
    }
  }
  telemetry_->sample("cell.rrc_idle", t, idle);
  telemetry_->sample("cell.rrc_fach", t, fach);
  telemetry_->sample("cell.rrc_dch", t, dch);
  telemetry_->sample("cell.busy_grants", t, static_cast<double>(busy_));
  telemetry_->sample("cell.grant_overcommits", t,
                     static_cast<double>(overcommits_));
  telemetry_->sample("cell.radio_power_w", t, radio_w);
  telemetry_->sample("cell.energy_idle_j", t, energy_idle);
  telemetry_->sample("cell.energy_fach_j", t, energy_fach);
  telemetry_->sample("cell.energy_dch_j", t, energy_dch);
  telemetry_->sample("cell.active_flows", t, flows);
  telemetry_->sample("cell.link_bps", t, link_bps);
  telemetry_->sample("cell.inflight_fetches", t,
                     static_cast<double>(in_flight));
  telemetry_->sample("cell.queued_fetches", t, static_cast<double>(queued));
  telemetry_->sample("cell.offered", t, static_cast<double>(offered));
  telemetry_->sample("cell.dropped", t, static_cast<double>(dropped));
  telemetry_->sample("cell.aborted", t, static_cast<double>(aborted));
  telemetry_->sample("cell.retries", t, static_cast<double>(retries));
  // Registered only when an outage knob is on: a disabled run's telemetry
  // blob stays byte-identical to a build without the radio failure model.
  if (outage_enabled_) {
    telemetry_->sample("cell.rrc_oos", t, oos);
    telemetry_->sample("cell.energy_oos_j", t, energy_oos);
    telemetry_->sample("cell.rlf", t, static_cast<double>(rlf));
    telemetry_->sample("cell.reestablish_ok", t,
                       static_cast<double>(reestablish_ok));
    telemetry_->sample("cell.reestablish_fail", t,
                       static_cast<double>(reestablish_fail));
  }
}

/// Self-rescheduling sampling tick.  The chain ends one tick after the
/// whole simulator's workload drains (TickCoordinator::keep_alive), so the
/// run terminates exactly as it would without telemetry — just later by
/// the tick events themselves; the driver's run loop excludes tick events
/// from the end-of-run accounting via consume_tick_fired().
void CellSim::schedule_tick(Seconds at) {
  sim_.schedule_at(at, [this, at] {
    ticks_->mark_tick();
    sample_gauges(at);
    if (ticks_->keep_alive(sim_.pending_count())) {
      schedule_tick(at + config_.telemetry_tick);
    }
  });
}

void CellSim::start_telemetry() {
  // Baseline sample at t=0 (no event needed: the clock hasn't started),
  // then the self-rescheduling tick.  Ticks live on the cell's base shard;
  // descendants inherit the firing event's shard, so the chain stays there
  // and the merged fire order is bit-identical at any shard count.
  sample_gauges(0.0);
  ticks_->chain_started();
  schedule_tick(config_.telemetry_tick);
}

// --- end of run -----------------------------------------------------------

CellResult CellSim::finalize(Seconds end, std::uint64_t sim_events) {
  note_busy();

  CellResult result;
  result.users = config_.users;
  result.channels = config_.channels;
  result.end_time = end;
  result.sim_events = sim_events;
  result.grant_overcommits = overcommits_;
  result.peak_busy_grants = peak_busy_;
  result.mean_busy_grants = end > 0 ? busy_timeline_.energy(0, end) / end : 0;
  result.mean_grant_hold =
      hold_intervals_ > 0 ? held_total_ / static_cast<double>(hold_intervals_)
                          : 0;
  result.per_ue.reserve(home_ues_.size());
  for (CellUe* ue : home_ues_) {
    ue->stats.energy = core::EnergyReport::measure(
        PowerTimeline::sum(ue->rrc.power(), ue->cpu.power()), ue->rrc.power(),
        end, end);
    ue->stats.trace = ue->trace;
    ue->stats.radio_outages = ue->outage ? ue->outage->outages_started() : 0;
    ue->stats.rlf = ue->rrc.rlf_count();
    ue->stats.reestablish_ok = ue->rrc.reestablish_ok();
    ue->stats.reestablish_fail = ue->rrc.reestablish_fail();
    ue->stats.out_of_service_time =
        ue->rrc.time_in(radio::RrcState::kOutOfService);
    result.radio_outages += static_cast<std::uint64_t>(ue->stats.radio_outages);
    result.rlf += static_cast<std::uint64_t>(ue->stats.rlf);
    result.reestablish_ok +=
        static_cast<std::uint64_t>(ue->stats.reestablish_ok);
    result.reestablish_fail +=
        static_cast<std::uint64_t>(ue->stats.reestablish_fail);
    result.offered += static_cast<std::uint64_t>(ue->stats.offered);
    result.dropped += static_cast<std::uint64_t>(ue->stats.dropped);
    result.completed += static_cast<std::uint64_t>(ue->stats.completed);
    result.aborted += static_cast<std::uint64_t>(ue->stats.aborted);
    result.leaked_flows +=
        static_cast<std::uint64_t>(ue->link.active_flows());
    result.per_ue.push_back(ue->stats);
  }

  result.metrics.count("cell.offered", static_cast<double>(result.offered));
  result.metrics.count("cell.dropped", static_cast<double>(result.dropped));
  result.metrics.count("cell.completed",
                       static_cast<double>(result.completed));
  result.metrics.count("cell.aborted", static_cast<double>(result.aborted));
  result.metrics.count("cell.grant_overcommits",
                       static_cast<double>(overcommits_));
  result.metrics.count("cell.sim_events",
                       static_cast<double>(result.sim_events));
  result.metrics.set_max("cell.peak_busy_grants",
                         static_cast<double>(peak_busy_));
  result.metrics.set_max("cell.users", static_cast<double>(config_.users));
  result.metrics.observe("cell.mean_busy_grants", result.mean_busy_grants);
  result.metrics.observe("cell.drop_probability", result.drop_probability());
  result.cell_outages = cell_outages_;
  // Registered only when an outage knob is on, so a disabled run's metrics
  // snapshot is byte-identical to a build without the radio failure model.
  if (outage_enabled_) {
    result.metrics.count("cell.outages", static_cast<double>(cell_outages_));
    result.metrics.count("cell.radio_outages",
                         static_cast<double>(result.radio_outages));
    result.metrics.count("cell.rlf", static_cast<double>(result.rlf));
    result.metrics.count("cell.reestablish_ok",
                         static_cast<double>(result.reestablish_ok));
    result.metrics.count("cell.reestablish_fail",
                         static_cast<double>(result.reestablish_fail));
  }
  result.telemetry = telemetry_result_;
  return result;
}

}  // namespace eab::cell
