#include "cell/cell.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "cell/cell_sim.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace eab::cell {

const char* to_string(SharePolicy policy) {
  switch (policy) {
    case SharePolicy::kRoundRobin: return "round-robin";
    case SharePolicy::kProportionalFair: return "proportional-fair";
  }
  return "?";
}

CellResult run_cell(const CellConfig& config) {
  validate_cell_config(config);
  sim::Simulator sim;
  sim.set_event_budget(config.sim_event_budget);
  TickCoordinator ticks;
  const bool telemetry = config.telemetry_tick > 0;
  CellSim cell(sim, config, /*cell_index=*/0, telemetry ? &ticks : nullptr);
  std::vector<std::unique_ptr<CellUe>> ues;
  ues.reserve(config.users);
  for (int id = 0; id < config.users; ++id) {
    ues.push_back(cell.make_ue(
        id, derive_seed(config.cell_seed, static_cast<std::uint64_t>(id))));
  }
  if (config.cell_outage_count > 0) cell.schedule_cell_outages();
  for (auto& ue : ues) cell.schedule_first_arrival(*ue);
  Seconds workload_end = 0;
  if (telemetry) {
    cell.start_telemetry();
    // The trailing tick — the one that finds the queue drained — is always
    // the very last event, so the last non-tick event is the last workload
    // event.  Tracking its time makes end_time, every energy window and
    // mean_busy_grants bit-identical to an unsampled run; the only
    // observable delta of sampling stays sim_events itself.
    while (sim.step()) {
      if (!ticks.consume_tick_fired()) workload_end = sim.now();
    }
  } else {
    sim.run();
  }
  const Seconds end = telemetry ? workload_end : sim.now();
  return cell.finalize(end, sim.fired_count());
}

namespace {

// v2 appends the optional telemetry blob after the metrics registry; v3
// adds the radio-failure accounting (cell aggregates + per-UE fields).
constexpr std::uint32_t kCellResultVersion = 3;

/// The CellResult layout after the version word (util/bytes.hpp visitor).
template <class Io, class R>
void fields(Io& io, R& result) {
  io(result.users, result.channels, result.offered, result.dropped,
     result.completed, result.aborted, result.grant_overcommits,
     result.radio_outages, result.rlf, result.reestablish_ok,
     result.reestablish_fail, result.cell_outages, result.mean_busy_grants,
     result.peak_busy_grants, result.mean_grant_hold, result.leaked_flows,
     result.end_time, result.sim_events);
  io.seq(result.per_ue, [](Io& io, auto& ue) {
    io(ue.offered, ue.admitted, ue.dropped, ue.completed, ue.aborted,
       ue.total_load_time, ue.total_service_time, ue.radio_outages, ue.rlf,
       ue.reestablish_ok, ue.reestablish_fail, ue.out_of_service_time,
       ue.energy.load_j, ue.energy.with_reading_j, ue.energy.radio_j,
       ue.energy.window_s);
  });
  io(result.metrics);
  bool has_telemetry = result.telemetry != nullptr;
  io(has_telemetry);
  if (has_telemetry) {
    if constexpr (Io::kReading) {
      result.telemetry = std::make_shared<obs::Telemetry>();
    }
    io(*result.telemetry);
  }
}

}  // namespace

std::string serialize_cell_result(const CellResult& result) {
  for (const UeStats& ue : result.per_ue) {
    if (ue.trace) {
      throw std::invalid_argument(
          "serialize_cell_result: traced results cannot cross the process "
          "boundary; run supervised sweeps with tracing off");
    }
  }
  std::string out;
  BinaryWriter w(out);
  w.u32(kCellResultVersion);
  fields(w, result);
  return out;
}

CellResult deserialize_cell_result(std::string_view bytes) {
  BinaryReader r(bytes);
  if (r.u32() != kCellResultVersion) {
    throw std::runtime_error(
        "deserialize_cell_result: unknown record version");
  }
  CellResult result;
  fields(r, result);
  r.expect_done();
  return result;
}

double users_at_drop_target(const std::vector<int>& users_axis,
                            const std::vector<double>& drops, double target) {
  if (users_axis.size() != drops.size() || users_axis.empty()) {
    throw std::invalid_argument(
        "users_at_drop_target: axis/drops size mismatch or empty");
  }
  double previous_users = users_axis.front();
  double previous_drop = drops.front();
  if (previous_drop >= target) return previous_users;
  for (std::size_t i = 1; i < users_axis.size(); ++i) {
    const double users = users_axis[i];
    const double drop = drops[i];
    if (drop >= target) {
      const double slope =
          (drop - previous_drop) / std::max(1e-9, users - previous_users);
      return previous_users + (target - previous_drop) / std::max(1e-9, slope);
    }
    previous_users = users;
    previous_drop = drop;
  }
  return users_axis.back();
}

}  // namespace eab::cell
