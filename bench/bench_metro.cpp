// Metro-scale capacity: EA vs Original across a multi-cell grid with
// seed-derived UE mobility, cell reselection and hard handover.
//
// Three questions, one harness:
//
//   1. Capacity under mobility — the Fig 11 claim at metro scale: per-cell
//      users vs session-dropping probability for both pipelines, with the
//      5 % service-level capacity interpolated from the sweep
//      (cell::users_at_drop_target).
//   2. The price of handover signalling — at the top of the users axis,
//      a dwell-time sweep (shorter dwell = higher handover rate) compares
//      the hard-handover policy (Table-5 signalling exchange, flows paused)
//      against the idealized instant policy.  The gap is the energy and
//      drop cost attributable purely to handover signalling.
//   3. Scale (EAB_METRO_SCALE=1) — one large grid sized to >= 100k
//      concurrent simulated sessions, aggregated in constant memory.
//
// Execution mirrors bench_fig11_capacity --cell: the default path runs the
// sweep through the shared in-process pool; EAB_SUPERVISE=1 moves it onto
// forked, heartbeat-supervised workers with durable checkpoint resume under
// EAB_CHECKPOINT_DIR.  stdout and BENCH_metro.json are byte-identical
// across serial and supervised execution — check.sh gates this.
// Aggregation is streaming: the sweep consumer folds each MetroResult into
// per-point summaries as it arrives and drops the full result (no
// vectors-of-results across the axis).
#include "bench_common.hpp"

#include "metro/metro.hpp"

namespace {

using namespace eab;

struct MetroParams {
  int grid_w = 3;
  int grid_h = 3;
  int max_users = 24;  // mean homes per cell, top of the axis
  std::uint64_t seed = 1;
  Seconds horizon = 600.0;
  Seconds dwell = 120.0;
  double hotspot = 0.5;
  metro::HandoverPolicy policy = metro::HandoverPolicy::kHard;
  double target = 0.05;  // 5 % dropping service level
};

/// The streaming fold of one metro run: everything the table, the capacity
/// interpolation and the JSON artifact need, in O(1) memory per point.
struct PointSummary {
  int users = 0;  // mean homes per cell
  int total_users = 0;
  double drop = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t reselects = 0;
  std::uint64_t handovers = 0;
  std::uint64_t handover_drops = 0;
  int home_min = 0;  // hotspot imbalance, smallest/largest cell
  int home_max = 0;
  double mean_ue_energy = 0;  // J incl. reading, averaged over every UE
  Seconds end_time = 0;
  std::uint64_t sim_events = 0;
};

double mean_ue_energy_of(const metro::MetroResult& result) {
  double total = 0;
  std::size_t ues = 0;
  for (const cell::CellResult& cr : result.cells) {
    for (const auto& ue : cr.per_ue) total += ue.energy.with_reading_j;
    ues += cr.per_ue.size();
  }
  return ues == 0 ? 0 : total / static_cast<double>(ues);
}

PointSummary summarize(int users, const metro::MetroResult& result) {
  PointSummary s;
  s.users = users;
  s.total_users = result.total_users;
  s.drop = result.drop_probability();
  s.offered = result.offered;
  s.completed = result.completed;
  s.reselects = result.reselects;
  s.handovers = result.handovers;
  s.handover_drops = result.handover_drops;
  s.home_min = result.home_users.empty() ? 0 : result.home_users.front();
  s.home_max = s.home_min;
  for (const int homes : result.home_users) {
    s.home_min = std::min(s.home_min, homes);
    s.home_max = std::max(s.home_max, homes);
  }
  s.mean_ue_energy = mean_ue_energy_of(result);
  s.end_time = result.end_time;
  s.sim_events = result.sim_events;
  return s;
}

metro::MetroConfig metro_config(browser::PipelineMode mode,
                                const MetroParams& params) {
  cell::CellConfig cell;
  cell.per_ue = core::ScenarioBuilder(mode).build();
  cell.specs = corpus::mobile_benchmark();
  cell.users = params.max_users;  // run_metro_sweep overrides per point
  cell.channels = 6;
  cell.horizon = params.horizon;
  cell.cell_seed = params.seed;
  return metro::MetroBuilder()
      .grid(params.grid_w, params.grid_h)
      .cell(cell)
      .mean_dwell(params.dwell)
      .hotspot(params.hotspot)
      .policy(params.policy)
      .build();
}

/// Runs the per-cell-users sweep for one mode through the selected
/// execution tier, folding each result into a PointSummary on arrival.
/// Returns false (after printing the shard errors) if supervision failed.
bool sweep_mode(const char* label, const metro::MetroConfig& base,
                const std::vector<int>& users_axis, const MetroParams& params,
                std::vector<PointSummary>& out) {
  out.assign(users_axis.size(), PointSummary{});
  const auto consume = [&](std::size_t i, const metro::MetroResult& result) {
    out[i] = summarize(users_axis[i], result);
  };
  core::SupervisorReport report;
  if (bench::knobs().flag("EAB_SUPERVISE")) {
    std::string fingerprint = "metro v1";
    bench::appendf(fingerprint,
                   " mode=%s grid=%dx%d seed=%llu horizon=%.17g"
                   " dwell=%.17g hotspot=%.17g policy=%s",
                   label, params.grid_w, params.grid_h,
                   static_cast<unsigned long long>(params.seed),
                   params.horizon, params.dwell, params.hotspot,
                   metro::to_string(params.policy));
    for (const int users : users_axis) {
      bench::appendf(fingerprint, " u%d", users);
    }
    core::Supervisor supervisor(bench::supervisor_config_from_env(
        std::string("metro_") + label + ".journal", fingerprint));
    report = metro::run_metro_sweep(
        base, users_axis, core::SweepExecution::supervised(supervisor),
        consume);
    std::fprintf(stderr, "%s\n", report.summary().c_str());
  } else {
    report = metro::run_metro_sweep(
        base, users_axis, core::SweepExecution::pooled(bench::shared_runner()),
        consume);
  }
  if (!report.ok()) {
    for (const core::ShardError& e : report.errors) {
      std::fprintf(stderr, "supervisor: shard %zu failed: %s\n", e.shard,
                   e.what.c_str());
    }
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_metro",
          "metro-scale multi-cell capacity with mobility and handover",
          {"EAB_METRO_GRID_W", "EAB_METRO_GRID_H", "EAB_METRO_USERS",
           "EAB_METRO_SEED", "EAB_METRO_HORIZON", "EAB_METRO_DWELL",
           "EAB_METRO_HOTSPOT", "EAB_METRO_INSTANT", "EAB_METRO_SCALE",
           "EAB_SUPERVISE", "EAB_WORKERS",
           "EAB_CHECKPOINT_DIR", "EAB_SELF_CHAOS", "EAB_SELF_CHAOS_KILLS",
           "EAB_SELF_CHAOS_ORC", "EAB_PROGRESS", "EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Metro",
                      "multi-cell capacity with mobility and handover");

  MetroParams params;
  params.grid_w = static_cast<int>(bench::knobs().u64_or("EAB_METRO_GRID_W", 3));
  params.grid_h = static_cast<int>(bench::knobs().u64_or("EAB_METRO_GRID_H", 3));
  params.max_users =
      static_cast<int>(bench::knobs().u64_or("EAB_METRO_USERS", 24));
  params.seed = bench::knobs().u64_or("EAB_METRO_SEED", 1);
  params.horizon = bench::knobs().f64_or("EAB_METRO_HORIZON", 600.0);
  params.dwell = bench::knobs().f64_or("EAB_METRO_DWELL", 120.0);
  params.hotspot = bench::knobs().f64_or("EAB_METRO_HOTSPOT", 0.5);
  if (bench::knobs().flag("EAB_METRO_INSTANT")) {
    params.policy = metro::HandoverPolicy::kInstant;
  }

  // Four evenly spaced users points ending exactly at the configured top.
  std::vector<int> users_axis;
  const int step = std::max(1, (params.max_users + 3) / 4);
  for (int users = step; users < params.max_users; users += step) {
    users_axis.push_back(users);
  }
  users_axis.push_back(params.max_users);

  std::printf("metro: %dx%d cells, 6 channel pairs each, %.0f s horizon, "
              "mean dwell %.0f s, hotspot %.2f, policy %s, seed %llu\n",
              params.grid_w, params.grid_h, params.horizon, params.dwell,
              params.hotspot, metro::to_string(params.policy),
              static_cast<unsigned long long>(params.seed));

  std::vector<PointSummary> orig;
  std::vector<PointSummary> ea;
  if (!sweep_mode("orig", metro_config(browser::PipelineMode::kOriginal, params),
                  users_axis, params, orig)) {
    return 1;
  }
  if (!sweep_mode("ea", metro_config(browser::PipelineMode::kEnergyAware, params),
                  users_axis, params, ea)) {
    return 1;
  }

  TextTable table({"users/cell", "total UEs", "homes min..max", "drop% orig",
                   "drop% ea", "handovers orig", "handovers ea",
                   "ho-drops orig", "ho-drops ea"});
  for (std::size_t i = 0; i < users_axis.size(); ++i) {
    table.add_row({std::to_string(users_axis[i]),
                   std::to_string(orig[i].total_users),
                   std::to_string(orig[i].home_min) + ".." +
                       std::to_string(orig[i].home_max),
                   format_fixed(100 * orig[i].drop, 2),
                   format_fixed(100 * ea[i].drop, 2),
                   std::to_string(orig[i].handovers),
                   std::to_string(ea[i].handovers),
                   std::to_string(orig[i].handover_drops),
                   std::to_string(ea[i].handover_drops)});
  }
  std::printf("%s", table.render().c_str());

  std::vector<double> orig_drops;
  std::vector<double> ea_drops;
  for (std::size_t i = 0; i < users_axis.size(); ++i) {
    orig_drops.push_back(orig[i].drop);
    ea_drops.push_back(ea[i].drop);
  }
  const double cap_orig =
      cell::users_at_drop_target(users_axis, orig_drops, params.target);
  const double cap_ea =
      cell::users_at_drop_target(users_axis, ea_drops, params.target);
  std::printf("metro capacity at %.0f%% dropping: original %.1f users/cell, "
              "energy-aware %.1f users/cell -> +%.1f%%\n",
              params.target * 100, cap_orig, cap_ea,
              cap_orig > 0 ? 100.0 * (cap_ea - cap_orig) / cap_orig : 0.0);

  // The price of handover signalling: at the top of the users axis, sweep
  // the dwell time (shorter dwell = more handovers) and compare the hard
  // policy against the idealized instant one on the energy-aware pipeline.
  // Each point is one in-process run, folded immediately — results are
  // identical on every tier, so the artifact stays byte-comparable.
  std::vector<Seconds> dwell_axis;
  if (params.dwell > 0) {
    dwell_axis = {0.0, 4 * params.dwell, 2 * params.dwell, params.dwell,
                  params.dwell / 2};
  } else {
    dwell_axis = {0.0};
  }
  struct PricePoint {
    Seconds dwell = 0;
    PointSummary hard;
    PointSummary instant;
  };
  std::vector<PricePoint> price;
  {
    MetroParams p = params;
    p.max_users = users_axis.back();
    for (const Seconds dwell : dwell_axis) {
      PricePoint point;
      point.dwell = dwell;
      p.dwell = dwell;
      p.policy = metro::HandoverPolicy::kHard;
      point.hard = summarize(
          p.max_users,
          metro::run_metro(metro_config(browser::PipelineMode::kEnergyAware, p)));
      p.policy = metro::HandoverPolicy::kInstant;
      point.instant = summarize(
          p.max_users,
          metro::run_metro(metro_config(browser::PipelineMode::kEnergyAware, p)));
      price.push_back(point);
    }
  }
  TextTable price_table({"dwell s", "handovers", "drop% hard", "drop% instant",
                         "J/UE hard", "J/UE instant"});
  for (const PricePoint& point : price) {
    price_table.add_row({format_fixed(point.dwell, 0),
                         std::to_string(point.hard.handovers),
                         format_fixed(100 * point.hard.drop, 2),
                         format_fixed(100 * point.instant.drop, 2),
                         format_fixed(point.hard.mean_ue_energy, 1),
                         format_fixed(point.instant.mean_ue_energy, 1)});
  }
  std::printf("handover signalling price (energy-aware, %d users/cell):\n%s",
              users_axis.back(), price_table.render().c_str());

  // Optional scale point: one grid sized to >= 100k concurrent sessions,
  // short horizon, still a single streaming fold.
  PointSummary scale;
  const bool scale_on = bench::knobs().flag("EAB_METRO_SCALE");
  if (scale_on) {
    MetroParams p = params;
    p.grid_w = 16;
    p.grid_h = 16;    // 256 cells, the metro's limit
    p.max_users = 391;  // 256 * 391 = 100,096 sessions
    p.horizon = 30.0;
    p.dwell = 60.0;
    std::vector<PointSummary> out;
    if (!sweep_mode("scale",
                    metro_config(browser::PipelineMode::kEnergyAware, p),
                    {p.max_users}, p, out)) {
      return 1;
    }
    scale = out[0];
    std::printf("scale: %d concurrent sessions across %dx%d cells, "
                "%llu offered, %llu handovers, %llu events, end %.2f s\n",
                scale.total_users, p.grid_w, p.grid_h,
                static_cast<unsigned long long>(scale.offered),
                static_cast<unsigned long long>(scale.handovers),
                static_cast<unsigned long long>(scale.sim_events),
                scale.end_time);
  }

  std::string json;
  bench::appendf(json,
                 "{\n"
                 "  \"grid_w\": %d,\n"
                 "  \"grid_h\": %d,\n"
                 "  \"horizon_s\": %.17g,\n"
                 "  \"mean_dwell_s\": %.17g,\n"
                 "  \"hotspot\": %.17g,\n"
                 "  \"policy\": \"%s\",\n"
                 "  \"seed\": %llu,\n"
                 "  \"drop_target\": %.17g,\n"
                 "  \"capacity_original\": %.17g,\n"
                 "  \"capacity_energy_aware\": %.17g,\n"
                 "  \"points\": [\n",
                 params.grid_w, params.grid_h, params.horizon, params.dwell,
                 params.hotspot, metro::to_string(params.policy),
                 static_cast<unsigned long long>(params.seed), params.target,
                 cap_orig, cap_ea);
  for (std::size_t i = 0; i < users_axis.size(); ++i) {
    bench::appendf(
        json,
        "    {\"users_per_cell\": %d, \"total_users\": %d,"
        " \"drop_original\": %.17g, \"drop_energy_aware\": %.17g,"
        " \"offered_original\": %llu, \"offered_energy_aware\": %llu,"
        " \"reselects_original\": %llu, \"reselects_energy_aware\": %llu,"
        " \"handovers_original\": %llu, \"handovers_energy_aware\": %llu,"
        " \"handover_drops_original\": %llu,"
        " \"handover_drops_energy_aware\": %llu,"
        " \"mean_ue_energy_original_j\": %.17g,"
        " \"mean_ue_energy_energy_aware_j\": %.17g}%s\n",
        users_axis[i], orig[i].total_users, orig[i].drop, ea[i].drop,
        static_cast<unsigned long long>(orig[i].offered),
        static_cast<unsigned long long>(ea[i].offered),
        static_cast<unsigned long long>(orig[i].reselects),
        static_cast<unsigned long long>(ea[i].reselects),
        static_cast<unsigned long long>(orig[i].handovers),
        static_cast<unsigned long long>(ea[i].handovers),
        static_cast<unsigned long long>(orig[i].handover_drops),
        static_cast<unsigned long long>(ea[i].handover_drops),
        orig[i].mean_ue_energy, ea[i].mean_ue_energy,
        i + 1 < users_axis.size() ? "," : "");
  }
  bench::appendf(json, "  ],\n  \"handover_price\": [\n");
  for (std::size_t i = 0; i < price.size(); ++i) {
    bench::appendf(
        json,
        "    {\"dwell_s\": %.17g, \"handovers_hard\": %llu,"
        " \"handover_drops_hard\": %llu,"
        " \"drop_hard\": %.17g, \"drop_instant\": %.17g,"
        " \"mean_ue_energy_hard_j\": %.17g,"
        " \"mean_ue_energy_instant_j\": %.17g}%s\n",
        price[i].dwell, static_cast<unsigned long long>(price[i].hard.handovers),
        static_cast<unsigned long long>(price[i].hard.handover_drops),
        price[i].hard.drop, price[i].instant.drop,
        price[i].hard.mean_ue_energy, price[i].instant.mean_ue_energy,
        i + 1 < price.size() ? "," : "");
  }
  bench::appendf(json, "  ]");
  if (scale_on) {
    // Rides along only when the scale knob is set, so the default artifact
    // stays byte-identical.
    bench::appendf(json,
                   ",\n  \"scale\": {\"sessions\": %d, \"offered\": %llu,"
                   " \"completed\": %llu, \"handovers\": %llu,"
                   " \"reselects\": %llu, \"sim_events\": %llu,"
                   " \"end_time_s\": %.17g}",
                   scale.total_users,
                   static_cast<unsigned long long>(scale.offered),
                   static_cast<unsigned long long>(scale.completed),
                   static_cast<unsigned long long>(scale.handovers),
                   static_cast<unsigned long long>(scale.reselects),
                   static_cast<unsigned long long>(scale.sim_events),
                   scale.end_time);
  }
  bench::appendf(json, "\n}\n");
  bench::write_artifact("BENCH_metro.json", json);
  bench::print_script_memo_stats();
  return 0;
}
