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
// Execution: every distinct run of the three questions is listed once and
// the list runs as one bench::sweep over one journal (metro.journal): on the
// shared in-process pool, or under EAB_SUPERVISE=1 on forked, supervised
// workers with durable resume under EAB_CHECKPOINT_DIR.  stdout and
// BENCH_metro.json are byte-identical either way and after a SIGKILL-resumed
// journal — check.sh gates both.  A row that two questions share is one run:
// the price table's dwell-0 instant row is its dwell-0 hard run, and its
// configured-dwell hard row is the users table's top energy-aware point.
// The consumer folds each MetroResult into a PointSummary as it arrives.
#include "bench_common.hpp"

#include "metro/metro.hpp"

namespace {

using namespace eab;

constexpr double kDropTarget = 0.05;  // 5 % dropping service level

/// One metro run, and its key: equal runs are one run.
struct Run {
  browser::PipelineMode mode = browser::PipelineMode::kEnergyAware;
  int grid_w = 3;
  int grid_h = 3;
  int users = 24;  // mean homes per cell
  std::uint64_t seed = 1;
  Seconds horizon = 600.0;
  Seconds dwell = 120.0;
  double hotspot = 0.5;
  metro::HandoverPolicy policy = metro::HandoverPolicy::kHard;

  bool operator==(const Run&) const = default;
};

/// At dwell 0 no UE moves and move_ue is never called, so the policy cannot
/// change a result: fold it to hard, making both policies one run.
Run canonical(Run run) {
  if (run.dwell == 0) run.policy = metro::HandoverPolicy::kHard;
  return run;
}

/// The streaming fold of one metro run: everything the table, the capacity
/// interpolation and the JSON artifact need, in O(1) memory per point.
struct PointSummary {
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

PointSummary summarize(const metro::MetroResult& result) {
  PointSummary s;
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

metro::MetroConfig metro_config(const Run& run) {
  cell::CellConfig cell;
  cell.per_ue = core::ScenarioBuilder(run.mode).build();
  cell.specs = corpus::mobile_benchmark();
  cell.users = run.users;
  cell.channels = 6;
  cell.horizon = run.horizon;
  cell.cell_seed = run.seed;
  return metro::MetroBuilder()
      .grid(run.grid_w, run.grid_h)
      .cell(cell)
      .mean_dwell(run.dwell)
      .hotspot(run.hotspot)
      .policy(run.policy)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  using enum browser::PipelineMode;
  using enum metro::HandoverPolicy;
  if (bench::maybe_print_help(
          argc, argv, "bench_metro",
          "metro-scale multi-cell capacity with mobility and handover",
          {"EAB_METRO_GRID_W", "EAB_METRO_GRID_H", "EAB_METRO_USERS",
           "EAB_METRO_SEED", "EAB_METRO_HORIZON", "EAB_METRO_DWELL",
           "EAB_METRO_HOTSPOT", "EAB_METRO_SCALE",
           "EAB_SUPERVISE", "EAB_CHECKPOINT_DIR", "EAB_SELF_CHAOS",
           "EAB_SELF_CHAOS_KILLS", "EAB_SELF_CHAOS_ORC", "EAB_PROGRESS",
           "EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Metro",
                      "multi-cell capacity with mobility and handover");

  Run params;  // the configured metro; users is the top of the users axis
  params.grid_w = static_cast<int>(bench::knobs().u64_or("EAB_METRO_GRID_W", 3));
  params.grid_h = static_cast<int>(bench::knobs().u64_or("EAB_METRO_GRID_H", 3));
  params.users = static_cast<int>(bench::knobs().u64_or("EAB_METRO_USERS", 24));
  params.seed = bench::knobs().u64_or("EAB_METRO_SEED", 1);
  params.horizon = bench::knobs().f64_or("EAB_METRO_HORIZON", 600.0);
  params.dwell = bench::knobs().f64_or("EAB_METRO_DWELL", 120.0);
  params.hotspot = bench::knobs().f64_or("EAB_METRO_HOTSPOT", 0.5);

  // Four evenly spaced users points ending exactly at the configured top.
  std::vector<int> users_axis;
  const int step = std::max(1, (params.users + 3) / 4);
  for (int users = step; users < params.users; users += step) {
    users_axis.push_back(users);
  }
  users_axis.push_back(params.users);

  // The price of handover signalling: at the top of the users axis, sweep
  // the dwell time (shorter dwell = more handovers) and compare the hard
  // policy against the idealized instant one on the energy-aware pipeline.
  std::vector<Seconds> dwell_axis{0.0};
  if (params.dwell > 0) {
    dwell_axis.insert(dwell_axis.end(), {4 * params.dwell, 2 * params.dwell,
                                         params.dwell, params.dwell / 2});
  }

  // Optional scale point: one grid sized to >= 100k concurrent sessions,
  // short horizon, still a single streaming fold.
  const bool scale_on = bench::knobs().flag("EAB_METRO_SCALE");
  Run scale_run = params;
  scale_run.grid_w = 16;
  scale_run.grid_h = 16;    // 256 cells, the metro's limit
  scale_run.users = 391;    // 256 * 391 = 100,096 sessions
  scale_run.horizon = 30.0;
  scale_run.dwell = 60.0;

  std::printf("metro: %dx%d cells, 6 channel pairs each, %.0f s horizon, "
              "mean dwell %.0f s, hotspot %.2f, policy %s, seed %llu\n",
              params.grid_w, params.grid_h, params.horizon, params.dwell,
              params.hotspot, metro::to_string(kHard),
              static_cast<unsigned long long>(params.seed));

  // Every row looks its run up by key, so a row two questions share is one
  // run.  The list holds each distinct run once, largest users/cell first so
  // the slowest runs start at once.
  const auto key = [&params](browser::PipelineMode mode, int users,
                             Seconds dwell, metro::HandoverPolicy policy) {
    Run run = params;
    run.mode = mode;
    run.users = users;
    run.dwell = dwell;
    run.policy = policy;
    return canonical(run);
  };
  std::vector<Run> runs;
  const auto list = [&runs](const Run& run) {
    if (std::find(runs.begin(), runs.end(), run) == runs.end()) {
      runs.push_back(run);
    }
  };
  for (const auto mode : {kOriginal, kEnergyAware}) {
    for (const int users : users_axis) {
      list(key(mode, users, params.dwell, kHard));
    }
  }
  for (const Seconds dwell : dwell_axis) {
    list(key(kEnergyAware, users_axis.back(), dwell, kHard));
    list(key(kEnergyAware, users_axis.back(), dwell, kInstant));
  }
  if (scale_on) list(scale_run);
  std::stable_sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.users > b.users;
  });

  std::vector<PointSummary> summaries(runs.size());
  if (!bench::sweep(
          "metro.journal", runs.size(),
          [&](std::size_t i) {
            return metro::run_metro(metro_config(runs[i]));
          },
          [&](std::size_t i, metro::MetroResult&& result) {
            summaries[i] = summarize(result);
          },
          metro::serialize_metro_result, metro::deserialize_metro_result)) {
    return 1;
  }
  const auto summary_of = [&](const Run& run) -> const PointSummary& {
    return summaries[static_cast<std::size_t>(
        std::find(runs.begin(), runs.end(), run) - runs.begin())];
  };

  std::vector<PointSummary> orig;
  std::vector<PointSummary> ea;
  std::vector<double> orig_drops;
  std::vector<double> ea_drops;
  for (const int users : users_axis) {
    orig.push_back(summary_of(key(kOriginal, users, params.dwell, kHard)));
    ea.push_back(summary_of(key(kEnergyAware, users, params.dwell, kHard)));
    orig_drops.push_back(orig.back().drop);
    ea_drops.push_back(ea.back().drop);
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

  const double cap_orig =
      cell::users_at_drop_target(users_axis, orig_drops, kDropTarget);
  const double cap_ea =
      cell::users_at_drop_target(users_axis, ea_drops, kDropTarget);
  std::printf("metro capacity at %.0f%% dropping: original %.1f users/cell, "
              "energy-aware %.1f users/cell -> +%.1f%%\n",
              kDropTarget * 100, cap_orig, cap_ea,
              cap_orig > 0 ? 100.0 * (cap_ea - cap_orig) / cap_orig : 0.0);

  struct PricePoint {
    Seconds dwell = 0;
    PointSummary hard;
    PointSummary instant;
  };
  std::vector<PricePoint> price;
  for (const Seconds dwell : dwell_axis) {
    price.push_back(
        {dwell, summary_of(key(kEnergyAware, users_axis.back(), dwell, kHard)),
         summary_of(key(kEnergyAware, users_axis.back(), dwell, kInstant))});
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

  PointSummary scale;
  if (scale_on) {
    scale = summary_of(scale_run);
    std::printf("scale: %d concurrent sessions across %dx%d cells, "
                "%llu offered, %llu handovers, %llu events, end %.2f s\n",
                scale.total_users, scale_run.grid_w, scale_run.grid_h,
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
                 params.hotspot, metro::to_string(kHard),
                 static_cast<unsigned long long>(params.seed), kDropTarget,
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
