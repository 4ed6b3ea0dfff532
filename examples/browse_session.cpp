// A whole browsing session under the paper's full system: reorganized
// pipeline + GBRT reading-time prediction driving radio releases
// (Algorithm 2, power-driven mode).
//
// Walks one simulated user through a mixed mobile/full page sequence and
// compares the stock browser against the energy-aware system, page by page.
#include <cstdio>

#include "core/scenario.hpp"
#include "core/session.hpp"
#include "corpus/page_spec.hpp"
#include "gbrt/model.hpp"
#include "trace/reading_model.hpp"

namespace {

using namespace eab;

/// Measures Table 1 features for each spec (what the deployed system trains
/// on) by loading every page once through the energy-aware stack.
std::vector<trace::PageRecord> measure_library(
    const std::vector<corpus::PageSpec>& specs) {
  std::vector<trace::PageRecord> records;
  const core::Scenario scenario =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build();
  for (const auto& spec : specs) {
    trace::PageRecord record;
    record.spec = spec;
    record.features = scenario.run_single(spec).features;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace

int main() {
  using namespace eab;

  // 1. Build a page library and a synthetic population trace.
  std::vector<corpus::PageSpec> specs = corpus::mobile_benchmark();
  const auto full = corpus::full_benchmark();
  specs.insert(specs.end(), full.begin(), full.end());
  auto records = measure_library(specs);

  trace::TraceConfig trace_config;
  trace_config.users = 20;
  trace_config.browsing_per_user = 1800;
  trace::TraceGenerator generator(std::move(records), trace_config, 42);
  const auto views = generator.generate();
  std::printf("population trace: %zu views across %zu pages\n", views.size(),
              generator.records().size());

  // 2. Train the reading-time predictor on everything except user 0.
  std::vector<trace::PageView> training;
  std::vector<trace::PageView> user0;
  for (const auto& view : views) {
    (view.user == 0 ? user0 : training).push_back(view);
  }
  gbrt::GbrtParams params;
  params.trees = 250;
  params.tree.max_leaves = 8;
  const auto model = gbrt::train_gbrt(
      trace::to_log_dataset(training, generator.records(), 2.0), params, 1);
  std::printf("predictor: %zu trees trained on %zu engaged views\n\n",
              model.tree_count(), training.size());

  // 3. Replay user 0's session under both systems.
  std::vector<core::PageVisit> visits;
  for (const auto& view : user0) {
    visits.push_back(core::PageVisit{
        &generator.records()[view.page_index].spec, view.reading_time});
  }

  core::SessionConfig baseline;
  baseline.policy = core::SessionPolicy::kBaseline;
  const auto stock = core::run_session(visits, baseline, 7);

  core::SessionConfig predictive;
  predictive.policy = core::SessionPolicy::kPredict;
  predictive.threshold = core::kPowerDrivenThreshold;
  predictive.model = &model;
  const auto ours = core::run_session(visits, predictive, 7);

  std::printf("user 0 session (%d pages):\n", stock.pages);
  std::printf("                      stock browser   energy-aware+predict\n");
  std::printf("  energy (J)          %10.1f      %10.1f   (-%.1f%%)\n",
              stock.energy.with_reading_j, ours.energy.with_reading_j,
              100 * (1 - ours.energy.with_reading_j / stock.energy.with_reading_j));
  std::printf("  total load delay(s) %10.1f      %10.1f   (-%.1f%%)\n",
              stock.total_load_delay, ours.total_load_delay,
              100 * (1 - ours.total_load_delay / stock.total_load_delay));
  std::printf("  radio releases      %10d      %10d\n", stock.switches_to_idle,
              ours.switches_to_idle);
  return 0;
}
