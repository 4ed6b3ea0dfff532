// Measures the batch experiment engine itself: wall-clock loads/sec and
// simulator events/sec for a 64-load sweep, run serially (the old per-spec
// loop) and through BatchRunner's thread pool, plus the memo-cache replay
// rate.  Asserts the engine's core promise — parallel results bit-identical
// to serial — and emits machine-readable BENCH_throughput.json.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "util/rng.hpp"

namespace {

using namespace eab;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// 64 distinct jobs: both benchmarks, both pipeline modes, per-job derived
/// seeds — every memo key unique, so the pool (not the cache) does the work.
std::vector<core::BatchJob> make_sweep() {
  std::vector<corpus::PageSpec> pool = corpus::mobile_benchmark();
  const auto full = corpus::full_benchmark();
  pool.insert(pool.end(), full.begin(), full.end());

  std::vector<core::BatchJob> jobs;
  for (std::size_t i = 0; i < 64; ++i) {
    core::BatchJob job;
    job.spec = pool[i % pool.size()];
    job.config = core::StackConfig::for_mode(
        (i / pool.size()) % 2 == 0 ? browser::PipelineMode::kOriginal
                                   : browser::PipelineMode::kEnergyAware);
    job.reading_window = 20.0;
    job.seed = derive_seed(1, i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

bool identical(const core::SingleLoadResult& a, const core::SingleLoadResult& b) {
  return a.energy.load_j == b.energy.load_j &&
         a.energy.with_reading_j == b.energy.with_reading_j &&
         a.metrics.total_time() == b.metrics.total_time() &&
         a.metrics.transmission_time() == b.metrics.transmission_time() &&
         a.dch_time == b.dch_time && a.bytes_fetched == b.bytes_fetched &&
         a.sim_events == b.sim_events && a.dom_signature == b.dom_signature;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_throughput",
          "batch engine: serial vs parallel vs memo-cache replay", {"EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Throughput",
                      "batch engine: serial vs parallel vs memo-cache replay");

  const auto jobs = make_sweep();

  // Serial baseline: the loop every harness used to run.
  const auto serial_start = Clock::now();
  std::vector<core::SingleLoadResult> serial;
  serial.reserve(jobs.size());
  for (const auto& job : jobs) {
    serial.push_back(core::ScenarioBuilder()
                         .stack(job.config)
                         .reading_window(job.reading_window)
                         .seed(job.seed)
                         .build()
                         .run_single(job.spec));
  }
  const double serial_s = seconds_since(serial_start);

  // Parallel: cold runner, every key a miss.
  core::BatchRunner runner;
  const auto parallel_start = Clock::now();
  const auto parallel = runner.run(jobs);
  const double parallel_s = seconds_since(parallel_start);

  // Simulator internals come from the runner's merged registry (each job
  // snapshots its own simulator; the merge is submission-ordered), not from
  // re-summing result fields by hand.  Captured before the replay run so the
  // totals cover exactly the 64 cold loads.
  const obs::MetricsRegistry& metrics = runner.metrics();
  const double events = metrics.value("sim.events_fired");
  const double cancelled = metrics.value("sim.events_cancelled");
  const double tombstones = metrics.value("sim.tombstones_popped");
  const double peak_heap = metrics.value("sim.peak_heap");

  // Memo replay: same sweep again, every key a hit.
  const auto replay_start = Clock::now();
  const auto replay = runner.run(jobs);
  const double replay_s = seconds_since(replay_start);

  bool all_identical = serial.size() == parallel.size();
  for (std::size_t i = 0; all_identical && i < serial.size(); ++i) {
    all_identical = identical(serial[i], parallel[i]) &&
                    identical(serial[i], replay[i]);
  }

  const auto n = static_cast<double>(jobs.size());
  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0;

  TextTable table({"path", "wall (s)", "loads/s", "sim events/s"});
  table.add_row({"serial loop", format_fixed(serial_s, 3),
                 format_fixed(n / serial_s, 1),
                 format_fixed(events / serial_s, 0)});
  table.add_row({"BatchRunner x" + std::to_string(runner.threads()),
                 format_fixed(parallel_s, 3), format_fixed(n / parallel_s, 1),
                 format_fixed(events / parallel_s, 0)});
  table.add_row({"memo replay", format_fixed(replay_s, 3),
                 format_fixed(n / std::max(replay_s, 1e-9), 1), "-"});
  std::printf("%s", table.render().c_str());
  std::printf("loads: %zu  threads: %d  speedup: %.2fx  "
              "cache hits/misses: %zu/%zu  bit-identical: %s\n",
              jobs.size(), runner.threads(), speedup, runner.cache_hits(),
              runner.cache_misses(), all_identical ? "yes" : "NO");
  std::printf("simulator: %.0f events fired, %.0f cancelled, "
              "%.0f tombstones popped, peak heap %.0f\n",
              events, cancelled, tombstones, peak_heap);

  std::string json;
  {
    bench::appendf(
        json,
        "{\n"
        "  \"loads\": %zu,\n"
        "  \"threads\": %d,\n"
        "  \"serial_seconds\": %.6f,\n"
        "  \"parallel_seconds\": %.6f,\n"
        "  \"replay_seconds\": %.6f,\n"
        "  \"serial_loads_per_sec\": %.3f,\n"
        "  \"parallel_loads_per_sec\": %.3f,\n"
        "  \"serial_events_per_sec\": %.1f,\n"
        "  \"parallel_events_per_sec\": %.1f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"cache_hits\": %zu,\n"
        "  \"cache_misses\": %zu,\n"
        "  \"events_fired\": %.0f,\n"
        "  \"events_cancelled\": %.0f,\n"
        "  \"tombstones_popped\": %.0f,\n"
        "  \"peak_heap_size\": %.0f,\n"
        "  \"bit_identical\": %s\n"
        "}\n",
        jobs.size(), runner.threads(), serial_s, parallel_s, replay_s,
        n / serial_s, n / parallel_s, events / serial_s, events / parallel_s,
        speedup, runner.cache_hits(), runner.cache_misses(), events, cancelled,
        tombstones, peak_heap, all_identical ? "true" : "false");
  }
  bench::write_artifact("BENCH_throughput.json", json);
  bench::write_metrics_snapshot("throughput", runner.metrics());
  return all_identical ? 0 : 1;
}
