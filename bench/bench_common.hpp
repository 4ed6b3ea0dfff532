// Shared helpers for the bench harnesses.
//
// Every bench binary prints the paper's reported numbers next to the values
// measured from this reproduction, so the "same shape" claim is checkable at
// a glance.  Keep these binaries self-contained: each one regenerates its
// table/figure from scratch when run.
//
// All page loads issued from here go through one process-wide BatchRunner:
// independent loads fan out over a thread pool (EAB_JOBS workers, strictly
// parsed by the knob registry).  Every load is simulated and results come
// back in submission order, so every number printed is bit-identical to the
// old serial loops at any worker count.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch.hpp"
#include "core/scenario.hpp"
#include "core/supervisor.hpp"
#include "core/sweep.hpp"
#include "corpus/page_spec.hpp"
#include "knobs.hpp"
#include "obs/audit.hpp"
#include "obs/chrome_trace.hpp"
#include "radio/outage.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "web/js.hpp"

namespace eab::bench {

/// Prints a bench header naming the paper artifact being regenerated.
inline void print_header(const std::string& figure, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

/// Prints the script-outcome memo's counters as one stderr line.  They
/// measure host work, not the simulation, so they never reach stdout, a
/// BENCH_*.json artifact or a metrics snapshot.
inline void print_script_memo_stats() {
  const web::js::ScriptMemoStats s = web::js::script_memo_stats();
  std::fprintf(stderr,
               "js memo: hits %llu misses %llu admitted %llu evicted %llu "
               "bytes %llu caught_up %llu\n",
               static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses),
               static_cast<unsigned long long>(s.admitted),
               static_cast<unsigned long long>(s.evicted),
               static_cast<unsigned long long>(s.bytes),
               static_cast<unsigned long long>(s.caught_up));
}

/// The process-wide batch engine every harness shares: one thread pool of
/// EAB_JOBS workers (unset = hardware concurrency).
inline core::BatchRunner& shared_runner() {
  static core::BatchRunner runner(
      static_cast<int>(knobs().u64_or("EAB_JOBS", 0)));
  return runner;
}

/// Runs every spec under `config` in one batch and returns the results in
/// spec order (each equal to ScenarioBuilder().stack(config)
/// .reading_window(reading_window).seed(seed).build().run_single(spec)).
inline std::vector<core::SingleLoadResult> run_loads(
    const std::vector<corpus::PageSpec>& specs, const core::StackConfig& config,
    Seconds reading_window = 20.0, std::uint64_t seed = 1) {
  std::vector<core::BatchJob> jobs;
  jobs.reserve(specs.size());
  for (const auto& spec : specs) {
    jobs.push_back(core::BatchJob{spec, config, reading_window, seed});
  }
  return shared_runner().run(jobs);
}

/// 64 distinct jobs: both benchmarks, both pipeline modes, per-job derived
/// seeds.
inline std::vector<core::BatchJob> mixed_sweep(bool traced = false) {
  std::vector<corpus::PageSpec> pool = corpus::mobile_benchmark();
  const auto full = corpus::full_benchmark();
  pool.insert(pool.end(), full.begin(), full.end());
  std::vector<core::BatchJob> jobs;
  for (std::size_t i = 0; i < 64; ++i) {
    const auto mode = (i / pool.size()) % 2 == 0
                          ? browser::PipelineMode::kOriginal
                          : browser::PipelineMode::kEnergyAware;
    jobs.push_back(
        core::BatchJob{pool[i % pool.size()],
                       core::ScenarioBuilder(mode).trace(traced).build().stack,
                       20.0, derive_seed(1, i)});
  }
  return jobs;
}

/// Average single-load results over a list of specs.
struct BenchmarkAverages {
  double tx_time = 0;        ///< mean data transmission time (s)
  double total_time = 0;     ///< mean load time = final-display time (s)
  double first_display = 0;  ///< mean first-display time (s)
  double load_energy = 0;    ///< mean load energy (J)
  double energy_20s = 0;     ///< mean energy incl. 20 s reading (J)
  double dch_time = 0;       ///< mean DCH residency (s)
};

/// Averages a batch of already-run loads.  An empty result list yields
/// zeroed averages (not NaNs).
inline BenchmarkAverages averages_of(
    const std::vector<core::SingleLoadResult>& results) {
  BenchmarkAverages avg;
  if (results.empty()) return avg;
  for (const auto& r : results) {
    avg.tx_time += r.metrics.transmission_time();
    avg.total_time += r.metrics.total_time();
    avg.first_display += r.metrics.first_display - r.metrics.started;
    avg.load_energy += r.energy.load_j;
    avg.energy_20s += r.energy.with_reading_j;
    avg.dch_time += r.dch_time;
  }
  const auto n = static_cast<double>(results.size());
  avg.tx_time /= n;
  avg.total_time /= n;
  avg.first_display /= n;
  avg.load_energy /= n;
  avg.energy_20s /= n;
  avg.dch_time /= n;
  return avg;
}

/// Runs every spec under `config` and averages the measurements.
inline BenchmarkAverages run_benchmark(const std::vector<corpus::PageSpec>& specs,
                                       const core::StackConfig& config,
                                       std::uint64_t seed = 1) {
  return averages_of(run_loads(specs, config, 20.0, seed));
}

/// Percentage saving helper: (base - ours) / base.
inline double saving(double base, double ours) {
  return base <= 0 ? 0 : (base - ours) / base;
}

/// EAB_OUTAGE_COUNT / _START / _PERIOD / _DURATION / _FAIL_RATE / _SEED:
/// per-UE coverage-outage knobs for the harnesses that honor them
/// (bench_ext_faults, bench_fig11_capacity --cell).  EAB_OUTAGE_COUNT unset,
/// empty or 0 disables the radio-failure subsystem entirely — stdout and
/// every artifact stay byte-identical to a build without it.  Every value is
/// strictly parsed against the registry (exit 2 on anything malformed), and
/// an enabled plan whose period does not exceed its duration exits 2 too:
/// overlapping coverage windows are a typo, not a scenario.
inline radio::OutagePlan outage_plan_from_env() {
  radio::OutagePlan plan;
  plan.count = static_cast<int>(knobs().u64_or(
      "EAB_OUTAGE_COUNT", static_cast<std::uint64_t>(plan.count)));
  plan.start = knobs().f64_or("EAB_OUTAGE_START", plan.start);
  plan.period = knobs().f64_or("EAB_OUTAGE_PERIOD", plan.period);
  plan.duration = knobs().f64_or("EAB_OUTAGE_DURATION", plan.duration);
  plan.reestablish_fail_rate =
      knobs().f64_or("EAB_OUTAGE_FAIL_RATE", plan.reestablish_fail_rate);
  plan.seed = knobs().u64_or("EAB_OUTAGE_SEED", plan.seed);
  if (plan.count > 0 && plan.period <= plan.duration) {
    const char* raw = std::getenv("EAB_OUTAGE_PERIOD");
    die_invalid_env("EAB_OUTAGE_PERIOD", raw == nullptr ? "" : raw,
                    "a period exceeding EAB_OUTAGE_DURATION (windows must "
                    "not overlap)");
  }
  return plan;
}

/// printf-append into a string: the building block the benches use to
/// assemble whole JSON artifacts in memory before one crash-safe write.
inline void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (needed > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(needed) + 1, fmt,
                   args);
    out.resize(old + static_cast<std::size_t>(needed));
  }
  va_end(args);
}

/// Crash-safe artifact write (temp + fsync + rename via write_file_atomic)
/// with the benches' standard "wrote <path>" confirmation line.  Returns
/// false — and prints nothing — when the write failed; a torn BENCH_*.json
/// can never be observed, even under the supervision soak's SIGKILLs.
inline bool write_artifact(const std::string& path, std::string_view contents) {
  if (!write_file_atomic(path, contents)) return false;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// The identity a supervised sweep writes into its checkpoint journal and
/// checks on every resume: the journal name, then one "NAME=value" line per
/// registered knob (unset and empty both read as empty).  Knobs that only
/// choose where work runs or where files go are left out, so a journal
/// resumes under another EAB_JOBS or self-chaos schedule; every other
/// knob, including any added to the registry later, is in by construction,
/// so a resume cannot merge results computed under other settings.
inline std::string journal_fingerprint(const std::string& journal) {
  static constexpr std::string_view kPlacementOnly[] = {
      "EAB_JOBS",         "EAB_SUPERVISE",        "EAB_CHECKPOINT_DIR",
      "EAB_SELF_CHAOS",   "EAB_SELF_CHAOS_KILLS", "EAB_SELF_CHAOS_ORC",
      "EAB_PROGRESS",     "EAB_TRACE_OUT",        "EAB_CHAOS_OUT"};
  std::string fingerprint = journal;
  for (const KnobSpec& spec : knobs().specs()) {
    if (std::find(std::begin(kPlacementOnly), std::end(kPlacementOnly),
                  spec.name) != std::end(kPlacementOnly)) {
      continue;
    }
    const char* raw = std::getenv(spec.name);
    fingerprint += '\n';
    fingerprint += spec.name;
    fingerprint += '=';
    if (raw != nullptr) fingerprint += raw;
  }
  return fingerprint;
}

/// Runs a bench's sweep: shard(i) for i in [0, count), consumed in index
/// order (core/sweep.hpp).  By default the shards run on the shared
/// runner's threads.  EAB_SUPERVISE=1 runs them in forked,
/// heartbeat-supervised worker processes instead, with the same bytes
/// consumed; the supervision report goes to stderr.  Every knob below is
/// strictly parsed against the registry (exit 2 on anything malformed):
///   EAB_JOBS              shards running at once (threads, or worker
///                         processes when supervised); unset = hardware
///                         concurrency
///   EAB_CHECKPOINT_DIR    directory for the durable checkpoint journal
///                         `journal`, fingerprinted by journal_fingerprint;
///                         empty = supervise without durability (no resume)
///   EAB_SELF_CHAOS        seed for the supervisor's self-chaos kill schedule
///                         (0/unset = off); the crash-recovery soak sets it
///                         and byte-compares against an uninterrupted run
///   EAB_SELF_CHAOS_KILLS  worker SIGKILLs injected per launch (needs
///                         EAB_SELF_CHAOS); capped at 64 — a kill schedule
///                         longer than any sweep is a typo, not a soak
///   EAB_SELF_CHAOS_ORC=1  also SIGKILL the orchestrator once, right after a
///                         durable commit, on the first launch (needs
///                         EAB_SELF_CHAOS and EAB_CHECKPOINT_DIR)
///   EAB_PROGRESS=1        live wall-clock progress lines on stderr (~1 Hz);
///                         purely observational, results are bit-identical
/// Returns false after printing each failed shard, or why the journal could
/// not be resumed, on stderr.  In process, a shard failure propagates as an
/// exception instead.
template <typename Shard, typename Consume, typename Encode, typename Decode>
bool sweep(const std::string& journal, std::size_t count, Shard&& shard,
           Consume&& consume, Encode&& encode, Decode&& decode) {
  if (!knobs().flag("EAB_SUPERVISE")) {
    core::sweep(shared_runner(), count, shard, consume);
    return true;
  }
  core::SupervisorConfig config;
  config.workers = static_cast<int>(knobs().u64_or("EAB_JOBS", 0));
  const std::string dir = knobs().path_or_empty("EAB_CHECKPOINT_DIR");
  if (!dir.empty()) config.checkpoint_path = dir + "/" + journal;
  config.fingerprint = journal_fingerprint(journal);
  config.self_chaos_seed = knobs().u64_or("EAB_SELF_CHAOS", 0);
  config.self_chaos_worker_kills =
      static_cast<int>(knobs().u64_or("EAB_SELF_CHAOS_KILLS", 0));
  config.self_chaos_kill_orchestrator = knobs().flag("EAB_SELF_CHAOS_ORC");
  config.progress = knobs().flag("EAB_PROGRESS");
  core::Supervisor supervisor(config);
  core::SupervisorReport report;
  try {
    report = core::sweep(supervisor, count, shard, consume, encode, decode);
  } catch (const std::exception& e) {  // a torn or foreign journal
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
  std::fprintf(stderr, "%s\n", report.summary().c_str());
  for (const core::ShardError& e : report.errors) {
    std::fprintf(stderr, "supervisor: shard %zu failed: %s\n", e.shard,
                 e.what.c_str());
  }
  return report.ok();
}

/// Audits every traced result in `results` against `config`, printing each
/// violation.  Dumps Chrome traces under EAB_TRACE_OUT when set.  Returns
/// the number of loads whose audit failed (0 = all invariants held).
inline int audit_results(const std::vector<core::SingleLoadResult>& results,
                         const core::StackConfig& config,
                         const std::string& label) {
  const obs::TraceAuditor auditor;
  const std::string out_dir = knobs().path_or_empty("EAB_TRACE_OUT");
  std::string file_label = label;  // labels may hold spaces or URL slashes
  for (char& c : file_label) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  }
  int failed = 0;
  int audited = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SingleLoadResult& r = results[i];
    if (!r.trace) continue;
    ++audited;
    const auto report = auditor.audit(
        *r.trace,
        core::make_audit_inputs(config, r.energy.radio_j, r.energy.window_s));
    if (!report.ok()) {
      ++failed;
      std::printf("AUDIT FAIL [%s #%zu]:\n%s\n", label.c_str(), i,
                  report.summary().c_str());
    }
    if (!out_dir.empty()) {
      obs::write_chrome_trace(out_dir + "/" + file_label + "_" +
                                  std::to_string(i) + ".trace.json",
                              *r.trace, r.energy.window_s);
    }
  }
  if (audited > 0) {
    std::printf("audit [%s]: %d/%d traced loads passed\n", label.c_str(),
                audited - failed, audited);
  }
  return failed;
}

/// Writes a metrics registry snapshot beside the bench's JSON output
/// (crash-safe: temp + fsync + rename).
inline void write_metrics_snapshot(const std::string& bench_name,
                                   const obs::MetricsRegistry& metrics) {
  write_artifact("BENCH_" + bench_name + ".metrics.json",
                 metrics.to_json() + "\n");
}

/// Snapshot of the shared runner — every load this process batched, merged
/// in submission order.
inline void write_metrics_snapshot(const std::string& bench_name) {
  write_metrics_snapshot(bench_name, shared_runner().metrics());
}

}  // namespace eab::bench

#include "gbrt/model.hpp"
#include "trace/reading_model.hpp"

namespace eab::bench {

/// Builds the page library the trace generator browses: every benchmark page
/// plus size-jittered sub-page variants, each loaded once through the
/// energy-aware pipeline to measure its Table 1 features (the paper collects
/// features with its modified browser the same way).  The variant specs are
/// derived serially — variant seeding depends on the record count — and the
/// feature loads then run as one batch.
inline std::vector<trace::PageRecord> build_page_library(
    int variants_per_site = 4, std::uint64_t seed = 7) {
  std::vector<trace::PageRecord> records;
  auto add_benchmark = [&](const std::vector<corpus::PageSpec>& specs) {
    for (const auto& base : specs) {
      for (const auto& spec :
           corpus::spec_variants(base, variants_per_site, seed ^ records.size())) {
        trace::PageRecord record;
        record.spec = spec;
        records.push_back(std::move(record));
      }
    }
  };
  add_benchmark(corpus::mobile_benchmark());
  add_benchmark(corpus::full_benchmark());

  const auto ea_cfg =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build().stack;
  std::vector<core::BatchJob> jobs;
  jobs.reserve(records.size());
  for (const auto& record : records) {
    jobs.push_back(core::BatchJob{record.spec, ea_cfg, 0.0, seed});
  }
  const auto results = shared_runner().run(jobs);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].features = results[i].features;
  }
  return records;
}

}  // namespace eab::bench
