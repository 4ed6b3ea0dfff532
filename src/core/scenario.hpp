// Unified assembly path for every experiment in the repository.
//
// ScenarioBuilder is the single way one-UE and N-UE experiments are put
// together: fluent setters over StackConfig plus the run parameters
// (reading window, seed), with every contradictory-knob check applied once
// at build().  A built Scenario's run_single / run_bulk / run_proxy are the
// only way to run a one-UE experiment, and the cell co-simulation consumes
// a Scenario as its per-UE template — so a config that passed build() is
// valid everywhere.  A pre-built StackConfig goes through the same path:
//
//   ScenarioBuilder().stack(cfg).reading_window(w).seed(s).build()
//       .run_single(spec);
#pragma once

#include <cstdint>

#include "core/experiment.hpp"
#include "core/session.hpp"

namespace eab::core {

/// A validated, ready-to-run experiment: the stack plus run parameters.
/// Obtain one from ScenarioBuilder::build(); the struct itself is plain
/// data and cheap to copy (the cell layer stamps per-UE seeds onto copies).
struct Scenario {
  StackConfig stack;
  Seconds reading_window = 20.0;
  std::uint64_t seed = 1;

  /// Generates `spec` from `seed`, loads it under `stack`, lets
  /// `reading_window` seconds of reading elapse, and reports the
  /// measurements.  A pure function of (spec, stack, reading_window, seed).
  SingleLoadResult run_single(const corpus::PageSpec& spec) const;
  /// The Fig 4 comparator: pulls `bytes` through a raw socket, no browser
  /// (uses only `stack`).
  BulkDownloadResult run_bulk(Bytes bytes) const;
  /// Loads `spec` through a rendering proxy: one request, one compressed
  /// bundle, one client-side unpack+display, radio released right after
  /// the bundle (the proxy knows the page is complete).
  ProxyLoadResult run_proxy(const corpus::PageSpec& spec,
                            const ProxyConfig& proxy = {}) const;
};

/// Fluent construction with validation at build().  Default-constructed it
/// reproduces StackConfig{} exactly; ScenarioBuilder(mode) reproduces
/// StackConfig::for_mode(mode) (pipeline mode + fast dormancy for the
/// energy-aware pipeline) — a regression test pins both equivalences.
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;
  explicit ScenarioBuilder(browser::PipelineMode mode) { this->mode(mode); }

  /// Sets the pipeline mode and couples fast dormancy to it the way
  /// StackConfig::for_mode always has: energy-aware releases the radio at
  /// transmission-complete, Original does not.  Call force_idle_at_tx()
  /// afterwards to decouple them.
  ScenarioBuilder& mode(browser::PipelineMode mode) {
    scenario_.stack.pipeline.mode = mode;
    scenario_.stack.force_idle_at_tx =
        mode == browser::PipelineMode::kEnergyAware;
    return *this;
  }
  ScenarioBuilder& rrc(const radio::RrcConfig& rrc) {
    scenario_.stack.rrc = rrc;
    return *this;
  }
  ScenarioBuilder& power(const radio::RadioPowerModel& power) {
    scenario_.stack.power = power;
    return *this;
  }
  ScenarioBuilder& link(const radio::LinkConfig& link) {
    scenario_.stack.link = link;
    return *this;
  }
  ScenarioBuilder& pipeline(const browser::PipelineConfig& pipeline) {
    scenario_.stack.pipeline = pipeline;
    return *this;
  }
  ScenarioBuilder& force_idle_at_tx(bool on) {
    scenario_.stack.force_idle_at_tx = on;
    return *this;
  }
  ScenarioBuilder& max_parallel_connections(int n) {
    scenario_.stack.max_parallel_connections = n;
    return *this;
  }
  ScenarioBuilder& browser_cache(Bytes bytes) {
    scenario_.stack.use_browser_cache = true;
    scenario_.stack.browser_cache_bytes = bytes;
    return *this;
  }
  ScenarioBuilder& no_browser_cache() {
    scenario_.stack.use_browser_cache = false;
    return *this;
  }
  ScenarioBuilder& fault_plan(const net::FaultPlan& plan) {
    scenario_.stack.fault_plan = plan;
    return *this;
  }
  ScenarioBuilder& retry(const net::RetryPolicy& retry) {
    scenario_.stack.retry = retry;
    return *this;
  }
  ScenarioBuilder& outage(const radio::OutagePlan& plan) {
    scenario_.stack.outage = plan;
    return *this;
  }
  ScenarioBuilder& trace(bool on = true) {
    scenario_.stack.trace = on;
    return *this;
  }
  ScenarioBuilder& chaos(const ChaosDirectives& chaos) {
    scenario_.stack.chaos = chaos;
    return *this;
  }
  ScenarioBuilder& sim_event_budget(std::uint64_t budget) {
    scenario_.stack.sim_event_budget = budget;
    return *this;
  }
  ScenarioBuilder& reading_window(Seconds window) {
    scenario_.reading_window = window;
    return *this;
  }
  ScenarioBuilder& seed(std::uint64_t seed) {
    scenario_.seed = seed;
    return *this;
  }
  /// Wholesale replacement of the stack, so a pre-built StackConfig (for
  /// example one a BatchJob carries) still flows through build()'s
  /// validation.
  ScenarioBuilder& stack(const StackConfig& stack) {
    scenario_.stack = stack;
    return *this;
  }

  /// Validates the assembled knobs and returns the runnable Scenario.
  /// Throws std::invalid_argument naming the offending knob on:
  ///   - sim_event_budget == 0 (the liveness guard would fire immediately)
  ///   - a stall rate with no watchdog (the load could hang forever)
  ///   - any negative fault rate, or rates summing above 1
  ///   - a cache eviction storm with no browser cache to evict
  ///   - max_parallel_connections < 1, negative reading window, negative
  ///     chaos timings, negative retry counts/backoffs
  Scenario build() const;

  /// Same validation, then wraps the stack in a SessionConfig for the given
  /// policy.  This is the one place single-load and session defaults are
  /// unified: the session inherits the builder's retry policy and cache
  /// knobs verbatim instead of diverging silently (run_session derives the
  /// pipeline mode from the policy, so mode() is ignored here).
  SessionConfig build_session(SessionPolicy policy) const;

 private:
  Scenario scenario_;
};

}  // namespace eab::core
