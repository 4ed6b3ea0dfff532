// Single-load experiment stack: its configuration and result types.
//
// Scenario::run_single (scenario.hpp, defined in experiment.cpp) assembles
// the full system — simulator, web server with a generated page and the
// phone (core::UeStack: RRC radio, shared downlink, HTTP client, CPU, one
// of the two pipelines) — runs one page load plus a reading window, and
// returns every quantity the paper's figures report: timings, Table 1
// features, energy integrals, the whole-phone power trace (Fig 1/9), the
// link-rate trace (Fig 4) and the DCH residency that feeds the capacity
// model (Fig 11).
#pragma once

#include <memory>
#include <string>

#include "browser/pipeline.hpp"
#include "core/energy_report.hpp"
#include "corpus/generator.hpp"
#include "net/fault.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/outage.hpp"
#include "radio/rrc_config.hpp"
#include "util/timeline.hpp"

namespace eab::core {

/// Runtime disturbances the chaos engine injects into one load — the fault
/// domains that cannot be expressed as plain config perturbations (timer
/// drift and CPU slowdown just rescale RrcConfig / ComputeCostModel fields).
/// All fields are plain data carried by the job that uses them; the zero
/// value schedules nothing, so a default ChaosDirectives leaves the event
/// stream byte-identical to a stack built before this struct existed.
struct ChaosDirectives {
  /// User abort: the load is gracefully abandoned at this simulated time
  /// (PageLoad::abort tears down fetches, link flows and transfer markers).
  /// 0 disables.  An abort scheduled after the load finishes is a no-op.
  Seconds abort_at = 0;
  /// RIL fast-dormancy failures: the next N switch-to-IDLE requests die at
  /// the framework->rild socket hop; the radio must fall back to T1/T2.
  int ril_socket_failures = 0;
  /// Cache eviction storm: `cache_storm_count` full evictions of the
  /// browser cache, the first at `cache_storm_start`, subsequent ones
  /// `cache_storm_period` apart.  Needs use_browser_cache to bite.
  int cache_storm_count = 0;
  Seconds cache_storm_start = 1.0;
  Seconds cache_storm_period = 1.0;

  bool enabled() const {
    return abort_at > 0 || ril_socket_failures > 0 || cache_storm_count > 0;
  }
};

/// Configuration of the whole measurement stack.
struct StackConfig {
  radio::RrcConfig rrc;
  radio::RadioPowerModel power;
  radio::LinkConfig link;
  browser::PipelineConfig pipeline;
  /// Energy-aware radio release at transmission-complete (Section 4.1);
  /// routed through the RIL chain.
  bool force_idle_at_tx = false;
  int max_parallel_connections = 3;
  /// Session-persistent browser cache (extension; the paper measures cold
  /// loads). When enabled, subresources persist across a session's pages.
  bool use_browser_cache = false;
  Bytes browser_cache_bytes = 4 * 1024 * 1024;
  /// Deterministic network fault injection (robustness extension).  The
  /// default plan is disabled and schedules nothing: a zero-fault stack is
  /// byte-identical to one built before the fault layer existed.
  net::FaultPlan fault_plan;
  /// Watchdog/retry policy for the HTTP client.  The default watchdog is
  /// off (no extra events); any plan with a stall rate requires a positive
  /// request_timeout or the load could hang forever.
  net::RetryPolicy retry;
  /// Deterministic radio coverage outages (robustness extension): seed-
  /// derived windows during which the link is down and the RRC machine runs
  /// its RLF / OUT_OF_SERVICE / re-establishment machinery.  The default
  /// plan is disabled and schedules nothing — byte-identical to a stack
  /// built before the radio failure model existed.
  radio::OutagePlan outage;
  /// Record a structured event trace of the run (obs::TraceRecorder attached
  /// to every layer).  Recording never schedules simulator events, so every
  /// simulation result — sim_events included — is identical either way; the
  /// returned SingleLoadResult carries the recording in `trace`.
  bool trace = false;
  /// Cross-layer runtime disturbances (user abort, RIL failures, cache
  /// eviction storms); composed by the chaos engine, defaults inert.
  ChaosDirectives chaos;
  /// Liveness guard: the load's simulator may fire at most this many events
  /// before Scenario::run_single gives up with a sim::BudgetExhaustedError (whose
  /// message carries a pending-heap dump).  A healthy load fires a few
  /// thousand events; the default is generous enough that only a genuinely
  /// wedged simulation — an event loop feeding itself — ever trips it.
  std::uint64_t sim_event_budget = 10'000'000;
};

/// The TraceAuditor's inputs for a recording made under `config`: its radio
/// config and retry budget, plus the PowerTimeline radio energy integral
/// over the audited window [0, t_end].
inline obs::AuditInputs make_audit_inputs(const StackConfig& config,
                                          Joules radio_energy, Seconds t_end) {
  obs::AuditInputs inputs;
  inputs.rrc = config.rrc;
  inputs.power = config.power;
  inputs.max_retries = config.retry.max_retries;
  inputs.radio_energy = radio_energy;
  inputs.t_end = t_end;
  return inputs;
}

/// Everything measured from one load.
struct SingleLoadResult {
  browser::LoadMetrics metrics;
  browser::PageFeatures features;
  browser::PageGeometry geometry;
  /// Energy integrals: load_j covers start..final display, with_reading_j
  /// and radio_j cover start..final display + reading window (= window_s).
  EnergyReport energy;
  Seconds reading_window = 0;
  Seconds dch_time = 0;            ///< capacity-model service time
  Seconds fach_time = 0;
  int idle_promotions = 0;
  int forced_releases = 0;
  Bytes bytes_fetched = 0;
  // Degradation accounting (all zero on a fault-free load).
  int fetch_retries = 0;       ///< extra network attempts behind the load
  int fetch_timeouts = 0;      ///< watchdog expiries
  int failed_resources = 0;    ///< fetches settled without a body
  int truncated_resources = 0; ///< partial bodies delivered and parsed
  int link_fades = 0;          ///< fade windows that began during the run
  int radio_outages = 0;       ///< coverage windows that began during the run
  int rlf_count = 0;           ///< radio-link failures declared
  int reestablish_ok = 0;      ///< re-establishment attempts that succeeded
  int reestablish_fail = 0;    ///< re-establishment attempts that failed
  Seconds out_of_service_time = 0;  ///< residency camped without coverage
  std::uint64_t sim_events = 0;    ///< discrete events the load's simulator fired
  std::string dom_signature;       ///< structural DOM fingerprint
  PowerTimeline total_power;       ///< radio + CPU (Figs 1 and 9)
  PowerTimeline link_rate;         ///< delivered bytes/s (Fig 4)
  /// Per-job observability snapshot (always filled: counters for the
  /// simulator core, HTTP client, radio and load, plus duration/energy
  /// histograms).  BatchRunner merges these in submission order.
  obs::MetricsRegistry job_metrics;
  /// The structured event recording; non-null iff StackConfig::trace.
  std::shared_ptr<obs::TraceRecorder> trace;
};

/// Rejects fault/retry combinations that could hang a simulation (a stall
/// rate with no watchdog).  Called by ScenarioBuilder::build() and by
/// core::UeStack, which every driver's phone is built on.
void validate_fault_wiring(const StackConfig& config);

/// The Fig 4 comparator: pull `bytes` through a raw socket, no browser.
struct BulkDownloadResult {
  Seconds started = 0;
  Seconds finished = 0;
  Joules energy = 0;
  PowerTimeline link_rate;
  Seconds duration() const { return finished - started; }
};

/// Proxy-assisted browsing comparator (the paper's Section 6: Opera
/// Mini-style systems render on a server and ship a compact bundle).
struct ProxyConfig {
  double compression_ratio = 0.40;  ///< bundle bytes / original page bytes
  Seconds proxy_render_latency = 1.3;  ///< server-side fetch+render time
  /// Client-side work per KB of bundle (decode the pre-laid-out page).
  Seconds client_unpack_per_kb = 0.004;
};

/// Everything measured from one proxy-assisted load.
struct ProxyLoadResult {
  Seconds transmission_time = 0;  ///< request to last bundle byte
  Seconds total_time = 0;         ///< to the (only) display
  /// load_j covers start..display; with_reading_j/radio_j cover the full
  /// observed window (display + reading), whose end is window_s.
  EnergyReport energy;
  Bytes bundle_bytes = 0;
};

}  // namespace eab::core
