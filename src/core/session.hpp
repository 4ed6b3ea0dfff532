// Whole browsing sessions under the six policies of the paper's Table 6.
//
// One session = one user on one phone: pages load back to back with reading
// gaps in between, on a single radio whose timers and promotions carry over
// from page to page.  The promotion delay a policy incurs by having switched
// to IDLE too eagerly therefore shows up *by construction* in the next
// page's load time, and every joule is integrated over the whole session —
// exactly the accounting behind Fig 16.
#pragma once

#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "gbrt/model.hpp"

namespace eab::core {

/// The six cases of Table 6 (baseline = stock browser, never switches).
enum class SessionPolicy {
  kBaseline,             ///< original browser, timers only
  kOriginalAlwaysOff,    ///< original browser, IDLE as soon as a page opens
  kEnergyAwareAlwaysOff, ///< reorganized browser, IDLE as soon as a page opens
  kAccurate,             ///< reorganized browser, oracle reading times
  kPredict,              ///< reorganized browser, GBRT-predicted reading times
};

/// Algorithm 2's two reading-time thresholds (paper Table 2).  Algorithm 2
/// is kPredict with threshold Td in delay-driven mode (never switch unless no
/// delay penalty is possible) or Tp in power-driven mode (switch whenever
/// power is saved); Tp < Td, so the power-driven "Td or Tp" is just Tp.
inline constexpr Seconds kPowerDrivenThreshold = 9.0;   ///< Tp, Fig 3 crossover
inline constexpr Seconds kDelayDrivenThreshold = 20.0;  ///< Td

const char* to_string(SessionPolicy policy);

/// One page visit of a session: the page and how long the user reads it.
struct PageVisit {
  const corpus::PageSpec* spec = nullptr;
  Seconds reading_time = 0;
};

/// Session-level configuration.
struct SessionConfig {
  /// The phone, as for a single load: its RIL failures
  /// (chaos.ril_socket_failures), faults, outages, cache and tracing all
  /// span the whole session.  The pipeline mode is set from the policy;
  /// chaos.abort_at is a single-load directive and is ignored.
  StackConfig stack;
  SessionPolicy policy = SessionPolicy::kBaseline;
  /// kAccurate / kPredict switch to IDLE when the reading-time estimate
  /// exceeds this: Tp or Td.
  Seconds threshold = kPowerDrivenThreshold;
  Seconds alpha = 2.0;          ///< interest threshold before deciding
  /// kPredict's reading-time model (required there).  It regresses log
  /// dwell time, as trace::to_log_dataset trains every model.
  const gbrt::GbrtModel* model = nullptr;
};

/// Aggregates of one session run.
struct SessionResult {
  /// A session has no separate reading window: the active and observed
  /// windows coincide, so load_j == with_reading_j (radio + CPU over the
  /// whole session) and window_s is the session wall-clock.
  EnergyReport energy;
  Seconds total_load_delay = 0; ///< sum over pages of click -> final display
  int pages = 0;
  int switches_to_idle = 0;     ///< policy-initiated releases
  int ril_socket_failures = 0;  ///< injected socket-hop failures consumed
  Seconds radio_idle_time = 0;  ///< total IDLE residency over the session
  // Radio-failure accounting (all zero unless the stack's outage plan is
  // enabled — the coverage process spans the whole session, like faults).
  int radio_outages = 0;        ///< coverage windows begun during the session
  int rlf_count = 0;            ///< radio-link failures declared
  int reestablish_ok = 0;       ///< re-establishment attempts that succeeded
  int reestablish_fail = 0;     ///< re-establishment attempts that failed
  Seconds out_of_service_time = 0;  ///< residency camped without coverage
  std::vector<Seconds> page_load_times;
  /// The structured event recording of every layer (radio, link, each
  /// page's client and pipeline, the RIL chain and the policy itself);
  /// non-null iff stack.trace.  Recording never schedules events, so the
  /// other results are identical either way.
  std::shared_ptr<obs::TraceRecorder> trace;
};

/// Runs the visits as one continuous session.
SessionResult run_session(const std::vector<PageVisit>& visits,
                          const SessionConfig& config, std::uint64_t seed = 1);

}  // namespace eab::core
