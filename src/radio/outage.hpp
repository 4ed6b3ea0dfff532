// Deterministic radio coverage outages.
//
// A real handset does not just see per-request faults: the whole radio link
// disappears when the user enters an elevator or the serving cell drops.
// OutagePlan describes seed-derived coverage loss windows with the same two
// guarantees net::FaultPlan gives the request-fault layer:
//
//  * Determinism.  The outage windows for a UE are a pure function of
//    (plan seed, ue_id): outage_windows() draws the per-UE phase offset from
//    Rng(derive_seed(seed, kOutageWindowStream ^ ue_id)) and nothing else, so
//    a cell sweep computes identical windows regardless of sharding, and the
//    re-establishment success stream is a pure per-UE sequence as well.
//  * Plain data.  The plan is carried inside core::StackConfig, so a batch
//    job's outages travel with it to whichever worker runs the load.
//
// The plan itself knows nothing about the RRC machine or the shared link —
// net::OutageInjector (net/outage.hpp) turns the windows into radio_link_down
// / radio_link_up calls plus link pauses.  A disabled plan (count == 0) is
// indistinguishable from no plan at all: nothing is scheduled, no state is
// touched, and every result byte matches the pre-outage build.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace eab::radio {

/// Declarative coverage-outage process for one UE (or a whole cell when used
/// by the cell layer's cell_outage_* knobs, where ue_id folds to the cell).
struct OutagePlan {
  std::uint64_t seed = 1;  ///< window-phase and re-establishment stream seed
  /// Number of coverage-loss windows; 0 disables the subsystem entirely.
  int count = 0;
  /// Earliest possible start of the first window; the per-UE phase offset
  /// drawn in [0, period) is added on top.
  Seconds start = 5.0;
  /// Spacing between consecutive window starts.  Must exceed `duration` so a
  /// UE's own windows never overlap.
  Seconds period = 10.0;
  /// Length of each coverage hole.
  Seconds duration = 2.0;
  /// Probability that one re-establishment attempt fails (drawn per attempt
  /// from the per-UE pure stream; 0 = re-establishment always succeeds).
  double reestablish_fail_rate = 0;

  /// A disabled plan must be indistinguishable from no plan at all.
  bool enabled() const { return count > 0 && duration > 0; }
};

/// One coverage hole: the link is down in [begin, end).
struct OutageWindow {
  Seconds begin = 0;
  Seconds end = 0;
};

/// Throws std::invalid_argument naming the offending knob when the plan is
/// enabled but ill-formed (non-finite or negative timings, period <= duration
/// with more than one window, fail rate outside [0, 1]).
void validate_outage_plan(const OutagePlan& plan);

/// The coverage holes `ue_id` experiences under `plan`, in ascending order.
/// Pure in (plan, ue_id): no simulator state, no call-order dependence.
/// Returns an empty vector for a disabled plan.
std::vector<OutageWindow> outage_windows(const OutagePlan& plan,
                                         std::uint64_t ue_id);

/// Whether re-establishment attempt number `attempt_index` (a per-UE 1-based
/// counter over *all* attempts the UE ever makes) succeeds.  Pure in
/// (plan.seed, plan.reestablish_fail_rate, ue_id, attempt_index).
bool reestablish_succeeds(const OutagePlan& plan, std::uint64_t ue_id,
                          int attempt_index);

}  // namespace eab::radio
