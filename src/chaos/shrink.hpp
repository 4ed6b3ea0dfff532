// Delta-debugging minimization of failing fault compositions.
//
// Classic ddmin (Zeller & Hildebrandt) over a scenario's fault-atom list:
// given a composition that trips an invariant and a deterministic predicate
// that re-runs a subset, find a locally-minimal subset that still fails —
// removing any single remaining atom makes the failure disappear.  Because
// every scenario re-run is a pure function of its (seed, atoms) identity,
// the predicate is stable and the shrink is reproducible.  Every probe is a
// fresh simulation, including a subset probed twice.
#pragma once

#include <functional>
#include <vector>

#include "chaos/plan.hpp"

namespace eab::chaos {

/// Result of one minimization.
struct ShrinkOutcome {
  std::vector<ChaosFault> minimal;  ///< locally-minimal failing subset
  int tests = 0;                    ///< predicate evaluations consumed
};

/// Minimizes `failing` under `still_fails`.  The predicate must be
/// deterministic and must hold for `failing` itself (callers verify before
/// shrinking); it is never invoked on the empty list.  Returns a 1-minimal
/// subset: still failing, but no single-atom removal keeps it failing.
ShrinkOutcome ddmin(
    const std::vector<ChaosFault>& failing,
    const std::function<bool(const std::vector<ChaosFault>&)>& still_fails);

}  // namespace eab::chaos
