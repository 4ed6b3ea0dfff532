// Chaos scenario planning: seed-derived cross-layer fault compositions.
//
// A ChaosScenario is a page load plus a small list of fault atoms drawn
// from every disturbance domain the stack exposes: the network fault
// injector (loss, stalls, truncation, slow first bytes, link fades), RIL
// fast-dormancy failures, RRC timer drift, mid-load user abort, browser
// cache eviction storms and CPU slowdown.  Scenarios are pure functions of
// their seed — make_chaos_scenario(s) yields the same atom list on every
// machine, every run — and atoms are the unit the delta-debugging shrinker
// removes, so a failing composition minimizes to the smallest atom subset
// that still trips an invariant.
//
// apply_chaos folds a scenario into an ordinary core::BatchJob.  Everything
// an atom perturbs is plain StackConfig data (fault plan rates, RRC timers,
// pipeline cost scales, ChaosDirectives), so chaos jobs flow through the
// unmodified BatchRunner — parallel fan-out, quarantine and metrics merging
// included — and a sweep is bit-identical serial or parallel.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batch.hpp"

namespace eab::chaos {

/// The fault domains a scenario can compose.  Network domains map onto
/// net::FaultPlan; the rest ride StackConfig knobs (rrc timers, pipeline
/// costs) or core::ChaosDirectives.
enum class ChaosDomain {
  kNetLoss,          ///< params[0] = connection loss rate
  kNetStall,         ///< params[0] = blackhole rate (forces a watchdog on)
  kNetTruncate,      ///< params[0] = mid-body truncation rate
  kNetSlowFirstByte, ///< params[0] = rate, params[1] = mean extra latency s
  kNetFade,          ///< params[0..3] = count, start, period, duration
  kRilFailure,       ///< params[0] = failed framework->rild socket hops
  kTimerDrift,       ///< params[0..1] = T1, T2 multiplicative drift
  kAbort,            ///< params[0] = user abort time (s into the load)
  kCacheStorm,       ///< params[0..2] = eviction count, start, period
  kCpuSlowdown,      ///< params[0] = multiplicative CPU cost factor
  kUeOutage,         ///< params[0..3] = count, start, period, duration
  kCellOutage,       ///< params[0..2] = start, duration, reestablish fail rate
};

constexpr int kChaosDomainCount = 12;

const char* to_string(ChaosDomain domain);
/// Inverse of to_string; returns false (and leaves `out` alone) on an
/// unknown name.
bool domain_from_string(const std::string& name, ChaosDomain& out);

/// One fault atom: a domain plus up to four parameters (meaning per domain,
/// documented on ChaosDomain).  Unused slots stay 0.
struct ChaosFault {
  ChaosDomain domain = ChaosDomain::kNetLoss;
  std::array<double, 4> params{};

  friend bool operator==(const ChaosFault&, const ChaosFault&) = default;
};

/// A full scenario: which benchmark page, which pipeline, which atoms.
struct ChaosScenario {
  std::uint64_t seed = 1;  ///< scenario seed; also seeds the page generator
  int spec_index = 0;      ///< index into chaos_spec_pool()
  browser::PipelineMode mode = browser::PipelineMode::kOriginal;
  std::vector<ChaosFault> faults;

  friend bool operator==(const ChaosScenario&, const ChaosScenario&) = default;
};

/// The pages scenarios draw from: the ten mobile plus ten full Table-3
/// benchmarks, in that order.  Deterministic and index-stable.
const std::vector<corpus::PageSpec>& chaos_spec_pool();

/// Derives a scenario from a seed: page, pipeline mode and 1-4 fault atoms,
/// every draw from one deterministic Rng stream.
ChaosScenario make_chaos_scenario(std::uint64_t seed);

/// Folds a scenario into a runnable batch job.  Atom semantics compose
/// deterministically and monotonically (removing an atom removes exactly
/// its contribution, which is what makes ddmin sound): rates add (clamped
/// so the fault plan stays a valid distribution), RIL failures and cache
/// evictions sum, timer drift and CPU slowdown multiply, the earliest abort
/// wins, fade/storm timing is last-writer-wins.  The job always records a
/// trace (the invariant oracle replays it) and arms the watchdog whenever
/// stalls are possible.
core::BatchJob apply_chaos(const ChaosScenario& scenario,
                           Seconds reading_window = 6.0);

/// The seed list for a sweep: derive_seed(base, i) for i in [0, count).
std::vector<std::uint64_t> chaos_seeds(std::uint64_t base, int count);

}  // namespace eab::chaos
