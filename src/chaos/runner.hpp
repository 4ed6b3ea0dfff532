// Chaos sweep driver: seeded scenarios -> batch execution -> invariant
// oracle -> shrunk reproducers.
//
// A ChaosRunner turns a list of seeds into scenarios (plan.hpp), fans the
// resulting jobs through an ordinary core::BatchRunner (crash-isolated: a
// job that throws is quarantined, not fatal), and checks every completed
// run against an invariant oracle.  The default oracle composes
//
//  * the PR-3 obs::TraceAuditor over the run's full recording — RRC
//    legality, timer discipline, transfer-marker balance (no leaked
//    markers, aborts included), retry budgets, queued==settled fetches and
//    energy reconciliation over the partial window, and
//  * liveness/shape invariants on the measured result: the load terminated
//    (a budget-exhausted simulation surfaces as a quarantined JobError),
//    display ordering is sane, energy is monotone in the window, an aborted
//    load is finalized exactly at its abort instant.
//
// Every failing scenario is delta-debugged (shrink.hpp) down to a locally
// minimal fault-atom subset and reported as a ChaosFinding carrying a
// replayable reproducer (reproducer.hpp).  The oracle is injectable so
// tests can plant a synthetic invariant bug and verify the whole
// find->shrink->reproduce loop end to end.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "chaos/shrink.hpp"

namespace eab::chaos {

/// One invariant-violating scenario, shrunk.
struct ChaosFinding {
  ChaosScenario scenario;                ///< the full failing composition
  std::vector<std::string> violations;   ///< oracle output for the full run
  ChaosScenario minimal;                 ///< ddmin-shrunk reproducer
  int shrink_tests = 0;                  ///< scenario re-runs ddmin consumed

  /// Replayable JSON of the shrunk reproducer.
  std::string reproducer_json() const;
};

/// Outcome of one sweep.
struct ChaosReport {
  int scenarios = 0;      ///< seeds swept
  int survived = 0;       ///< runs with every invariant intact
  int quarantined = 0;    ///< jobs that threw inside the batch engine
  int failures = 0;       ///< findings.size(): invariant violations
  std::vector<ChaosFinding> findings;

  bool ok() const { return failures == 0; }
  double survival_rate() const {
    return scenarios == 0
               ? 1.0
               : static_cast<double>(survived) / static_cast<double>(scenarios);
  }
};

/// Violations found in one run; empty = healthy.
using ChaosOracle = std::function<std::vector<std::string>(
    const core::BatchJob& job, const core::SingleLoadResult& result)>;

/// The standard oracle described in the header comment.  Exposed so
/// harnesses can compose it with extra checks.
std::vector<std::string> default_chaos_oracle(
    const core::BatchJob& job, const core::SingleLoadResult& result);

/// Sweeps seeded chaos scenarios through a shared batch engine.
class ChaosRunner {
 public:
  /// The runner borrows `batch` (not owned).  Every check() and ddmin probe
  /// is a fresh batch run; a healthy sweep makes no probes.
  explicit ChaosRunner(core::BatchRunner& batch) : batch_(batch) {}

  /// Replaces the invariant oracle (tests plant bugs here).  An empty
  /// function restores the default.
  void set_oracle(ChaosOracle oracle) { oracle_ = std::move(oracle); }

  /// Runs make_chaos_scenario(seed) for every seed, checks each run, and
  /// shrinks every failure.  Deterministic in (seeds, oracle): the report
  /// is bit-identical whether `batch` is serial or parallel.
  ChaosReport sweep(const std::vector<std::uint64_t>& seeds,
                    Seconds reading_window = 6.0);

  /// Runs one explicit scenario (e.g. a parsed reproducer) and returns its
  /// violations; a quarantined run yields a single "quarantined: ..." entry.
  std::vector<std::string> check(const ChaosScenario& scenario,
                                 Seconds reading_window = 6.0);

  /// Minimizes a failing scenario's atom list under the current oracle.
  /// Returns the scenario unchanged (zero tests) if it no longer fails.
  ChaosFinding shrink(const ChaosScenario& scenario,
                      Seconds reading_window = 6.0);

 private:
  std::vector<std::string> evaluate(const core::BatchJob& job,
                                    const core::SingleLoadResult& result) const;

  core::BatchRunner& batch_;
  ChaosOracle oracle_;
};

}  // namespace eab::chaos
