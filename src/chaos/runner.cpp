#include "chaos/runner.hpp"

#include <cmath>

#include "chaos/reproducer.hpp"
#include "obs/audit.hpp"

namespace eab::chaos {
namespace {

constexpr double kTimeEps = 1e-9;

}  // namespace

std::string ChaosFinding::reproducer_json() const {
  return scenario_to_json(minimal);
}

std::vector<std::string> default_chaos_oracle(
    const core::BatchJob& job, const core::SingleLoadResult& result) {
  std::vector<std::string> violations;
  const browser::LoadMetrics& m = result.metrics;

  // Liveness / shape: the load terminated with a coherent timeline.
  if (result.sim_events == 0) {
    violations.push_back("liveness: simulator fired no events");
  }
  if (m.final_display + kTimeEps < m.first_display) {
    violations.push_back("timeline: final display precedes first display");
  }
  if (m.final_display + kTimeEps < m.started) {
    violations.push_back("timeline: final display precedes load start");
  }
  if (m.aborted && std::abs(m.final_display - m.aborted_at) > kTimeEps) {
    violations.push_back(
        "abort: load not finalized at the abort instant (final_display=" +
        std::to_string(m.final_display) +
        ", aborted_at=" + std::to_string(m.aborted_at) + ")");
  }
  if (!m.aborted && job.config.chaos.abort_at > 0 &&
      job.config.chaos.abort_at + kTimeEps < m.final_display) {
    violations.push_back("abort: scheduled abort before final display "
                         "did not take effect");
  }

  // Energy accounting must be monotone over the observed window, partial
  // loads included.
  if (result.energy.load_j < -kTimeEps) {
    violations.push_back("energy: negative load energy");
  }
  if (result.energy.with_reading_j + kTimeEps < result.energy.load_j) {
    violations.push_back("energy: reading-window energy below load energy");
  }

  // Cross-layer replay: RRC legality, timer discipline, transfer-marker
  // balance, retry budgets, queued==settled, energy reconciliation.
  if (!result.trace) {
    violations.push_back("trace: chaos job produced no recording");
  } else {
    const obs::AuditReport report = obs::TraceAuditor().audit(
        *result.trace,
        core::make_audit_inputs(job.config, result.energy.radio_j,
                                result.energy.window_s));
    violations.insert(violations.end(), report.violations.begin(),
                      report.violations.end());
  }
  return violations;
}

std::vector<std::string> ChaosRunner::evaluate(
    const core::BatchJob& job, const core::SingleLoadResult& result) const {
  return oracle_ ? oracle_(job, result) : default_chaos_oracle(job, result);
}

std::vector<std::string> ChaosRunner::check(const ChaosScenario& scenario,
                                            Seconds reading_window) {
  const core::BatchJob job = apply_chaos(scenario, reading_window);
  const std::vector<core::SingleLoadResult> results = batch_.run({job});
  for (const core::JobError& error : batch_.last_errors()) {
    if (error.index == 0) return {"quarantined: " + error.what};
  }
  return evaluate(job, results[0]);
}

ChaosFinding ChaosRunner::shrink(const ChaosScenario& scenario,
                                 Seconds reading_window) {
  ChaosFinding finding;
  finding.scenario = scenario;
  finding.violations = check(scenario, reading_window);
  finding.minimal = scenario;
  if (finding.violations.empty()) return finding;

  auto still_fails = [&](const std::vector<ChaosFault>& subset) {
    ChaosScenario candidate = scenario;
    candidate.faults = subset;
    return !check(candidate, reading_window).empty();
  };
  const ShrinkOutcome outcome = ddmin(scenario.faults, still_fails);
  finding.minimal.faults = outcome.minimal;
  finding.shrink_tests = outcome.tests;
  return finding;
}

ChaosReport ChaosRunner::sweep(const std::vector<std::uint64_t>& seeds,
                               Seconds reading_window) {
  ChaosReport report;
  report.scenarios = static_cast<int>(seeds.size());

  std::vector<ChaosScenario> scenarios;
  std::vector<core::BatchJob> jobs;
  scenarios.reserve(seeds.size());
  jobs.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    scenarios.push_back(make_chaos_scenario(seed));
    jobs.push_back(apply_chaos(scenarios.back(), reading_window));
  }

  const std::vector<core::SingleLoadResult> results = batch_.run(jobs);
  // Snapshot the quarantine list before ddmin probes overwrite it.
  const std::vector<core::JobError> errors = batch_.last_errors();
  std::vector<std::string> quarantine_reason(jobs.size());
  std::vector<char> quarantined(jobs.size(), 0);
  for (const core::JobError& error : errors) {
    if (error.index < jobs.size()) {
      quarantined[error.index] = 1;
      quarantine_reason[error.index] = error.what;
    }
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::vector<std::string> violations;
    if (quarantined[i]) {
      ++report.quarantined;
      violations.push_back("quarantined: " + quarantine_reason[i]);
    } else {
      violations = evaluate(jobs[i], results[i]);
    }
    if (violations.empty()) {
      ++report.survived;
      continue;
    }
    ++report.failures;
    ChaosFinding finding;
    finding.scenario = scenarios[i];
    finding.violations = std::move(violations);
    finding.minimal = scenarios[i];
    if (scenarios[i].faults.size() > 1) {
      auto still_fails = [&](const std::vector<ChaosFault>& subset) {
        ChaosScenario candidate = scenarios[i];
        candidate.faults = subset;
        return !check(candidate, reading_window).empty();
      };
      const ShrinkOutcome outcome = ddmin(scenarios[i].faults, still_fails);
      finding.minimal.faults = outcome.minimal;
      finding.shrink_tests = outcome.tests;
    }
    report.findings.push_back(std::move(finding));
  }
  return report;
}

}  // namespace eab::chaos
