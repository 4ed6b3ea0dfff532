#include "chaos/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "chaos/reproducer.hpp"
#include "chaos/shrink.hpp"
#include "core/batch.hpp"

namespace eab::chaos {
namespace {

bool has_domain(const std::vector<ChaosFault>& faults, ChaosDomain domain) {
  return std::any_of(faults.begin(), faults.end(), [domain](const ChaosFault& f) {
    return f.domain == domain;
  });
}

ChaosFault fault_of(ChaosDomain domain, double p0, double p1 = 0, double p2 = 0,
                    double p3 = 0) {
  ChaosFault fault;
  fault.domain = domain;
  fault.params = {p0, p1, p2, p3};
  return fault;
}

TEST(ChaosPlan, ScenarioDerivationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const ChaosScenario a = make_chaos_scenario(seed);
    const ChaosScenario b = make_chaos_scenario(seed);
    EXPECT_EQ(a, b);
    EXPECT_GE(a.faults.size(), 1u);
    EXPECT_LE(a.faults.size(), 4u);
    EXPECT_LT(a.spec_index, static_cast<int>(chaos_spec_pool().size()));
  }
}

TEST(ChaosPlan, ScenariosVaryAcrossSeeds) {
  std::set<int> specs;
  std::set<int> domains;
  std::set<bool> modes;
  for (const std::uint64_t seed : chaos_seeds(7, 64)) {
    const ChaosScenario s = make_chaos_scenario(seed);
    specs.insert(s.spec_index);
    modes.insert(s.mode == browser::PipelineMode::kEnergyAware);
    for (const ChaosFault& f : s.faults) {
      domains.insert(static_cast<int>(f.domain));
    }
  }
  EXPECT_GE(specs.size(), 5u);
  EXPECT_EQ(modes.size(), 2u);
  // 64 scenarios with 1-4 atoms each should visit every fault domain.
  EXPECT_EQ(domains.size(), static_cast<std::size_t>(kChaosDomainCount));
}

TEST(ChaosPlan, AppliedFaultMixStaysValid) {
  for (const std::uint64_t seed : chaos_seeds(11, 64)) {
    const ChaosScenario s = make_chaos_scenario(seed);
    const core::BatchJob job = apply_chaos(s);
    const net::FaultPlan& plan = job.config.fault_plan;
    const double sum = plan.connection_loss_rate + plan.stall_rate +
                       plan.truncate_rate + plan.slow_first_byte_rate;
    EXPECT_LE(sum, 0.9 + 1e-12);
    if (plan.stall_rate > 0) {
      EXPECT_GT(job.config.retry.request_timeout, 0.0)
          << "stalls without a watchdog would hang the load";
    }
    EXPECT_TRUE(job.config.trace) << "the oracle needs a recording";
    // The stack assembler must accept every generated composition.
    EXPECT_NO_THROW(core::validate_fault_wiring(job.config));
  }
}

TEST(ChaosReproducer, RoundTripsExactly) {
  for (const std::uint64_t seed : chaos_seeds(23, 16)) {
    const ChaosScenario scenario = make_chaos_scenario(seed);
    const std::string json = scenario_to_json(scenario);
    const ChaosScenario parsed = scenario_from_json(json);
    EXPECT_EQ(scenario, parsed) << json;
  }
}

TEST(ChaosReproducer, MalformedDocumentsThrow) {
  const std::string good = scenario_to_json(make_chaos_scenario(5));
  EXPECT_NO_THROW(scenario_from_json(good));
  EXPECT_THROW(scenario_from_json(""), std::runtime_error);
  EXPECT_THROW(scenario_from_json("{}"), std::runtime_error);
  EXPECT_THROW(scenario_from_json(good + "garbage"), std::runtime_error);
  EXPECT_THROW(scenario_from_json(good.substr(0, good.size() / 2)),
               std::runtime_error);

  std::string bad_mode = good;
  const auto mode_pos = bad_mode.find("\"original\"");
  if (mode_pos != std::string::npos) {
    bad_mode.replace(mode_pos, 10, "\"turbo\"");
    EXPECT_THROW(scenario_from_json(bad_mode), std::runtime_error);
  }

  ChaosScenario out_of_range = make_chaos_scenario(5);
  std::string json = scenario_to_json(out_of_range);
  const std::string needle =
      "\"spec_index\": " + std::to_string(out_of_range.spec_index);
  json.replace(json.find(needle), needle.size(), "\"spec_index\": 9999");
  EXPECT_THROW(scenario_from_json(json), std::runtime_error);

  std::string bad_domain = good;
  const auto domain_pos = bad_domain.find("\"domain\": \"");
  if (domain_pos != std::string::npos) {
    bad_domain.replace(domain_pos, 11, "\"domain\": \"x");
    EXPECT_THROW(scenario_from_json(bad_domain), std::runtime_error);
  }
}

TEST(ChaosShrink, DdminFindsMinimalFailingPair) {
  // Planted bug: the composition fails iff it contains BOTH the abort and
  // the RIL atom.  Six atoms shrink to exactly those two.
  const std::vector<ChaosFault> failing = {
      fault_of(ChaosDomain::kNetLoss, 0.1),
      fault_of(ChaosDomain::kAbort, 2.0),
      fault_of(ChaosDomain::kTimerDrift, 1.5, 0.8),
      fault_of(ChaosDomain::kRilFailure, 2),
      fault_of(ChaosDomain::kCpuSlowdown, 2.0),
      fault_of(ChaosDomain::kCacheStorm, 2, 0.5, 0.5),
  };
  int calls = 0;
  auto predicate = [&calls](const std::vector<ChaosFault>& subset) {
    ++calls;
    return has_domain(subset, ChaosDomain::kAbort) &&
           has_domain(subset, ChaosDomain::kRilFailure);
  };
  const ShrinkOutcome outcome = ddmin(failing, predicate);
  EXPECT_EQ(outcome.minimal.size(), 2u);
  EXPECT_TRUE(has_domain(outcome.minimal, ChaosDomain::kAbort));
  EXPECT_TRUE(has_domain(outcome.minimal, ChaosDomain::kRilFailure));
  EXPECT_EQ(outcome.tests, calls);
  EXPECT_GT(outcome.tests, 0);
}

TEST(ChaosShrink, SingleAtomIsAlreadyMinimal) {
  const std::vector<ChaosFault> failing = {fault_of(ChaosDomain::kNetLoss, 0.2)};
  const ShrinkOutcome outcome =
      ddmin(failing, [](const std::vector<ChaosFault>&) { return true; });
  EXPECT_EQ(outcome.minimal.size(), 1u);
  EXPECT_EQ(outcome.tests, 0);
}

TEST(ChaosSweep, DefaultOracleSurvivesSeededSweep) {
  core::BatchRunner batch(4);
  ChaosRunner runner(batch);
  const ChaosReport report = runner.sweep(chaos_seeds(2026, 48));
  EXPECT_EQ(report.scenarios, 48);
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_EQ(report.failures, 0) << [&] {
    std::ostringstream out;
    for (const ChaosFinding& f : report.findings) {
      out << "seed " << f.scenario.seed << ":\n";
      for (const std::string& v : f.violations) out << "  " << v << "\n";
    }
    return out.str();
  }();
  EXPECT_EQ(report.survived, report.scenarios);
  EXPECT_DOUBLE_EQ(report.survival_rate(), 1.0);
}

TEST(ChaosSweep, SerialAndParallelSweepsAreIdentical) {
  const std::vector<std::uint64_t> seeds = chaos_seeds(99, 16);
  core::BatchRunner serial(1);
  core::BatchRunner parallel(4);
  ChaosRunner serial_runner(serial);
  ChaosRunner parallel_runner(parallel);
  const ChaosReport a = serial_runner.sweep(seeds);
  const ChaosReport b = parallel_runner.sweep(seeds);
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.survived, b.survived);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.failures, b.failures);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].scenario, b.findings[i].scenario);
    EXPECT_EQ(a.findings[i].minimal, b.findings[i].minimal);
    EXPECT_EQ(a.findings[i].violations, b.findings[i].violations);
  }
  // The engine-wide metrics snapshot is part of the determinism contract.
  EXPECT_TRUE(serial.metrics().same_as(parallel.metrics()));
}

TEST(ChaosSweep, PlantedInvariantBugIsCaughtAndShrunk) {
  // Scenario with five atoms, two of which (abort + RIL failure) trip a
  // planted oracle bug.  The runner must flag it and shrink the reproducer
  // to at most three atoms (here: exactly the guilty pair).
  ChaosScenario scenario;
  scenario.seed = 77;
  scenario.spec_index = 0;  // a mobile page: cheap to re-run under ddmin
  scenario.mode = browser::PipelineMode::kEnergyAware;
  scenario.faults = {
      fault_of(ChaosDomain::kTimerDrift, 1.3, 0.9),
      fault_of(ChaosDomain::kAbort, 1.0),
      fault_of(ChaosDomain::kNetLoss, 0.05),
      fault_of(ChaosDomain::kRilFailure, 1),
      fault_of(ChaosDomain::kCpuSlowdown, 1.5),
  };

  core::BatchRunner batch(2);
  ChaosRunner runner(batch);
  runner.set_oracle([](const core::BatchJob& job,
                       const core::SingleLoadResult& result) {
    std::vector<std::string> violations =
        default_chaos_oracle(job, result);
    if (job.config.chaos.abort_at > 0 &&
        job.config.chaos.ril_socket_failures > 0) {
      violations.push_back("planted: abort composed with RIL failure");
    }
    return violations;
  });

  const ChaosFinding finding = runner.shrink(scenario);
  ASSERT_FALSE(finding.violations.empty());
  EXPECT_LE(finding.minimal.faults.size(), 3u);
  EXPECT_TRUE(has_domain(finding.minimal.faults, ChaosDomain::kAbort));
  EXPECT_TRUE(has_domain(finding.minimal.faults, ChaosDomain::kRilFailure));
  EXPECT_GT(finding.shrink_tests, 0);

  // The shrunk reproducer replays: it still fails, and it survives a JSON
  // round trip bit-for-bit.
  EXPECT_FALSE(runner.check(finding.minimal).empty());
  const ChaosScenario replayed =
      scenario_from_json(finding.reproducer_json());
  EXPECT_EQ(replayed, finding.minimal);
  EXPECT_FALSE(runner.check(replayed).empty());
}

TEST(ChaosSweep, BudgetExhaustedLoadIsQuarantinedNotHung) {
  core::BatchJob job = apply_chaos(make_chaos_scenario(4));
  job.config.sim_event_budget = 50;  // far below any real load
  core::BatchRunner batch(1);
  const std::vector<core::SingleLoadResult> results = batch.run({job});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(batch.last_errors().size(), 1u);
  const core::JobError& error = batch.last_errors()[0];
  EXPECT_EQ(error.index, 0u);
  EXPECT_NE(error.what.find("event budget exhausted"), std::string::npos)
      << error.what;
  EXPECT_NE(error.what.find("pending heap"), std::string::npos)
      << "the diagnostic dump names what was still scheduled";
  EXPECT_EQ(error.seed, job.seed);
}

TEST(ChaosCorpus, CheckedInReproducersReplayClean) {
  // Every reproducer in tests/chaos_corpus documents a composition that
  // once looked suspicious (or regressed); replaying them must stay
  // violation-free under the default oracle.
  const std::filesystem::path dir(EAB_CHAOS_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  core::BatchRunner batch(2);
  ChaosRunner runner(batch);
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const ChaosScenario scenario = scenario_from_json(buffer.str());
    const std::vector<std::string> violations = runner.check(scenario);
    EXPECT_TRUE(violations.empty()) << file << ": " << [&] {
      std::string joined;
      for (const std::string& v : violations) joined += v + "\n";
      return joined;
    }();
  }
}

}  // namespace
}  // namespace eab::chaos
