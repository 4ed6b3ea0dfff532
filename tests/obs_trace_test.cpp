// Tests for the observability subsystem: trace recording, the metrics
// registry, serial/parallel determinism of both, the no-trace identity
// contract, and the cross-layer TraceAuditor (including that it actually
// rejects manufactured violations).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/batch.hpp"
#include "core/scenario.hpp"
#include "core/session.hpp"
#include "obs/audit.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace eab::obs {
namespace {

/// Small page so each traced load stays cheap.
corpus::PageSpec tiny_spec(int variant) {
  corpus::PageSpec spec;
  spec.site = "obs.example/" + std::to_string(variant);
  spec.mobile = true;
  spec.html_bytes = kilobytes(6);
  spec.css_files = 1;
  spec.css_bytes = kilobytes(2);
  spec.css_images = 1;
  spec.js_files = 1;
  spec.js_bytes = kilobytes(2);
  spec.js_busy_iterations = 200;
  spec.js_images = 1;
  spec.html_images = 2;
  spec.image_bytes = kilobytes(3);
  spec.anchors = 4;
  spec.paragraphs = 4;
  return spec;
}

core::StackConfig traced_config(browser::PipelineMode mode) {
  auto config = core::StackConfig::for_mode(mode);
  config.trace = true;
  return config;
}

/// The bench_ext_faults 20 % composite mix.
core::StackConfig faulty_config(browser::PipelineMode mode) {
  auto config = traced_config(mode);
  config.fault_plan.seed = 20130707;
  config.fault_plan.connection_loss_rate = 0.08;
  config.fault_plan.stall_rate = 0.04;
  config.fault_plan.truncate_rate = 0.04;
  config.fault_plan.slow_first_byte_rate = 0.04;
  config.retry.request_timeout = 8.0;
  config.retry.max_retries = 2;
  config.retry.backoff_initial = 0.5;
  config.retry.backoff_factor = 2.0;
  return config;
}

/// `config` through the builder with the suite's 5 s reading window.
core::Scenario scenario_of(const core::StackConfig& config,
                           std::uint64_t seed = 1) {
  return core::ScenarioBuilder()
      .stack(config)
      .reading_window(5.0)
      .seed(seed)
      .build();
}

AuditInputs inputs_for(const core::StackConfig& config,
                       const core::SingleLoadResult& r) {
  AuditInputs inputs;
  inputs.rrc = config.rrc;
  inputs.power = config.power;
  inputs.max_retries = config.retry.max_retries;
  inputs.radio_energy = r.energy.radio_j;
  inputs.t_end = r.energy.window_s;
  return inputs;
}

TEST(TraceRecorder, InternsStringsStably) {
  TraceRecorder trace;
  const auto a = trace.intern("http://a");
  const auto b = trace.intern("http://b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, trace.intern("http://a"));
  EXPECT_EQ(trace.name(a), "http://a");
  EXPECT_EQ(trace.name(b), "http://b");
}

TEST(TraceRecorder, CountsAndEquality) {
  TraceRecorder one, two;
  one.record(1.0, TraceKind::kRrcTimerSet, 1, 0, 5.0);
  one.record(2.0, TraceKind::kRrcTimerFire, 1);
  two.record(1.0, TraceKind::kRrcTimerSet, 1, 0, 5.0);
  EXPECT_EQ(one.count(TraceKind::kRrcTimerSet), 1u);
  EXPECT_EQ(one.count(TraceKind::kRrcTimerFire), 1u);
  EXPECT_EQ(one.count(TraceKind::kRrcTimerCancel), 0u);
  EXPECT_FALSE(one.same_as(two));
  two.record(2.0, TraceKind::kRrcTimerFire, 1);
  EXPECT_TRUE(one.same_as(two));
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry m;
  m.count("jobs");
  m.count("jobs", 2);
  m.set_max("peak", 5);
  m.set_max("peak", 3);  // gauges keep the max
  m.observe("load_s", 0.5);
  m.observe("load_s", 2.5);
  EXPECT_DOUBLE_EQ(m.value("jobs"), 3);
  EXPECT_DOUBLE_EQ(m.value("peak"), 5);
  EXPECT_DOUBLE_EQ(m.value("absent"), 0);
  const Histogram* h = m.histogram("load_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 3.0);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 2.5);
}

TEST(MetricsRegistry, MergeCombinesByKind) {
  MetricsRegistry a, b;
  a.count("n", 2);
  b.count("n", 3);
  a.set_max("peak", 7);
  b.set_max("peak", 9);
  a.observe("t", 1.0);
  b.observe("t", 4.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value("n"), 5);
  EXPECT_DOUBLE_EQ(a.value("peak"), 9);
  EXPECT_EQ(a.histogram("t")->count, 2u);
  EXPECT_DOUBLE_EQ(a.histogram("t")->sum, 5.0);
}

TEST(MetricsRegistry, MergeKindMismatchThrows) {
  MetricsRegistry a, b;
  a.count("x");
  b.set_max("x", 1);
  EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(MetricsRegistry, JsonIsDeterministic) {
  MetricsRegistry a, b;
  // Insert in different orders; the sorted map canonicalizes.
  a.count("zeta", 1);
  a.count("alpha", 2);
  b.count("alpha", 2);
  b.count("zeta", 1);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("\"alpha\""), std::string::npos);
}

TEST(Simulator, TracksCancellationAndHeapCounters) {
  sim::Simulator sim;
  const auto keep = sim.schedule_in(1.0, [] {});
  const auto drop = sim.schedule_in(2.0, [] {});
  sim.schedule_in(3.0, [] {});
  EXPECT_EQ(sim.peak_heap_size(), 3u);
  EXPECT_TRUE(sim.cancel(drop));
  EXPECT_FALSE(sim.cancel(drop));  // second cancel is a no-op
  EXPECT_EQ(sim.cancelled_count(), 1u);
  sim.run();
  EXPECT_EQ(sim.fired_count(), 2u);
  EXPECT_EQ(sim.tombstones_popped(), 1u);
  EXPECT_FALSE(sim.cancel(keep));  // already fired
  EXPECT_EQ(sim.cancelled_count(), 1u);
}

TEST(ObsIdentity, TracingChangesNoResult) {
  const auto spec = tiny_spec(0);
  for (const auto mode : {browser::PipelineMode::kOriginal,
                          browser::PipelineMode::kEnergyAware}) {
    auto plain_cfg = core::StackConfig::for_mode(mode);
    const auto traced_cfg = traced_config(mode);
    const auto plain = scenario_of(plain_cfg).run_single(spec);
    const auto traced = scenario_of(traced_cfg).run_single(spec);
    EXPECT_EQ(plain.trace, nullptr);
    ASSERT_NE(traced.trace, nullptr);
    EXPECT_GT(traced.trace->size(), 0u);
    // The whole contract: recording is pure observation.
    EXPECT_EQ(plain.sim_events, traced.sim_events);
    EXPECT_EQ(plain.energy.load_j, traced.energy.load_j);
    EXPECT_EQ(plain.energy.with_reading_j, traced.energy.with_reading_j);
    EXPECT_EQ(plain.dom_signature, traced.dom_signature);
    EXPECT_EQ(plain.metrics.total_time(), traced.metrics.total_time());
    EXPECT_EQ(plain.energy.radio_j, traced.energy.radio_j);
    // job_metrics differ only in the trace.events counter.
    EXPECT_EQ(plain.job_metrics.value("sim.events_fired"),
              traced.job_metrics.value("sim.events_fired"));
    EXPECT_EQ(plain.job_metrics.value("http.fetches"),
              traced.job_metrics.value("http.fetches"));
    EXPECT_EQ(plain.job_metrics.value("trace.events"), 0);
    EXPECT_GT(traced.job_metrics.value("trace.events"), 0);
  }
}

TEST(ObsIdentity, FaultInjectedTracingChangesNoResult) {
  const auto spec = tiny_spec(1);
  auto plain_cfg = faulty_config(browser::PipelineMode::kEnergyAware);
  plain_cfg.trace = false;
  const auto traced_cfg = faulty_config(browser::PipelineMode::kEnergyAware);
  const auto plain = scenario_of(plain_cfg).run_single(spec);
  const auto traced = scenario_of(traced_cfg).run_single(spec);
  EXPECT_EQ(plain.sim_events, traced.sim_events);
  EXPECT_EQ(plain.energy.load_j, traced.energy.load_j);
  EXPECT_EQ(plain.fetch_retries, traced.fetch_retries);
  EXPECT_EQ(plain.dom_signature, traced.dom_signature);
}

TEST(Audit, CleanLoadsPassBothPipelines) {
  const auto spec = tiny_spec(0);
  for (const auto mode : {browser::PipelineMode::kOriginal,
                          browser::PipelineMode::kEnergyAware}) {
    const auto config = traced_config(mode);
    const auto r = scenario_of(config).run_single(spec);
    ASSERT_NE(r.trace, nullptr);
    const auto report = TraceAuditor().audit(*r.trace, inputs_for(config, r));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.transitions_checked, 0);
    EXPECT_GT(report.fetches_checked, 0);
    EXPECT_NEAR(report.trace_energy, report.reference_energy, 1e-6);
  }
}

TEST(Audit, FaultySweepPasses) {
  // Several seeds of the 20 % composite mix: retries, timeouts, truncations
  // and fades must all replay cleanly.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto config = faulty_config(browser::PipelineMode::kEnergyAware);
    config.fault_plan.seed = seed;
    const auto r = scenario_of(config, seed).run_single(tiny_spec(2));
    ASSERT_NE(r.trace, nullptr);
    const auto report = TraceAuditor().audit(*r.trace, inputs_for(config, r));
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.summary();
  }
}

TEST(Audit, SessionPoliciesPass) {
  const auto page = tiny_spec(3);
  const std::vector<core::PageVisit> visits = {
      {&page, 12.0}, {&page, 3.0}, {&page, 12.0}};
  for (const auto policy : {core::SessionPolicy::kBaseline,
                            core::SessionPolicy::kEnergyAwareAlwaysOff,
                            core::SessionPolicy::kAccurate}) {
    TraceRecorder recorder;
    core::SessionConfig config;
    config.policy = policy;
    config.trace = &recorder;
    const auto result = core::run_session(visits, config, 5);
    EXPECT_GT(recorder.size(), 0u);
    AuditInputs inputs;
    inputs.rrc = config.stack.rrc;
    inputs.power = config.stack.power;
    inputs.max_retries = config.stack.retry.max_retries;
    inputs.radio_energy = result.energy.radio_j;
    inputs.t_end = result.energy.window_s;
    const auto report = TraceAuditor().audit(recorder, inputs);
    EXPECT_TRUE(report.ok())
        << core::to_string(policy) << ":\n" << report.summary();
  }
}

TEST(Audit, SessionWithRilFailurePasses) {
  // A dead rild socket: the policy's release dies at the socket hop, the
  // radio demotes via timers alone.  The trace must still replay cleanly.
  const auto page = tiny_spec(3);
  const std::vector<core::PageVisit> visits = {{&page, 15.0}, {&page, 15.0}};
  TraceRecorder recorder;
  core::SessionConfig config;
  config.policy = core::SessionPolicy::kEnergyAwareAlwaysOff;
  config.ril_socket_failures = 1;
  config.trace = &recorder;
  const auto result = core::run_session(visits, config, 5);
  EXPECT_EQ(result.ril_socket_failures, 1);
  EXPECT_EQ(recorder.count(TraceKind::kRilSocketFailure), 1u);
  AuditInputs inputs;
  inputs.rrc = config.stack.rrc;
  inputs.power = config.stack.power;
  inputs.radio_energy = result.energy.radio_j;
  inputs.t_end = result.energy.window_s;
  const auto report = TraceAuditor().audit(recorder, inputs);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Audit, RejectsIllegalTransition) {
  TraceRecorder trace;
  // IDLE -> FACH has no transition path in the UMTS machine modeled here.
  trace.record(0.5, TraceKind::kRrcStateEnter, 0 /*IDLE*/, 1 /*FACH*/);
  AuditInputs inputs;
  inputs.t_end = 1.0;
  const auto report = TraceAuditor().audit(trace, inputs);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("transition"), std::string::npos)
      << report.summary();
}

TEST(Audit, RejectsLeakedTransferMarker) {
  TraceRecorder trace;
  trace.record(0.1, TraceKind::kRrcTransferBegin, 0, 1);
  AuditInputs inputs;
  inputs.t_end = 1.0;
  inputs.radio_energy = inputs.power.idle * 1.0;
  const auto report = TraceAuditor().audit(trace, inputs);
  EXPECT_FALSE(report.ok());
}

TEST(Audit, RejectsTamperedEnergy) {
  const auto config = traced_config(browser::PipelineMode::kEnergyAware);
  const auto r = scenario_of(config).run_single(tiny_spec(0));
  auto inputs = inputs_for(config, r);
  EXPECT_TRUE(TraceAuditor().audit(*r.trace, inputs).ok());
  inputs.radio_energy += 5.0;  // claim 5 J the events cannot explain
  const auto report = TraceAuditor().audit(*r.trace, inputs);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("energy"), std::string::npos)
      << report.summary();
}

TEST(Audit, RejectsRetryBudgetOverrun) {
  TraceRecorder trace;
  const auto url = trace.intern("http://x/a");
  trace.record(0.1, TraceKind::kHttpFetchQueued, 0, 0, 0, url);
  // 5 attempts against a budget of 1 + max_retries = 3.
  for (int attempt = 1; attempt <= 5; ++attempt) {
    trace.record(0.1 * attempt + 0.1, TraceKind::kHttpAttemptStart, attempt, 0,
                 0, url);
  }
  trace.record(1.0, TraceKind::kHttpFetchSettled, 5, 0, 100.0, url);
  AuditInputs inputs;
  inputs.max_retries = 2;
  inputs.t_end = 1.0;
  inputs.radio_energy = inputs.power.idle * 1.0;
  const auto report = TraceAuditor().audit(trace, inputs);
  EXPECT_FALSE(report.ok());
}

TEST(Batch, SerialAndParallelProduceIdenticalObservability) {
  std::vector<core::BatchJob> jobs;
  for (int i = 0; i < 8; ++i) {
    core::BatchJob job;
    job.spec = tiny_spec(i % 3);
    job.config = traced_config(i % 2 == 0 ? browser::PipelineMode::kOriginal
                                          : browser::PipelineMode::kEnergyAware);
    job.reading_window = 5.0;
    job.seed = derive_seed(42, static_cast<std::uint64_t>(i));
    jobs.push_back(std::move(job));
  }

  core::BatchRunner serial(1);
  core::BatchRunner parallel(4);
  const auto serial_results = serial.run(jobs);
  const auto parallel_results = parallel.run(jobs);

  // Metrics snapshots merge in submission order: bit-identical JSON.
  EXPECT_TRUE(serial.metrics().same_as(parallel.metrics()));
  EXPECT_EQ(serial.metrics().to_json(), parallel.metrics().to_json());
  EXPECT_DOUBLE_EQ(serial.metrics().value("batch.jobs"), 8);

  // Per-job traces are event-for-event identical.
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    ASSERT_NE(serial_results[i].trace, nullptr);
    ASSERT_NE(parallel_results[i].trace, nullptr);
    EXPECT_TRUE(
        serial_results[i].trace->same_as(*parallel_results[i].trace))
        << "job " << i;
  }
}

TEST(Batch, TraceFlagIsPartOfMemoKey) {
  core::BatchJob traced;
  traced.spec = tiny_spec(0);
  traced.config = traced_config(browser::PipelineMode::kEnergyAware);
  auto plain = traced;
  plain.config.trace = false;
  EXPECT_NE(core::batch_memo_key(traced), core::batch_memo_key(plain));

  // An untraced job must not be served a traced recording from the cache.
  core::BatchRunner runner(1);
  const auto first = runner.run({traced});
  const auto second = runner.run({plain});
  EXPECT_NE(first[0].trace, nullptr);
  EXPECT_EQ(second[0].trace, nullptr);
  EXPECT_EQ(first[0].sim_events, second[0].sim_events);
}

TEST(ChromeTrace, ExportsParseableRecords) {
  const auto config = traced_config(browser::PipelineMode::kEnergyAware);
  const auto r = scenario_of(config).run_single(tiny_spec(0));
  const std::string json = chrome_trace_json(*r.trace, r.energy.window_s);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // Crude balance check so a missing comma or brace shows up.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace eab::obs
