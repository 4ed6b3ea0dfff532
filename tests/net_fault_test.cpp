// The deterministic network fault layer: decision purity, link fades and
// flow cancellation, the HTTP client's watchdog/retry/backoff machine, the
// RRC no-stuck-transfer-marker guarantee, and the end-to-end determinism
// contract (same seed + same plan => bit-identical LoadMetrics across
// serial, parallel and memo-replay execution; zero-fault plan => identical
// to a stack with no plan at all).
#include "net/fault.hpp"

#include <gtest/gtest.h>

#include "core/batch.hpp"
#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"
#include "net/http_client.hpp"

namespace eab::net {
namespace {

// --- FaultInjector decision stream -------------------------------------------

TEST(FaultPlan, DisabledPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  sim::Simulator sim;
  SharedLink link(sim, 100 * 1024);
  FaultInjector injector(sim, link, plan);
  EXPECT_EQ(injector.decide("http://x/a", 1).kind, FaultKind::kNone);
  EXPECT_EQ(sim.pending_count(), 0u);  // no fade events scheduled
}

TEST(FaultPlan, RatesAreValidated) {
  sim::Simulator sim;
  SharedLink link(sim, 100 * 1024);
  FaultPlan plan;
  plan.connection_loss_rate = 0.7;
  plan.stall_rate = 0.5;  // sums to 1.2
  EXPECT_THROW(FaultInjector(sim, link, plan), std::invalid_argument);
  plan.stall_rate = -0.1;
  EXPECT_THROW(FaultInjector(sim, link, plan), std::invalid_argument);
  plan.stall_rate = 0;
  plan.fade_count = 2;
  plan.fade_duration = 3.0;
  plan.fade_period = 2.0;  // windows would overlap
  EXPECT_THROW(FaultInjector(sim, link, plan), std::invalid_argument);
}

TEST(FaultInjector, DecisionsArePureInUrlAndAttempt) {
  FaultPlan plan;
  plan.seed = 42;
  plan.connection_loss_rate = 0.25;
  plan.stall_rate = 0.25;
  plan.truncate_rate = 0.25;
  plan.slow_first_byte_rate = 0.25;

  sim::Simulator sim_a, sim_b;
  SharedLink link_a(sim_a, 1024), link_b(sim_b, 1024);
  FaultInjector a(sim_a, link_a, plan);
  FaultInjector b(sim_b, link_b, plan);
  for (int i = 0; i < 50; ++i) {
    const std::string url = "http://site/" + std::to_string(i) + ".html";
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const FaultDecision da = a.decide(url, attempt);
      // Same (url, attempt) in a different injector instance, queried in a
      // different order: identical outcome.
      const FaultDecision db = b.decide(url, attempt);
      EXPECT_EQ(da.kind, db.kind);
      EXPECT_DOUBLE_EQ(da.truncate_fraction, db.truncate_fraction);
      EXPECT_DOUBLE_EQ(da.extra_first_byte_latency, db.extra_first_byte_latency);
    }
  }
}

TEST(FaultInjector, FullRateAlwaysFires) {
  sim::Simulator sim;
  SharedLink link(sim, 1024);
  FaultPlan plan;
  plan.truncate_rate = 1.0;
  FaultInjector injector(sim, link, plan);
  for (int i = 0; i < 20; ++i) {
    const auto d = injector.decide("http://s/" + std::to_string(i), 1);
    EXPECT_EQ(d.kind, FaultKind::kTruncate);
    EXPECT_GT(d.truncate_fraction, 0.0);
    EXPECT_LT(d.truncate_fraction, 1.0);
  }
}

/// Finds a plan seed under which `url` suffers `first` on attempt 1 and
/// `second` on attempt 2 — lets tests script exact fault sequences while
/// keeping every decision on the production (hash-seeded) path.
std::uint64_t find_seed(FaultPlan plan, const std::string& url,
                        FaultKind first, FaultKind second) {
  sim::Simulator sim;
  SharedLink link(sim, 1024);
  for (std::uint64_t seed = 1; seed < 20000; ++seed) {
    plan.seed = seed;
    FaultInjector probe(sim, link, plan);
    if (probe.decide(url, 1).kind == first &&
        probe.decide(url, 2).kind == second) {
      return seed;
    }
  }
  ADD_FAILURE() << "no seed found for requested fault sequence";
  return 1;
}

// --- SharedLink: cancellation and fades ---------------------------------------

TEST(SharedLinkFaults, CancelledFlowNeverCompletes) {
  sim::Simulator sim;
  SharedLink link(sim, 1000.0);
  bool a_done = false, b_done = false;
  const auto a = link.start_flow(1000, [&] { a_done = true; });
  link.start_flow(1000, [&] { b_done = true; });
  sim.run_until(0.5);  // half-way: each flow has ~250 of 1000 bytes
  EXPECT_TRUE(link.cancel_flow(a));
  EXPECT_FALSE(link.cancel_flow(a));  // already gone
  sim.run();
  EXPECT_FALSE(a_done);
  EXPECT_TRUE(b_done);
  // B got the whole link after the cancel: 250 delivered shared + 750 solo.
  EXPECT_NEAR(sim.now(), 0.5 + 0.75, 1e-9);
  EXPECT_EQ(link.delivered(), 1000u);  // cancelled partial bytes not counted
}

TEST(SharedLinkFaults, PauseFreezesProgressExactly) {
  sim::Simulator sim;
  SharedLink link(sim, 1000.0);
  Seconds done_at = -1;
  link.start_flow(1000, [&] { done_at = sim.now(); });
  sim.run_until(0.4);
  link.pause();
  EXPECT_TRUE(link.paused());
  sim.run_until(2.4);  // 2 s of fade: nothing drains
  EXPECT_EQ(link.active_flows(), 1u);
  link.resume();
  sim.run();
  // 1 s of real drain time + 2 s frozen.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(SharedLinkFaults, FadeWindowsPauseTheLink) {
  sim::Simulator sim;
  SharedLink link(sim, 1000.0);
  FaultPlan plan;
  plan.fade_count = 2;
  plan.fade_start = 0.25;
  plan.fade_period = 1.0;
  plan.fade_duration = 0.5;
  FaultInjector injector(sim, link, plan);

  Seconds done_at = -1;
  link.start_flow(1000, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(injector.fades_started(), 2);
  // 1 s of drain stretched across two 0.5 s fades: 0.25 drain, 0.5 fade,
  // 0.5 drain, 0.5 fade, 0.25 drain.
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

// --- HttpClient: watchdog, retries, terminal statuses -------------------------

struct FaultedHttpFixture : ::testing::Test {
  sim::Simulator sim;
  radio::RrcConfig rrc_config;
  radio::RadioPowerModel power;
  radio::LinkConfig link_config;
  WebServer server;
  radio::RrcMachine rrc{sim, rrc_config, power};
  SharedLink link{sim, link_config.dch_bandwidth};

  FaultedHttpFixture() {
    Resource page;
    page.url = "http://x/a.html";
    page.kind = ResourceKind::kHtml;
    page.size = kilobytes(10);
    page.body = "<html><body><p>ten kilobytes of page</p></body></html>";
    server.host(page);

    Resource image;  // cacheable kind (documents always revalidate)
    image.url = "http://x/i.jpg";
    image.kind = ResourceKind::kImage;
    image.size = kilobytes(6);
    server.host(image);
  }

  RetryPolicy quick_retry() {
    RetryPolicy policy;
    policy.request_timeout = 5.0;
    policy.max_retries = 2;
    policy.backoff_initial = 0.5;
    policy.backoff_factor = 2.0;
    return policy;
  }
};

TEST_F(FaultedHttpFixture, StallEveryAttemptTimesOutTerminally) {
  FaultPlan plan;
  plan.stall_rate = 1.0;
  FaultInjector injector(sim, link, plan);
  HttpClient client(sim, server, link, rrc, link_config);
  client.set_fault_injector(&injector);
  client.set_retry_policy(quick_retry());

  FetchResult result;
  bool settled = false;
  client.fetch("http://x/a.html", [&](const FetchResult& r) {
    settled = true;
    result = r;
  });
  sim.run();
  ASSERT_TRUE(settled);
  EXPECT_EQ(result.resource, nullptr);
  EXPECT_EQ(result.status, FetchStatus::kTimedOut);
  EXPECT_EQ(result.attempts, 3);  // 1 + 2 retries
  EXPECT_EQ(client.stats().timeouts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().failed, 1u);
  EXPECT_EQ(client.in_flight(), 0);
}

TEST_F(FaultedHttpFixture, NoStuckTransferMarkerAfterFailures) {
  FaultPlan plan;
  plan.stall_rate = 1.0;
  FaultInjector injector(sim, link, plan);
  HttpClient client(sim, server, link, rrc, link_config);
  client.set_fault_injector(&injector);
  client.set_retry_policy(quick_retry());

  Seconds settled_at = -1;
  client.fetch("http://x/a.html",
               [&](const FetchResult&) { settled_at = sim.now(); });
  sim.run();
  ASSERT_GE(settled_at, 0.0);
  // The acceptance bound: a leaked begin_transfer would pin the radio on
  // DCH-transmit forever (timers cancelled). With the marker correctly
  // released on every abort, T1 then T2 bring the radio home.
  EXPECT_EQ(rrc.state(), radio::RrcState::kIdle);
  EXPECT_LE(sim.now(), settled_at + rrc_config.t1 + rrc_config.t2 + 1e-9);
  // Every attempt burnt real air time: the radio saw DCH residency.
  EXPECT_GT(rrc.time_in(radio::RrcState::kDch), 0.0);
}

TEST_F(FaultedHttpFixture, ConnectionLossRetriesThenSucceeds) {
  FaultPlan plan;
  plan.connection_loss_rate = 0.5;
  plan.seed = find_seed(plan, "http://x/a.html", FaultKind::kConnectionLost,
                        FaultKind::kNone);
  FaultInjector injector(sim, link, plan);
  HttpClient client(sim, server, link, rrc, link_config);
  client.set_fault_injector(&injector);
  client.set_retry_policy(quick_retry());

  FetchResult result;
  client.fetch("http://x/a.html", [&](const FetchResult& r) { result = r; });
  sim.run();
  ASSERT_NE(result.resource, nullptr);
  EXPECT_EQ(result.status, FetchStatus::kOk);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(client.stats().connection_losses, 1u);
  EXPECT_EQ(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().fetches, 1u);
  EXPECT_EQ(rrc.state(), radio::RrcState::kIdle);  // timers ran out post-load
}

TEST_F(FaultedHttpFixture, ConnectionLossExhaustionAborts) {
  FaultPlan plan;
  plan.connection_loss_rate = 1.0;
  FaultInjector injector(sim, link, plan);
  HttpClient client(sim, server, link, rrc, link_config);
  client.set_fault_injector(&injector);
  RetryPolicy policy = quick_retry();
  policy.max_retries = 1;
  client.set_retry_policy(policy);

  FetchResult result;
  client.fetch("http://x/a.html", [&](const FetchResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result.resource, nullptr);
  EXPECT_EQ(result.status, FetchStatus::kAborted);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(client.stats().connection_losses, 2u);
  EXPECT_EQ(rrc.state(), radio::RrcState::kIdle);
}

TEST_F(FaultedHttpFixture, TruncationDeliversPartialBody) {
  FaultPlan plan;
  plan.truncate_rate = 1.0;
  FaultInjector injector(sim, link, plan);
  HttpClient client(sim, server, link, rrc, link_config);
  client.set_fault_injector(&injector);
  client.set_retry_policy(quick_retry());

  FetchResult result;
  client.fetch("http://x/a.html", [&](const FetchResult& r) { result = r; });
  sim.run();
  ASSERT_NE(result.resource, nullptr)
      << to_string(result.status) << " attempts=" << result.attempts;
  EXPECT_EQ(result.status, FetchStatus::kTruncated);
  ASSERT_NE(result.owned, nullptr);
  const Resource* original = server.find("http://x/a.html");
  EXPECT_LT(result.resource->size, original->size);
  EXPECT_GE(result.resource->size, 1u);
  // The body is a strict prefix of the real body.
  EXPECT_TRUE(original->body.rfind(result.resource->body, 0) == 0);
  EXPECT_EQ(client.stats().truncated, 1u);
  // Partial bytes crossed the air and are charged.
  EXPECT_EQ(client.stats().bytes_fetched, result.resource->size);
}

TEST_F(FaultedHttpFixture, TruncatedBodiesNeverEnterTheCache) {
  FaultPlan plan;
  plan.truncate_rate = 1.0;
  FaultInjector injector(sim, link, plan);
  ResourceCache cache(kilobytes(512));
  HttpClient client(sim, server, link, rrc, link_config);
  client.set_fault_injector(&injector);
  client.set_cache(&cache);
  client.set_retry_policy(quick_retry());

  FetchResult result;
  client.fetch("http://x/i.jpg", [&](const FetchResult& r) { result = r; });
  sim.run();
  ASSERT_EQ(result.status, FetchStatus::kTruncated);
  EXPECT_EQ(cache.lookup("http://x/i.jpg"), nullptr);
}

TEST_F(FaultedHttpFixture, SlowFirstByteDelaysNotFails) {
  FaultPlan plan;
  plan.slow_first_byte_rate = 1.0;
  plan.slow_first_byte_extra = 1.0;
  FaultInjector injector(sim, link, plan);
  HttpClient client(sim, server, link, rrc, link_config);
  client.set_fault_injector(&injector);
  // Watchdog far beyond the inflation: the fetch succeeds, just later.
  RetryPolicy policy;
  policy.request_timeout = 30.0;
  client.set_retry_policy(policy);

  FetchResult result;
  client.fetch("http://x/a.html", [&](const FetchResult& r) { result = r; });
  sim.run();
  ASSERT_NE(result.resource, nullptr);
  EXPECT_EQ(result.status, FetchStatus::kOk);
  const Seconds clean_path =
      rrc_config.idle_to_dch_delay + link_config.rtt +
      link_config.server_latency + link_config.slow_start_delay(kilobytes(10)) +
      static_cast<double>(kilobytes(10)) / link_config.dch_bandwidth;
  EXPECT_GT(result.completed_at, clean_path + 0.5 - 1e-9);
}

TEST_F(FaultedHttpFixture, WatchdogCoversPromotionTime) {
  // A watchdog shorter than the IDLE->DCH promotion: the attempt is
  // abandoned while the radio is still promoting, and the late
  // channel-ready callback must not leak a transfer marker.
  HttpClient client(sim, server, link, rrc, link_config);
  RetryPolicy policy;
  policy.request_timeout = 1.0;  // < idle_to_dch_delay (3.25)
  policy.max_retries = 0;
  client.set_retry_policy(policy);

  FetchResult result;
  client.fetch("http://x/a.html", [&](const FetchResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result.status, FetchStatus::kTimedOut);
  EXPECT_EQ(result.resource, nullptr);
  EXPECT_EQ(rrc.state(), radio::RrcState::kIdle);  // promotion+timers resolved
}

// --- end-to-end determinism contract ------------------------------------------

core::StackConfig faulted_config(browser::PipelineMode mode) {
  auto config = core::StackConfig::for_mode(mode);
  config.fault_plan.seed = 11;
  config.fault_plan.connection_loss_rate = 0.08;
  config.fault_plan.stall_rate = 0.04;
  config.fault_plan.truncate_rate = 0.08;
  config.fault_plan.slow_first_byte_rate = 0.05;
  config.fault_plan.fade_count = 2;
  config.fault_plan.fade_start = 2.0;
  config.fault_plan.fade_period = 8.0;
  config.fault_plan.fade_duration = 1.5;
  config.retry.request_timeout = 8.0;
  config.retry.max_retries = 2;
  return config;
}

core::Scenario scenario_of(const core::StackConfig& config,
                           Seconds reading_window, std::uint64_t seed) {
  return core::ScenarioBuilder()
      .stack(config)
      .reading_window(reading_window)
      .seed(seed)
      .build();
}

bool same_result(const core::SingleLoadResult& a,
                 const core::SingleLoadResult& b) {
  return a.metrics.total_time() == b.metrics.total_time() &&
         a.metrics.transmission_time() == b.metrics.transmission_time() &&
         a.metrics.first_display == b.metrics.first_display &&
         a.metrics.bytes_fetched == b.metrics.bytes_fetched &&
         a.metrics.objects_fetched == b.metrics.objects_fetched &&
         a.metrics.failed_resources == b.metrics.failed_resources &&
         a.metrics.truncated_resources == b.metrics.truncated_resources &&
         a.metrics.fetch_retries == b.metrics.fetch_retries &&
         a.energy.load_j == b.energy.load_j &&
         a.energy.with_reading_j == b.energy.with_reading_j &&
         a.dch_time == b.dch_time && a.sim_events == b.sim_events &&
         a.dom_signature == b.dom_signature;
}

TEST(FaultDeterminism, SerialParallelAndMemoReplayAreBitIdentical) {
  const auto specs = corpus::full_benchmark();
  ASSERT_GE(specs.size(), 2u);
  std::vector<core::BatchJob> jobs;
  for (int i = 0; i < 4; ++i) {
    core::BatchJob job;
    job.spec = specs[i % 2];
    job.config = faulted_config(i < 2 ? browser::PipelineMode::kOriginal
                                      : browser::PipelineMode::kEnergyAware);
    job.reading_window = 5.0;
    job.seed = derive_seed(3, static_cast<std::uint64_t>(i));
    jobs.push_back(std::move(job));
  }

  std::vector<core::SingleLoadResult> serial;
  for (const auto& job : jobs) {
    serial.push_back(
        scenario_of(job.config, job.reading_window, job.seed)
            .run_single(job.spec));
  }
  core::BatchRunner runner(3);  // force a real pool
  const auto parallel = runner.run(jobs);
  const auto replay = runner.run(jobs);  // every key a memo hit
  EXPECT_EQ(runner.cache_hits(), jobs.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(same_result(serial[i], parallel[i])) << "parallel job " << i;
    EXPECT_TRUE(same_result(serial[i], replay[i])) << "replay job " << i;
  }
  // The faults actually bit: at least one load saw degradation or retries.
  int degraded = 0;
  for (const auto& r : serial) {
    degraded += r.failed_resources + r.truncated_resources + r.fetch_retries;
  }
  EXPECT_GT(degraded, 0);
}

TEST(FaultDeterminism, MemoKeySeparatesFaultFields) {
  core::BatchJob a;
  a.spec = corpus::full_benchmark()[0];
  a.config = core::StackConfig::for_mode(browser::PipelineMode::kOriginal);
  core::BatchJob b = a;
  b.config.fault_plan.connection_loss_rate = 0.1;
  core::BatchJob c = a;
  c.config.retry.request_timeout = 9.0;
  EXPECT_NE(core::batch_memo_key(a), core::batch_memo_key(b));
  EXPECT_NE(core::batch_memo_key(a), core::batch_memo_key(c));
  EXPECT_NE(core::batch_memo_key(b), core::batch_memo_key(c));
}

TEST(FaultDeterminism, ZeroFaultPlanMatchesNoPlanBitForBit) {
  const auto spec = corpus::mobile_benchmark()[0];
  for (const auto mode : {browser::PipelineMode::kOriginal,
                          browser::PipelineMode::kEnergyAware}) {
    const auto plain = core::StackConfig::for_mode(mode);
    auto zeroed = plain;
    zeroed.fault_plan = net::FaultPlan{};  // disabled by construction
    zeroed.fault_plan.seed = 999;  // a disabled plan's seed must not leak
    const auto a = scenario_of(plain, 10.0, 5).run_single(spec);
    const auto b = scenario_of(zeroed, 10.0, 5).run_single(spec);
    EXPECT_TRUE(same_result(a, b));
    EXPECT_EQ(a.sim_events, b.sim_events);  // not one extra event scheduled
    EXPECT_EQ(a.fetch_retries, 0);
    EXPECT_EQ(a.failed_resources + a.truncated_resources, 0);
  }
}

TEST(FaultDeterminism, StallWithoutWatchdogIsRejected) {
  auto config = core::StackConfig::for_mode(browser::PipelineMode::kOriginal);
  config.fault_plan.stall_rate = 0.5;
  config.retry.request_timeout = 0.0;
  EXPECT_THROW(core::ScenarioBuilder().stack(config).build(),
               std::invalid_argument);
  // A Scenario is plain data and may skip build(); the run path checks too.
  core::Scenario unchecked;
  unchecked.stack = config;
  EXPECT_THROW(unchecked.run_single(corpus::mobile_benchmark()[0]),
               std::invalid_argument);
}

// --- pipeline-level degradation -----------------------------------------------

TEST(FaultedPipeline, LoadsFinishGracefullyUnderHeavyLoss) {
  const auto specs = corpus::full_benchmark();
  for (const auto mode : {browser::PipelineMode::kOriginal,
                          browser::PipelineMode::kEnergyAware}) {
    auto config = core::StackConfig::for_mode(mode);
    config.fault_plan.seed = 77;
    config.fault_plan.connection_loss_rate = 0.15;
    config.fault_plan.stall_rate = 0.10;
    config.fault_plan.truncate_rate = 0.15;
    config.retry.request_timeout = 6.0;
    config.retry.max_retries = 1;

    const auto result = scenario_of(config, 5.0, 9).run_single(specs[0]);
    // The load settled with a final display despite the carnage...
    EXPECT_GT(result.metrics.final_display, 0.0);
    EXPECT_GE(result.metrics.final_display, result.metrics.transmission_done);
    // ...something actually degraded at 40 % fault rates...
    EXPECT_GT(result.failed_resources + result.truncated_resources, 0);
    EXPECT_GE(result.metrics.degraded_fraction(), 0.0);
    EXPECT_LE(result.metrics.degraded_fraction(), 1.0);
    // ...and the DOM is still a usable tree.
    EXPECT_FALSE(result.dom_signature.empty());
  }
}

TEST(FaultedPipeline, DegradedLoadIsDeterministic) {
  auto config = core::StackConfig::for_mode(browser::PipelineMode::kEnergyAware);
  config.fault_plan.seed = 5;
  config.fault_plan.truncate_rate = 0.3;
  config.fault_plan.connection_loss_rate = 0.2;
  config.retry.request_timeout = 6.0;
  const auto spec = corpus::full_benchmark()[1];
  const core::Scenario scenario = scenario_of(config, 5.0, 4);
  const auto a = scenario.run_single(spec);
  const auto b = scenario.run_single(spec);
  EXPECT_TRUE(same_result(a, b));
  EXPECT_EQ(a.dom_signature, b.dom_signature);
}

}  // namespace
}  // namespace eab::net
