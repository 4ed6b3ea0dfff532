#include "core/experiment.hpp"

#include <optional>
#include <stdexcept>

#include "core/ril.hpp"
#include "core/scenario.hpp"
#include "net/cache.hpp"
#include "net/outage.hpp"
#include "net/socket_downloader.hpp"
#include "sim/simulator.hpp"

namespace eab::core {

void validate_fault_wiring(const StackConfig& config) {
  // A blackholed response produces no event at all; without a watchdog the
  // fetch would never settle and the load would hang. Reject the
  // configuration up front instead of diagnosing a stuck simulation.
  if (config.fault_plan.stall_rate > 0 && config.retry.request_timeout <= 0) {
    throw std::invalid_argument(
        "StackConfig: fault_plan.stall_rate needs retry.request_timeout > 0");
  }
}

StackConfig StackConfig::for_mode(browser::PipelineMode mode) {
  // Delegates to the builder so there is exactly one place the mode/fast-
  // dormancy coupling (and any future mode-dependent default) is defined.
  return ScenarioBuilder(mode).build().stack;
}

SingleLoadResult Scenario::run_single(const corpus::PageSpec& spec) const {
  sim::Simulator sim;
  sim.set_event_budget(stack.sim_event_budget);
  net::WebServer server;
  corpus::PageGenerator generator(seed);
  const std::string url = generator.host_page(spec, server);

  radio::RrcMachine rrc(sim, stack.rrc, stack.power);
  net::SharedLink link(sim, stack.link.dch_bandwidth);
  net::HttpClient client(sim, server, link, rrc, stack.link,
                         stack.max_parallel_connections);
  browser::CpuScheduler cpu(sim, stack.power.cpu_busy_extra);
  RilStateSwitcher ril(sim, rrc);

  validate_fault_wiring(stack);
  client.set_retry_policy(stack.retry);
  // Only an enabled plan instantiates the injector: a disabled one must
  // leave the event stream (and thus sim_events) untouched.
  std::optional<net::FaultInjector> faults;
  if (stack.fault_plan.enabled()) {
    faults.emplace(sim, link, stack.fault_plan);
    client.set_fault_injector(&*faults);
  }
  // Same null-path discipline for the coverage process: only an enabled
  // outage plan instantiates the injector or touches the RRC hooks.
  std::optional<net::OutageInjector> outage;
  if (stack.outage.enabled()) {
    outage.emplace(sim, link, rrc, stack.outage, /*ue_id=*/0);
    rrc.set_on_rlf([&client] { client.on_radio_lost(); });
  }
  // Per-load browser cache.  A single cold load never revisits a URL (the
  // pipeline dedupes requests), so attaching one is behavior-neutral unless
  // a chaos cache storm is also flushing it mid-load.
  std::optional<net::ResourceCache> cache;
  if (stack.use_browser_cache) {
    cache.emplace(stack.browser_cache_bytes);
    client.set_cache(&*cache);
  }

  // Chaos directives (all inert at their zero values).
  const ChaosDirectives& chaos = stack.chaos;
  if (chaos.ril_socket_failures > 0) {
    ril.fail_next(chaos.ril_socket_failures);
  }
  if (cache && chaos.cache_storm_count > 0) {
    for (int i = 0; i < chaos.cache_storm_count; ++i) {
      sim.schedule_at(chaos.cache_storm_start + i * chaos.cache_storm_period,
                      [&cache] { cache->clear(); });
    }
  }

  browser::PipelineConfig pipeline_config = stack.pipeline;
  pipeline_config.mobile_page = spec.mobile;
  browser::PageLoad load(sim, client, cpu, pipeline_config, seed ^ 0x9E3779B9);
  if (stack.force_idle_at_tx) {
    load.set_on_transmission_complete([&ril] { ril.request_idle(); });
  }

  std::shared_ptr<obs::TraceRecorder> recorder;
  if (stack.trace) {
    recorder = std::make_shared<obs::TraceRecorder>();
    rrc.set_trace(recorder.get());
    link.set_trace(recorder.get());
    client.set_trace(recorder.get());
    if (faults) faults->set_trace(recorder.get());
    if (outage) outage->set_trace(recorder.get());
    load.set_trace(recorder.get());
    ril.set_trace(recorder.get());
  }

  bool done = false;
  browser::LoadMetrics metrics;
  load.start(url, [&done, &metrics](const browser::LoadMetrics& m) {
    done = true;
    metrics = m;
  });
  // User abort: scheduled after start() so a load that finishes first makes
  // abort() a no-op.  The teardown settles every unsettled fetch, so `done`
  // flips through the same on_loaded path with metrics.aborted set.
  if (chaos.abort_at > 0) {
    sim.schedule_at(chaos.abort_at, [&load] { load.abort(); });
  }
  while (!done && sim.step()) {
  }
  if (!done) {
    throw std::logic_error("Scenario::run_single: load did not complete");
  }
  // Let the reading window elapse so timer-driven demotions play out.
  sim.run_until(metrics.final_display + reading_window);

  SingleLoadResult result;
  result.metrics = metrics;
  result.features = load.features();
  result.geometry = load.geometry();
  result.reading_window = reading_window;
  result.total_power = PowerTimeline::sum(rrc.power(), cpu.power());
  result.link_rate = link.rate_history();
  result.energy =
      EnergyReport::measure(result.total_power, rrc.power(),
                            metrics.final_display,
                            metrics.final_display + reading_window);
  result.dch_time = rrc.time_in(radio::RrcState::kDch);
  result.fach_time = rrc.time_in(radio::RrcState::kFach);
  result.idle_promotions = rrc.idle_promotions();
  result.forced_releases = rrc.forced_releases();
  result.bytes_fetched = metrics.bytes_fetched;
  result.fetch_retries = static_cast<int>(client.stats().retries);
  result.fetch_timeouts = static_cast<int>(client.stats().timeouts);
  result.failed_resources = metrics.failed_resources;
  result.truncated_resources = metrics.truncated_resources;
  result.link_fades = faults ? faults->fades_started() : 0;
  result.radio_outages = outage ? outage->outages_started() : 0;
  result.rlf_count = rrc.rlf_count();
  result.reestablish_ok = rrc.reestablish_ok();
  result.reestablish_fail = rrc.reestablish_fail();
  result.out_of_service_time = rrc.time_in(radio::RrcState::kOutOfService);
  result.sim_events = sim.fired_count();
  result.dom_signature = load.dom().signature();
  result.trace = std::move(recorder);

  obs::MetricsRegistry& m = result.job_metrics;
  m.count("sim.events_fired", static_cast<double>(sim.fired_count()));
  m.count("sim.events_cancelled", static_cast<double>(sim.cancelled_count()));
  m.count("sim.tombstones_popped",
          static_cast<double>(sim.tombstones_popped()));
  m.set_max("sim.peak_heap", static_cast<double>(sim.peak_heap_size()));
  const net::HttpClientStats& http = client.stats();
  m.count("http.fetches", static_cast<double>(http.fetches));
  m.count("http.cache_hits", static_cast<double>(http.cache_hits));
  m.count("http.retries", static_cast<double>(http.retries));
  m.count("http.timeouts", static_cast<double>(http.timeouts));
  m.count("http.truncated", static_cast<double>(http.truncated));
  m.count("http.connection_losses",
          static_cast<double>(http.connection_losses));
  m.count("http.failed", static_cast<double>(http.failed));
  m.count("http.not_found", static_cast<double>(http.not_found));
  m.count("http.bytes_fetched", static_cast<double>(http.bytes_fetched));
  m.count("rrc.idle_promotions", rrc.idle_promotions());
  m.count("rrc.fach_promotions", rrc.fach_promotions());
  m.count("rrc.forced_releases", rrc.forced_releases());
  m.count("rrc.small_transfers", rrc.small_transfers());
  m.count("rrc.dwell_idle_s", rrc.time_in(radio::RrcState::kIdle));
  m.count("rrc.dwell_fach_s", rrc.time_in(radio::RrcState::kFach));
  m.count("rrc.dwell_dch_s", rrc.time_in(radio::RrcState::kDch));
  m.count("load.objects", result.metrics.objects_fetched);
  m.count("load.failed_resources", result.metrics.failed_resources);
  m.count("load.truncated_resources", result.metrics.truncated_resources);
  m.count("load.intermediate_displays",
          result.metrics.intermediate_displays);
  m.count("load.bytes", static_cast<double>(result.metrics.bytes_fetched));
  m.count("load.aborted", result.metrics.aborted ? 1.0 : 0.0);
  m.count("fault.fades", result.link_fades);
  // Radio failure accounting appears only when the subsystem is enabled, so
  // default-path metrics snapshots stay byte-identical to pre-outage builds.
  if (stack.outage.enabled()) {
    m.count("radio.outages", result.radio_outages);
    m.count("radio.rlf", result.rlf_count);
    m.count("radio.reestablish_ok", result.reestablish_ok);
    m.count("radio.reestablish_fail", result.reestablish_fail);
    m.count("rrc.dwell_oos_s", result.out_of_service_time);
  }
  if (result.trace) {
    m.count("trace.events", static_cast<double>(result.trace->size()));
  }
  m.observe("load.total_s", result.metrics.total_time());
  m.observe("load.transmission_s", result.metrics.transmission_time());
  m.observe("energy.load_j", result.energy.load_j);
  m.observe("energy.with_reading_j", result.energy.with_reading_j);
  return result;
}

ProxyLoadResult Scenario::run_proxy(const corpus::PageSpec& spec,
                                    const ProxyConfig& proxy) const {
  // The proxy fetches and renders the page server-side; the phone sees one
  // bundle whose size is the page's total bytes scaled by the compression
  // ratio. We reuse the generated page only for its true byte total.
  net::WebServer staging;
  corpus::PageGenerator generator(seed);
  generator.host_page(spec, staging);
  const auto bundle_bytes =
      static_cast<Bytes>(proxy.compression_ratio *
                         static_cast<double>(staging.total_bytes()));

  sim::Simulator sim;
  radio::RrcMachine rrc(sim, stack.rrc, stack.power);
  net::SharedLink link(sim, stack.link.dch_bandwidth);
  net::SocketDownloader downloader(sim, link, rrc, stack.link);
  browser::CpuScheduler cpu(sim, stack.power.cpu_busy_extra);
  RilStateSwitcher ril(sim, rrc);

  ProxyLoadResult result;
  result.bundle_bytes = bundle_bytes;
  bool displayed = false;
  // Server think time covers the proxy-side fetch+render.
  sim.schedule_in(proxy.proxy_render_latency, [&] {
    downloader.download(bundle_bytes, [&](Seconds, Seconds finished) {
      result.transmission_time = finished;
      ril.request_idle();  // the bundle is self-contained: release now
      cpu.submit(proxy.client_unpack_per_kb * to_kilobytes(bundle_bytes),
                 [&] {
                   result.total_time = sim.now();
                   displayed = true;
                 });
    });
  });
  while (!displayed && sim.step()) {
  }
  if (!displayed) {
    throw std::logic_error("Scenario::run_proxy: load did not complete");
  }
  sim.run_until(result.total_time + reading_window);
  const auto total = PowerTimeline::sum(rrc.power(), cpu.power());
  result.energy = EnergyReport::measure(total, rrc.power(), result.total_time,
                                        result.total_time + reading_window);
  return result;
}

BulkDownloadResult Scenario::run_bulk(Bytes bytes) const {
  sim::Simulator sim;
  radio::RrcMachine rrc(sim, stack.rrc, stack.power);
  net::SharedLink link(sim, stack.link.dch_bandwidth);
  net::SocketDownloader downloader(sim, link, rrc, stack.link);

  BulkDownloadResult result;
  bool done = false;
  downloader.download(bytes, [&](Seconds started, Seconds finished) {
    result.started = started;
    result.finished = finished;
    done = true;
  });
  while (!done && sim.step()) {
  }
  if (!done) {
    throw std::logic_error("Scenario::run_bulk: transfer did not complete");
  }
  result.energy = rrc.power().energy(0.0, result.finished);
  result.link_rate = link.rate_history();
  return result;
}

}  // namespace eab::core
