#include "core/ue_stack.hpp"

namespace eab::core {

UeStack::UeStack(sim::Simulator& sim, const StackConfig& config)
    : UeStack(sim, config,
              UePlans{0, config.fault_plan, config.outage,
                      config.outage.enabled()}) {}

UeStack::UeStack(sim::Simulator& sim, const StackConfig& config,
                 const UePlans& plans)
    : rrc(sim, config.rrc, config.power),
      link(sim, config.link.dch_bandwidth),
      cpu(sim, config.power.cpu_busy_extra),
      ril(sim, rrc),
      sim_(sim),
      config_(config) {
  validate_fault_wiring(config);
  // Only an enabled plan instantiates the injector: a disabled one must
  // leave the event stream (and thus sim_events) untouched.
  if (plans.faults.enabled()) faults.emplace(sim, link, plans.faults);
  if (plans.outage_injector) {
    outage.emplace(sim, link, rrc, plans.outage, plans.ue_id);
    // Pages the user already left have no unsettled fetches, so only the
    // newest client can react to a radio-link failure.
    rrc.set_on_rlf([this] {
      if (newest_client_ != nullptr) newest_client_->on_radio_lost();
    });
  }
  if (config.use_browser_cache) {
    cache.emplace(config.browser_cache_bytes);
    const ChaosDirectives& chaos = config.chaos;
    for (int i = 0; i < chaos.cache_storm_count; ++i) {
      sim.schedule_at(chaos.cache_storm_start + i * chaos.cache_storm_period,
                      [this] { cache->clear(); });
    }
  }
  if (config.chaos.ril_socket_failures > 0) {
    ril.fail_next(config.chaos.ril_socket_failures);
  }
  if (config.trace) {
    trace = std::make_shared<obs::TraceRecorder>();
    rrc.set_trace(trace.get());
    link.set_trace(trace.get());
    ril.set_trace(trace.get());
    if (faults) faults->set_trace(trace.get());
    if (outage) outage->set_trace(trace.get());
  }
}

std::unique_ptr<net::HttpClient> UeStack::make_client(
    const net::WebServer& server) {
  auto client = std::make_unique<net::HttpClient>(
      sim_, server, link, rrc, config_.link, config_.max_parallel_connections);
  client->set_retry_policy(config_.retry);
  if (faults) client->set_fault_injector(&*faults);
  if (cache) client->set_cache(&*cache);
  if (trace) client->set_trace(trace.get());
  newest_client_ = client.get();
  return client;
}

std::unique_ptr<browser::PageLoad> UeStack::make_load(
    net::HttpClient& client, const corpus::PageSpec& spec,
    std::uint64_t seed) {
  browser::PipelineConfig pipeline = config_.pipeline;
  pipeline.mobile_page = spec.mobile;
  auto load =
      std::make_unique<browser::PageLoad>(sim_, client, cpu, pipeline, seed);
  if (config_.force_idle_at_tx) {
    load->set_on_transmission_complete([this] { ril.request_idle(); });
  }
  if (trace) load->set_trace(trace.get());
  return load;
}

}  // namespace eab::core
