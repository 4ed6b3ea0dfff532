#include "core/scenario.hpp"

#include <stdexcept>

namespace eab::core {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

Scenario ScenarioBuilder::build() const {
  const StackConfig& stack = scenario_.stack;
  require(stack.sim_event_budget > 0,
          "ScenarioBuilder: sim_event_budget must be positive (0 would trip "
          "the liveness guard before the first event)");
  // Fine-grained FaultPlan geometry (rates in [0,1], fade windows) is
  // validated by the injector itself with stable messages the chaos
  // quarantine machinery keys on; build() only rejects the cross-knob
  // contradictions the injector cannot see.
  validate_fault_wiring(stack);
  radio::validate_outage_plan(stack.outage);
  require(stack.max_parallel_connections >= 1,
          "ScenarioBuilder: max_parallel_connections must be >= 1");
  require(scenario_.reading_window >= 0,
          "ScenarioBuilder: reading_window must be non-negative");

  const ChaosDirectives& chaos = stack.chaos;
  require(chaos.abort_at >= 0, "ScenarioBuilder: abort_at must be >= 0");
  require(chaos.ril_socket_failures >= 0,
          "ScenarioBuilder: ril_socket_failures must be >= 0");
  require(chaos.cache_storm_count >= 0,
          "ScenarioBuilder: cache_storm_count must be >= 0");
  require(chaos.cache_storm_start >= 0 && chaos.cache_storm_period >= 0,
          "ScenarioBuilder: cache storm timings must be non-negative");
  require(chaos.cache_storm_count == 0 || stack.use_browser_cache,
          "ScenarioBuilder: a cache eviction storm needs use_browser_cache "
          "(there is nothing to evict otherwise)");

  const net::RetryPolicy& retry = stack.retry;
  require(retry.max_retries >= 0,
          "ScenarioBuilder: retry.max_retries must be >= 0");
  require(retry.request_timeout >= 0,
          "ScenarioBuilder: retry.request_timeout must be >= 0");
  require(retry.backoff_initial >= 0 && retry.backoff_factor >= 0,
          "ScenarioBuilder: retry backoff parameters must be non-negative");
  return scenario_;
}

SessionConfig ScenarioBuilder::build_session(SessionPolicy policy) const {
  const Scenario checked = build();
  SessionConfig config;
  config.stack = checked.stack;
  config.policy = policy;
  // Unified defaults: the session consumes the same chaos directive for RIL
  // socket failures instead of a silently separate knob.
  config.ril_socket_failures = checked.stack.chaos.ril_socket_failures;
  return config;
}

}  // namespace eab::core
