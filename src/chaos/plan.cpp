#include "chaos/plan.hpp"

#include <algorithm>
#include <cstring>

#include "util/rng.hpp"

namespace eab::chaos {

const char* to_string(ChaosDomain domain) {
  switch (domain) {
    case ChaosDomain::kNetLoss: return "net.loss";
    case ChaosDomain::kNetStall: return "net.stall";
    case ChaosDomain::kNetTruncate: return "net.truncate";
    case ChaosDomain::kNetSlowFirstByte: return "net.slow_first_byte";
    case ChaosDomain::kNetFade: return "net.fade";
    case ChaosDomain::kRilFailure: return "ril.failure";
    case ChaosDomain::kTimerDrift: return "rrc.timer_drift";
    case ChaosDomain::kAbort: return "browser.abort";
    case ChaosDomain::kCacheStorm: return "browser.cache_storm";
    case ChaosDomain::kCpuSlowdown: return "browser.cpu_slowdown";
    case ChaosDomain::kUeOutage: return "radio.ue_outage";
    case ChaosDomain::kCellOutage: return "cell.outage";
  }
  return "unknown";
}

bool domain_from_string(const std::string& name, ChaosDomain& out) {
  for (int i = 0; i < kChaosDomainCount; ++i) {
    const auto domain = static_cast<ChaosDomain>(i);
    if (name == to_string(domain)) {
      out = domain;
      return true;
    }
  }
  return false;
}

const std::vector<corpus::PageSpec>& chaos_spec_pool() {
  static const std::vector<corpus::PageSpec> pool = [] {
    std::vector<corpus::PageSpec> specs = corpus::mobile_benchmark();
    const std::vector<corpus::PageSpec> full = corpus::full_benchmark();
    specs.insert(specs.end(), full.begin(), full.end());
    return specs;
  }();
  return pool;
}

namespace {

ChaosFault draw_fault(Rng& rng) {
  ChaosFault fault;
  fault.domain = static_cast<ChaosDomain>(
      rng.uniform_index(static_cast<std::uint64_t>(kChaosDomainCount)));
  auto& p = fault.params;
  switch (fault.domain) {
    case ChaosDomain::kNetLoss:
      p[0] = rng.uniform(0.05, 0.30);
      break;
    case ChaosDomain::kNetStall:
      p[0] = rng.uniform(0.05, 0.25);
      break;
    case ChaosDomain::kNetTruncate:
      p[0] = rng.uniform(0.05, 0.30);
      break;
    case ChaosDomain::kNetSlowFirstByte:
      p[0] = rng.uniform(0.10, 0.40);
      p[1] = rng.uniform(0.5, 3.0);
      break;
    case ChaosDomain::kNetFade:
      p[0] = 1.0 + static_cast<double>(rng.uniform_index(3));
      p[1] = rng.uniform(0.5, 3.0);          // start
      p[2] = rng.uniform(1.0, 3.0);          // period
      p[3] = rng.uniform(0.2, 0.8) * p[2];   // duration, strictly < period
      break;
    case ChaosDomain::kRilFailure:
      p[0] = 1.0 + static_cast<double>(rng.uniform_index(3));
      break;
    case ChaosDomain::kTimerDrift:
      p[0] = rng.uniform(0.25, 2.5);  // T1 drift
      p[1] = rng.uniform(0.25, 2.5);  // T2 drift
      break;
    case ChaosDomain::kAbort:
      p[0] = rng.uniform(0.2, 8.0);
      break;
    case ChaosDomain::kCacheStorm:
      p[0] = 1.0 + static_cast<double>(rng.uniform_index(4));
      p[1] = rng.uniform(0.2, 2.0);   // start
      p[2] = rng.uniform(0.3, 1.5);   // period
      break;
    case ChaosDomain::kCpuSlowdown:
      p[0] = rng.uniform(1.2, 4.0);
      break;
    case ChaosDomain::kUeOutage:
      p[0] = 1.0 + static_cast<double>(rng.uniform_index(3));
      p[1] = rng.uniform(0.3, 3.0);          // start
      p[2] = rng.uniform(1.5, 4.0);          // period
      p[3] = rng.uniform(0.2, 0.7) * p[2];   // duration, strictly < period
      break;
    case ChaosDomain::kCellOutage:
      // One long blackout early in the load (the window that catches
      // promotions mid-flight), with a re-establishment failure rate.
      p[0] = rng.uniform(0.2, 2.0);   // start
      p[1] = rng.uniform(1.5, 5.0);   // duration
      p[2] = rng.uniform(0.0, 0.8);   // reestablish fail rate
      break;
  }
  return fault;
}

}  // namespace

ChaosScenario make_chaos_scenario(std::uint64_t seed) {
  // Decorrelate the scenario stream from the page generator, which is
  // seeded with the raw scenario seed inside Scenario::run_single.
  Rng rng(derive_seed(seed, 0xC4A05));
  ChaosScenario scenario;
  scenario.seed = seed;
  scenario.spec_index =
      static_cast<int>(rng.uniform_index(chaos_spec_pool().size()));
  scenario.mode = rng.chance(0.5) ? browser::PipelineMode::kEnergyAware
                                  : browser::PipelineMode::kOriginal;
  const int atoms = 1 + static_cast<int>(rng.uniform_index(4));
  scenario.faults.reserve(static_cast<std::size_t>(atoms));
  for (int i = 0; i < atoms; ++i) scenario.faults.push_back(draw_fault(rng));
  return scenario;
}

core::BatchJob apply_chaos(const ChaosScenario& scenario,
                           Seconds reading_window) {
  core::BatchJob job;
  const auto& pool = chaos_spec_pool();
  job.spec = pool[static_cast<std::size_t>(scenario.spec_index) % pool.size()];
  job.config = core::StackConfig::for_mode(scenario.mode);
  job.reading_window = reading_window;
  job.seed = scenario.seed;

  core::StackConfig& config = job.config;
  // The oracle replays the trace; every chaos job records one.
  config.trace = true;
  net::FaultPlan& plan = config.fault_plan;
  plan.seed = derive_seed(scenario.seed, 0xFA17);
  config.outage.seed = derive_seed(scenario.seed, 0x07A6E);

  bool stalls_possible = false;
  for (const ChaosFault& fault : scenario.faults) {
    const auto& p = fault.params;
    switch (fault.domain) {
      case ChaosDomain::kNetLoss:
        plan.connection_loss_rate += p[0];
        break;
      case ChaosDomain::kNetStall:
        plan.stall_rate += p[0];
        stalls_possible = true;
        break;
      case ChaosDomain::kNetTruncate:
        plan.truncate_rate += p[0];
        break;
      case ChaosDomain::kNetSlowFirstByte:
        plan.slow_first_byte_rate += p[0];
        plan.slow_first_byte_extra = p[1];
        break;
      case ChaosDomain::kNetFade:
        plan.fade_count += static_cast<int>(p[0]);
        plan.fade_start = p[1];
        plan.fade_period = p[2];
        plan.fade_duration = p[3];
        break;
      case ChaosDomain::kRilFailure:
        // The fast-dormancy path only runs when the controller releases at
        // transmission-complete; force it on so the failures can bite.
        config.force_idle_at_tx = true;
        config.chaos.ril_socket_failures += static_cast<int>(p[0]);
        break;
      case ChaosDomain::kTimerDrift:
        config.rrc.t1 = std::max(0.2, config.rrc.t1 * p[0]);
        config.rrc.t2 = std::max(0.2, config.rrc.t2 * p[1]);
        break;
      case ChaosDomain::kAbort:
        config.chaos.abort_at = config.chaos.abort_at > 0
                                    ? std::min(config.chaos.abort_at, p[0])
                                    : p[0];
        break;
      case ChaosDomain::kCacheStorm:
        config.use_browser_cache = true;
        config.chaos.cache_storm_count += static_cast<int>(p[0]);
        config.chaos.cache_storm_start = p[1];
        config.chaos.cache_storm_period = p[2];
        break;
      case ChaosDomain::kUeOutage:
        // Counts add (each atom contributes its windows), timing is
        // last-writer-wins like fades; the drawn duration is strictly below
        // the drawn period so the folded plan is valid by construction.
        config.outage.count += static_cast<int>(p[0]);
        config.outage.start = p[1];
        config.outage.period = p[2];
        config.outage.duration = p[3];
        break;
      case ChaosDomain::kCellOutage:
        // In a single-UE stack a whole-cell blackout is one more coverage
        // window; the fail rate folds as max (removing the atom removes
        // exactly its contribution, keeping ddmin sound).  The period only
        // matters if a kUeOutage atom also raised the count; duration + 4 s
        // keeps it valid either way.
        config.outage.count += 1;
        config.outage.start = p[0];
        config.outage.duration = p[1];
        config.outage.period = p[1] + 4.0;
        config.outage.reestablish_fail_rate =
            std::max(config.outage.reestablish_fail_rate, p[2]);
        break;
      case ChaosDomain::kCpuSlowdown: {
        browser::ComputeCostModel& costs = config.pipeline.costs;
        costs.html_parse_per_kb *= p[0];
        costs.css_scan_per_kb *= p[0];
        costs.js_per_kilo_op *= p[0];
        costs.css_parse_per_kb *= p[0];
        costs.image_decode_per_kb *= p[0];
        costs.style_format_per_node *= p[0];
        costs.layout_per_node *= p[0];
        costs.render_per_node *= p[0];
        costs.display_overhead *= p[0];
        break;
      }
    }
  }

  // Keep the per-attempt fault mix a valid (sub-)distribution when several
  // network atoms stacked up.
  const double rate_sum = plan.connection_loss_rate + plan.stall_rate +
                          plan.truncate_rate + plan.slow_first_byte_rate;
  if (rate_sum > 0.9) {
    const double scale = 0.9 / rate_sum;
    plan.connection_loss_rate *= scale;
    plan.stall_rate *= scale;
    plan.truncate_rate *= scale;
    plan.slow_first_byte_rate *= scale;
  }
  if (stalls_possible && config.retry.request_timeout <= 0) {
    config.retry.request_timeout = 4.0;
  }
  return job;
}

std::vector<std::uint64_t> chaos_seeds(std::uint64_t base, int count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) {
    seeds.push_back(derive_seed(base, static_cast<std::uint64_t>(i)));
  }
  return seeds;
}

}  // namespace eab::chaos
