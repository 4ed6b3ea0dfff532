#include "core/session.hpp"

#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/ue_stack.hpp"
#include "sim/simulator.hpp"

namespace eab::core {

const char* to_string(SessionPolicy policy) {
  switch (policy) {
    case SessionPolicy::kBaseline: return "Original";
    case SessionPolicy::kOriginalAlwaysOff: return "Original Always-off";
    case SessionPolicy::kEnergyAwareAlwaysOff: return "Energy-Aware Always-off";
    case SessionPolicy::kAccurate: return "Accurate";
    case SessionPolicy::kPredict: return "Predict";
  }
  return "?";
}

namespace {

bool uses_original_pipeline(SessionPolicy policy) {
  return policy == SessionPolicy::kBaseline ||
         policy == SessionPolicy::kOriginalAlwaysOff;
}  // every other policy runs the reorganized pipeline

}  // namespace

SessionResult run_session(const std::vector<PageVisit>& visits,
                          const SessionConfig& config, std::uint64_t seed) {
  if (config.policy == SessionPolicy::kPredict && config.model == nullptr) {
    throw std::invalid_argument("run_session: this policy needs a model");
  }
  for (const PageVisit& visit : visits) {
    if (visit.spec == nullptr) {
      throw std::invalid_argument("run_session: null page spec");
    }
  }

  sim::Simulator sim;
  net::WebServer server;
  corpus::PageGenerator generator(seed);
  std::set<std::string> hosted;
  for (const PageVisit& visit : visits) {
    if (hosted.insert(visit.spec->site).second) {
      generator.host_page(*visit.spec, server);
    }
  }

  // The pipeline mode comes from the policy, not from the stack.
  StackConfig stack = config.stack;
  stack.pipeline.mode = uses_original_pipeline(config.policy)
                            ? browser::PipelineMode::kOriginal
                            : browser::PipelineMode::kEnergyAware;
  // One phone for the whole session: fault fades and coverage windows are
  // absolute-time events on its link, and the cache persists across pages.
  UeStack ue(sim, stack);
  // Records one policy step when the session is traced.
  auto note = [&sim, trace = ue.trace.get()](obs::TraceKind kind,
                                             std::int64_t a, double x) {
    if (trace != nullptr) trace->record(sim.now(), kind, a, 0, x);
  };

  SessionResult result;
  std::vector<std::unique_ptr<net::HttpClient>> clients;
  std::vector<std::unique_ptr<browser::PageLoad>> loads;

  auto switch_to_idle = [&] {
    ue.ril.request_idle([&result](bool switched) {
      if (switched) ++result.switches_to_idle;
    });
  };

  // Algorithm 2, the one decision of kAccurate and kPredict: for a read that
  // lasts past alpha, switch to IDLE alpha after the page opens if the
  // reading-time estimate exceeds the threshold.  Only the estimator differs.
  auto exceeds_threshold = [&config](Seconds estimate) {
    return estimate > config.threshold;
  };
  auto decide_after_alpha = [&](Seconds reading_time,
                                const browser::PageLoad* opened) {
    if (reading_time <= config.alpha) return;
    // The oracle already knows the reading time when the page opens, so a
    // read it keeps the radio for arms nothing; a model predicts at alpha.
    const bool oracle = config.policy == SessionPolicy::kAccurate;
    if (oracle && !exceeds_threshold(reading_time)) return;
    note(obs::TraceKind::kPolicyAlphaWait, 0, config.alpha);
    sim.schedule_in(config.alpha, [&, oracle, reading_time, opened] {
      double predicted = 0;  // the oracle's decision records x = 0
      if (!oracle) {
        predicted =
            std::exp(config.model->predict(opened->features().to_row()));
        note(obs::TraceKind::kPolicyPrediction, 0, predicted);
      }
      const bool switch_now =
          exceeds_threshold(oracle ? reading_time : predicted);
      note(obs::TraceKind::kPolicyDecision, switch_now ? 1 : 0, predicted);
      if (switch_now) switch_to_idle();
    });
  };

  std::function<void(std::size_t)> visit_page = [&](std::size_t index) {
    if (index >= visits.size()) return;
    const PageVisit& visit = visits[index];
    const Seconds clicked_at = sim.now();

    clients.push_back(ue.make_client(server));
    loads.push_back(ue.make_load(*clients.back(), *visit.spec,
                                 seed ^ (index * 0x9E3779B97F4AULL)));
    browser::PageLoad& load = *loads.back();

    load.start(visit.spec->main_url(), [&, index, clicked_at, opened = &load](
                                           const browser::LoadMetrics& m) {
      const PageVisit& current = visits[index];
      const Seconds load_time = m.final_display - clicked_at;
      result.page_load_times.push_back(load_time);
      result.total_load_delay += load_time;
      ++result.pages;

      switch (config.policy) {
        case SessionPolicy::kBaseline:
          break;
        case SessionPolicy::kOriginalAlwaysOff:
        case SessionPolicy::kEnergyAwareAlwaysOff:
          note(obs::TraceKind::kPolicyDecision, 1, 0);
          switch_to_idle();
          break;
        case SessionPolicy::kAccurate:
        case SessionPolicy::kPredict:
          decide_after_alpha(current.reading_time, opened);
          break;
      }

      sim.schedule_in(current.reading_time,
                      [&visit_page, index] { visit_page(index + 1); });
    });
  };

  visit_page(0);
  sim.run();

  const Seconds duration = sim.now();
  const radio::RrcMachine& rrc = ue.rrc;
  result.energy = EnergyReport::measure(
      PowerTimeline::sum(rrc.power(), ue.cpu.power()), rrc.power(), duration,
      duration);
  result.ril_socket_failures = ue.ril.socket_failures();
  result.radio_idle_time = rrc.time_in(radio::RrcState::kIdle);
  result.radio_outages = ue.outage ? ue.outage->outages_started() : 0;
  result.rlf_count = rrc.rlf_count();
  result.reestablish_ok = rrc.reestablish_ok();
  result.reestablish_fail = rrc.reestablish_fail();
  result.out_of_service_time = rrc.time_in(radio::RrcState::kOutOfService);
  result.trace = ue.trace;
  return result;
}

}  // namespace eab::core
