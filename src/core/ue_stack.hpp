// One phone, wired once.
//
// The paper measures a single phone three ways: single page loads
// (Scenario::run_single), Table-6 browsing sessions (run_session) and
// shared-cell capacity (cell::CellSim, whose CellUe is a UeStack plus its
// cell membership).  The phone is always the same: an RRC radio, its
// downlink, a CPU, the RIL fast-dormancy chain and a browser, plus the
// optional fault, coverage, cache and trace layers a StackConfig switches
// on.  UeStack owns that phone; the drivers own only the simulator, the
// web server and what they do with the loads.
//
// Null-path discipline: every optional layer exists only when the
// StackConfig asks for it, so a default stack schedules exactly the events
// a bare radio + link + CPU would.  Construction schedules the optional
// layers' events in a fixed order — fault fades, then coverage windows,
// then cache storms — which every driver's byte-identity depends on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "browser/cpu.hpp"
#include "browser/pipeline.hpp"
#include "core/experiment.hpp"
#include "core/ril.hpp"
#include "corpus/page_spec.hpp"
#include "net/cache.hpp"
#include "net/fault.hpp"
#include "net/http_client.hpp"
#include "net/outage.hpp"
#include "net/shared_link.hpp"
#include "net/web_server.hpp"
#include "obs/trace.hpp"
#include "radio/rrc.hpp"
#include "sim/simulator.hpp"

namespace eab::core {

/// What a multi-UE driver varies per phone on top of the shared
/// StackConfig: the UE's id and its own (re-seeded) fault and outage plans.
struct UePlans {
  std::uint64_t ue_id = 0;
  net::FaultPlan faults;
  radio::OutagePlan outage;
  /// Whether to build an OutageInjector.  A single phone builds one iff
  /// `outage` is enabled; the cell also builds one when only whole-cell
  /// outages are on, and drives them through it.
  bool outage_injector = false;
};

/// One phone on `sim`, configured by a StackConfig that must outlive it.
/// Hooks capture `this`, so it is neither copyable nor movable.
struct UeStack {
  /// A phone under `config`'s own fault and outage plans, as UE 0.
  UeStack(sim::Simulator& sim, const StackConfig& config);
  UeStack(sim::Simulator& sim, const StackConfig& config, const UePlans& plans);

  UeStack(const UeStack&) = delete;
  UeStack& operator=(const UeStack&) = delete;

  /// A browser HTTP client on this phone's link, with the configured retry
  /// policy, fault injector, cache and recorder.  The newest client is the
  /// one a radio-link failure settles; the caller owns it and keeps it
  /// alive while the simulator runs.
  std::unique_ptr<net::HttpClient> make_client(const net::WebServer& server);

  /// A page load of `spec` through `client` on this phone's CPU: the
  /// configured pipeline with `spec`'s mobile flag, fast dormancy at
  /// transmission-complete when configured, and the recorder.
  std::unique_ptr<browser::PageLoad> make_load(net::HttpClient& client,
                                               const corpus::PageSpec& spec,
                                               std::uint64_t seed);

  radio::RrcMachine rrc;
  net::SharedLink link;
  browser::CpuScheduler cpu;
  RilStateSwitcher ril;
  std::optional<net::FaultInjector> faults;
  std::optional<net::OutageInjector> outage;
  std::optional<net::ResourceCache> cache;
  /// The structured event recording; non-null iff StackConfig::trace.
  std::shared_ptr<obs::TraceRecorder> trace;

 private:
  sim::Simulator& sim_;
  const StackConfig& config_;
  net::HttpClient* newest_client_ = nullptr;
};

}  // namespace eab::core
