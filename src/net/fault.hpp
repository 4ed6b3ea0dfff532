// Deterministic network fault injection for the simulated 3G path.
//
// A real UMTS link loses packets, stalls mid-response and fades when the
// user walks behind a building; the energy argument of the paper has to
// survive those dynamics.  FaultInjector turns a declarative FaultPlan into
// concrete per-request outcomes and timed link-fade windows, with two hard
// guarantees:
//
//  * Determinism.  Every per-request decision is a pure function of
//    (plan seed, URL, attempt number): the decision Rng is seeded with
//    derive_seed(seed ^ fnv1a_64(url), attempt).  Outcomes therefore do not
//    depend on request arrival order, on how many other requests are in
//    flight, or on which pipeline issued the fetch — the same URL suffers
//    the same fate on its n-th attempt under Original and Energy-Aware
//    alike, which is what makes "identical DOM given identical fault
//    outcomes" a testable invariant.
//  * Plain data.  A FaultPlan is carried inside core::StackConfig, so a
//    batch job's faults travel with it to whichever worker runs the load
//    (DESIGN.md §6b) and a reproducer replays them exactly.
//
// Fade windows are scheduled up front (a bounded count, so simulations
// always drain), pausing the SharedLink: in-flight flows stop draining and
// the delivered-rate timeline drops to zero for the window.
#pragma once

#include <cstdint>
#include <string>

#include "net/shared_link.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace eab::net {

/// What happens to one request attempt.
enum class FaultKind {
  kNone,            ///< the attempt proceeds normally
  kConnectionLost,  ///< connection drops before the response (detected ~1 RTT)
  kStall,           ///< response blackhole: no byte ever arrives (watchdog only)
  kTruncate,        ///< body cut at a random offset, then the connection dies
  kSlowFirstByte,   ///< inflated time to first byte (deep fade, far cell edge)
};

const char* to_string(FaultKind kind);

/// Declarative fault mix; all rates are independent per request *attempt*.
/// connection_loss + stall + truncate + slow_first_byte must sum to <= 1.
struct FaultPlan {
  std::uint64_t seed = 1;          ///< decision stream seed
  double connection_loss_rate = 0; ///< probability of kConnectionLost
  double stall_rate = 0;           ///< probability of kStall
  double truncate_rate = 0;        ///< probability of kTruncate
  double slow_first_byte_rate = 0; ///< probability of kSlowFirstByte
  /// Mean extra first-byte latency for kSlowFirstByte; the drawn value is
  /// uniform in [0.5, 1.5] x this.
  Seconds slow_first_byte_extra = 2.0;

  /// Timed link fades: `fade_count` windows of `fade_duration` seconds, the
  /// first starting at `fade_start`, subsequent ones `fade_period` apart.
  /// During a window all in-flight flows stall (SharedLink::pause).
  int fade_count = 0;
  Seconds fade_start = 5.0;
  Seconds fade_period = 10.0;
  Seconds fade_duration = 2.0;

  bool has_request_faults() const {
    return connection_loss_rate > 0 || stall_rate > 0 || truncate_rate > 0 ||
           slow_first_byte_rate > 0;
  }
  bool has_fades() const { return fade_count > 0 && fade_duration > 0; }
  /// A disabled plan must be indistinguishable from no plan at all.
  bool enabled() const { return has_request_faults() || has_fades(); }
};

/// The outcome drawn for one (url, attempt) pair.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  /// kTruncate: fraction of the transfer delivered before the cut, in (0, 1).
  double truncate_fraction = 0;
  /// kSlowFirstByte: extra seconds before the first response byte.
  Seconds extra_first_byte_latency = 0;
};

/// Draws per-request fault outcomes and drives link-fade windows.
class FaultInjector {
 public:
  /// Validates the plan (rates in [0,1] summing to <= 1; sensible fade
  /// geometry) and schedules the fade windows on `sim` against `link`.
  FaultInjector(sim::Simulator& sim, SharedLink& link, FaultPlan plan);

  /// The outcome of the `attempt`-th try (1-based) at fetching `url`.
  /// Pure: independent of call order and of simulation state.
  FaultDecision decide(const std::string& url, int attempt) const;

  const FaultPlan& plan() const { return plan_; }
  /// Fade windows that have begun so far.
  int fades_started() const { return fades_started_; }

  /// Attaches a trace recorder (nullptr detaches).  Fade windows record at
  /// fire time, so attaching after construction still captures them.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  sim::Simulator& sim_;
  SharedLink& link_;
  FaultPlan plan_;
  obs::TraceRecorder* trace_ = nullptr;
  int fades_started_ = 0;
};

}  // namespace eab::net
