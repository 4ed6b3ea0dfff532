// M/G/N loss-system capacity model (paper Section 5.4).
//
// The backbone cell owns N pairs of dedicated transmission channels and no
// queue: a data session that arrives when all N pairs are busy is dropped.
// Each of `users` smartphones generates sessions with exponential think
// times (Poisson arrivals, mean 25 s); a session holds one channel pair for
// a General service time — the data-transmission time of opening a webpage,
// sampled from an empirical distribution measured on our own browser
// pipelines.  Shorter transmission times (the energy-aware pipeline) free
// channels sooner, so the same cell carries more users at equal drop
// probability — Fig 11.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace eab::capacity {

/// Empirical service-time sampler.
class ServiceTimeDistribution {
 public:
  /// Takes the measured transmission times; must be non-empty, all > 0.
  explicit ServiceTimeDistribution(std::vector<Seconds> samples);

  /// Draws one service time (uniform over samples with +-10 % jitter, so the
  /// simulated distribution is a smoothed version of the measurements).
  Seconds sample(Rng& rng) const;

  Seconds mean() const { return mean_; }

 private:
  std::vector<Seconds> samples_;
  Seconds mean_ = 0;
};

/// Simulation parameters (defaults follow the paper).
struct CapacityConfig {
  int channels = 200;              ///< N dedicated channel pairs
  int users = 400;
  Seconds mean_interarrival = 25;  ///< per-user Poisson think time
  Seconds horizon = 4.0 * 3600.0;  ///< 4 hours

  // Service-time sampling controls.  The empirical distribution is measured
  // on the full stack by cell::measure_service_times (capacity itself never
  // runs loads — these knobs live here so one config names the whole
  // experiment): base seed for the per-sample load seeds, and loads per
  // page spec.  The defaults reproduce the historical single-sample,
  // seed-1 sweep, and the checked-in reference quantiles in
  // tests/cell_test.cpp regenerate bit-identically from them.
  std::uint64_t service_sample_seed = 1;
  int service_samples_per_spec = 1;
};

/// Results of one capacity run.
struct CapacityResult {
  std::uint64_t offered_sessions = 0;
  std::uint64_t dropped_sessions = 0;
  double drop_probability = 0;
  double mean_busy_channels = 0;  ///< time-averaged occupancy
};

/// Runs the loss system.
CapacityResult simulate_capacity(const CapacityConfig& config,
                                 const ServiceTimeDistribution& service,
                                 std::uint64_t seed);

/// Drop probability with a replication-based 95 % confidence interval:
/// `replications` independent runs (seeds derived from `seed`), Student t
/// over the per-run estimates (exact t(0.975, n - 1) below 30 runs, 1.96
/// from 30 up).
struct CapacityEstimate {
  double mean_drop = 0;
  double ci_halfwidth = 0;  ///< 95 % CI is mean_drop +- ci_halfwidth
  int replications = 0;
};
CapacityEstimate estimate_capacity(const CapacityConfig& config,
                                   const ServiceTimeDistribution& service,
                                   std::uint64_t seed, int replications = 8);

/// Closed-form Erlang-B blocking probability (validation: with exponential
/// service the M/G/N and M/M/N loss systems agree — insensitivity property).
double erlang_b(double offered_erlangs, int channels);

}  // namespace eab::capacity
