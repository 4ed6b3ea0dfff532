// Deterministic random number generation.
//
// All stochastic models in the library draw from an eab::Rng seeded
// explicitly, so every experiment is reproducible bit-for-bit.  The core
// generator is xoshiro256**, seeded through SplitMix64 as its authors
// recommend; distribution sampling is implemented here directly (rather than
// via <random> distributions) because libstdc++'s distribution algorithms are
// not specified and would make traces non-portable across standard libraries.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace eab {

/// Derives the seed of job `index` in a sweep seeded with `base_seed`: the
/// SplitMix64 finaliser applied to `base_seed + (index + 1) * gamma`.  Pure
/// arithmetic on the inputs, so a parallel batch and a serial loop that both
/// use derive_seed(base, i) for the i-th job consume identical seed streams
/// regardless of execution order.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index);

/// xoshiro256** PRNG with explicit, stable seeding and portable sampling.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  /// Re-initialises the state from a single 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.  Inline, so a constant n
  /// turns both remainders into multiplies.
  std::uint64_t uniform_index(std::uint64_t n) {
    if (n == 0) zero_index_range();
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return v % n;
  }

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given mean (not rate). Requires mean > 0.
  double exponential(double mean);

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  std::uint64_t poisson(double mean);

  /// Picks an index from a discrete distribution given non-negative weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derives an independent child generator; useful to give each simulated
  /// entity its own stream without coupling their consumption patterns.
  Rng fork();

 private:
  /// Throws the invalid_argument of uniform_index(0).
  [[noreturn]] static void zero_index_range();

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace eab
