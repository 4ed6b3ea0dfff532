#include "util/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace eab {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) {
  // SplitMix64 output function evaluated at state base + (index+1)·gamma —
  // equivalent to seeding SplitMix64 with `base_seed` and taking draw
  // `index + 1`, but O(1) in the index.
  std::uint64_t z = base_seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

void Rng::zero_index_range() {
  throw std::invalid_argument("Rng::uniform_index: n must be > 0");
}

double Rng::normal() {
  // Box-Muller; draw u1 away from zero to keep log() finite.
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("Rng::exponential: mean must be > 0");
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -mean * std::log(u);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::chance(double p) { return uniform() < p; }

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0) return 0;
  if (mean > 64.0) {
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double threshold = std::exp(-mean);
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > threshold);
  return k - 1;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("Rng::weighted_index: negative weight");
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("Rng::weighted_index: no positive weight");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace eab
