#include "capacity/mgn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace eab::capacity {
namespace {

TEST(ServiceTimeDistribution, MeanAndSampling) {
  ServiceTimeDistribution dist({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(dist.mean(), 20.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Seconds s = dist.sample(rng);
    EXPECT_GE(s, 9.0);   // 10 * 0.9
    EXPECT_LE(s, 33.0);  // 30 * 1.1
  }
}

TEST(ServiceTimeDistribution, SampleMeanConverges) {
  ServiceTimeDistribution dist({5.0, 15.0});
  Rng rng(2);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += dist.sample(rng);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(ServiceTimeDistribution, RejectsBadInput) {
  EXPECT_THROW(ServiceTimeDistribution({}), std::invalid_argument);
  EXPECT_THROW(ServiceTimeDistribution({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(ServiceTimeDistribution({-2.0}), std::invalid_argument);
}

TEST(ErlangB, KnownValues) {
  // B(A=1, N=1) = 1/2; B(A=1, N=2) = 1/5.
  EXPECT_NEAR(erlang_b(1.0, 1), 0.5, 1e-12);
  EXPECT_NEAR(erlang_b(1.0, 2), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(erlang_b(5.0, 0), 1.0);
  EXPECT_LT(erlang_b(100.0, 200), 1e-6);
  EXPECT_THROW(erlang_b(1.0, -1), std::invalid_argument);
}

TEST(ErlangB, MonotoneInLoadAndChannels) {
  EXPECT_GT(erlang_b(10.0, 8), erlang_b(5.0, 8));
  EXPECT_LT(erlang_b(10.0, 16), erlang_b(10.0, 8));
}

TEST(Capacity, NoLoadNoDrops) {
  CapacityConfig config;
  config.users = 1;
  config.horizon = 3600;
  ServiceTimeDistribution dist({1.0});
  const auto result = simulate_capacity(config, dist, 1);
  EXPECT_EQ(result.dropped_sessions, 0u);
  EXPECT_GT(result.offered_sessions, 50u);
}

TEST(Capacity, SaturatedSystemDropsMost) {
  CapacityConfig config;
  config.channels = 2;
  config.users = 100;
  config.horizon = 2000;
  ServiceTimeDistribution dist({100.0});  // very long sessions
  const auto result = simulate_capacity(config, dist, 1);
  EXPECT_GT(result.drop_probability, 0.8);
  EXPECT_NEAR(result.mean_busy_channels, 2.0, 0.2);
}

TEST(Capacity, DropProbabilityIncreasesWithUsers) {
  ServiceTimeDistribution dist({15.0});
  CapacityConfig config;
  config.horizon = 4000;
  double previous = -1;
  for (int users : {200, 400, 600}) {
    config.users = users;
    const auto result = simulate_capacity(config, dist, 7);
    EXPECT_GE(result.drop_probability, previous);
    previous = result.drop_probability;
  }
  EXPECT_GT(previous, 0.05);
}

TEST(Capacity, ShorterServiceRaisesCapacity) {
  // The paper's Fig 11 mechanism: shorter transmission times -> fewer drops
  // at the same user count.
  CapacityConfig config;
  config.users = 450;
  config.horizon = 4000;
  const auto slow = simulate_capacity(config, ServiceTimeDistribution({16.0}), 7);
  const auto fast = simulate_capacity(config, ServiceTimeDistribution({12.0}), 7);
  EXPECT_LT(fast.drop_probability, slow.drop_probability);
}

TEST(Capacity, MatchesErlangBForExponentialService) {
  // Insensitivity check: with users >> channels the arrival stream is
  // near-Poisson; offered load A = users * mean_service / mean_think.
  CapacityConfig config;
  config.channels = 20;
  config.users = 2000;
  config.mean_interarrival = 100.0;
  config.horizon = 20000.0;
  ServiceTimeDistribution dist({1.0});  // ~deterministic 1 s (insensitive)
  const auto result = simulate_capacity(config, dist, 11);
  const double offered = 2000 * 1.0 / 100.0;  // 20 erlangs
  const double expected = erlang_b(offered, 20);
  EXPECT_NEAR(result.drop_probability, expected, expected * 0.25);
}

TEST(Capacity, DeterministicForSeed) {
  CapacityConfig config;
  config.users = 300;
  config.horizon = 2000;
  ServiceTimeDistribution dist({10.0, 20.0});
  const auto a = simulate_capacity(config, dist, 3);
  const auto b = simulate_capacity(config, dist, 3);
  EXPECT_EQ(a.offered_sessions, b.offered_sessions);
  EXPECT_EQ(a.dropped_sessions, b.dropped_sessions);
}

TEST(Capacity, EstimateHalfwidthUsesExactStudentT) {
  // Rebuild each estimate from its replications' own runs: the halfwidth
  // over the standard error is the t quantile estimate_capacity applied,
  // t(0.975, n - 1) below 30 replications and the normal 1.96 from 30 up.
  CapacityConfig config;
  config.users = 420;
  config.horizon = 1500;
  const ServiceTimeDistribution dist({14.0, 18.0});
  const std::uint64_t seed = 3;
  const std::pair<int, double> pins[] = {
      {6, 2.570581836}, {8, 2.364624252}, {30, 1.96}};
  for (const auto& [n, t] : pins) {
    std::vector<double> drops;
    for (int r = 0; r < n; ++r) {
      drops.push_back(
          simulate_capacity(config, dist, seed + 0x9E37ULL * (r + 1))
              .drop_probability);
    }
    double sum = 0;
    for (const double d : drops) sum += d;
    const double mean = sum / n;
    double var = 0;
    for (const double d : drops) var += (d - mean) * (d - mean);
    var /= n - 1;
    ASSERT_GT(var, 0) << n;

    const CapacityEstimate estimate = estimate_capacity(config, dist, seed, n);
    EXPECT_EQ(estimate.replications, n);
    EXPECT_DOUBLE_EQ(estimate.mean_drop, mean) << n;
    EXPECT_NEAR(estimate.ci_halfwidth / std::sqrt(var / n), t, 1e-9) << n;
  }
}

TEST(Capacity, ValidatesConfig) {
  ServiceTimeDistribution dist({1.0});
  CapacityConfig config;
  config.channels = 0;
  EXPECT_THROW(simulate_capacity(config, dist, 1), std::invalid_argument);
  config.channels = 10;
  config.users = 0;
  EXPECT_THROW(simulate_capacity(config, dist, 1), std::invalid_argument);
}

}  // namespace
}  // namespace eab::capacity
