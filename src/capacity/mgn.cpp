#include "capacity/mgn.hpp"

#include <cmath>
#include <iterator>
#include <queue>
#include <stdexcept>

namespace eab::capacity {
namespace {

/// t(0.975, df), the two-sided 95 % Student t quantile, for the df = n - 1
/// degrees of freedom of n replications; the normal 1.96 from n = 30 up.
double t_975(int df) {
  static constexpr double kTable[] = {
      12.706204736, 4.302652730, 3.182446305, 2.776445105, 2.570581836,
      2.446911851,  2.364624252, 2.306004135, 2.262157163, 2.228138852,
      2.200985160,  2.178812830, 2.160368656, 2.144786688, 2.131449546,
      2.119905299,  2.109815578, 2.100922040, 2.093024054, 2.085963447,
      2.079613845,  2.073873068, 2.068657610, 2.063898562, 2.059538553,
      2.055529439,  2.051830516, 2.048407142};  // df = 1..28
  return df <= static_cast<int>(std::size(kTable)) ? kTable[df - 1] : 1.96;
}

}  // namespace

ServiceTimeDistribution::ServiceTimeDistribution(std::vector<Seconds> samples)
    : samples_(std::move(samples)) {
  if (samples_.empty()) {
    throw std::invalid_argument("ServiceTimeDistribution: no samples");
  }
  double sum = 0;
  for (Seconds s : samples_) {
    if (s <= 0) {
      throw std::invalid_argument("ServiceTimeDistribution: non-positive time");
    }
    sum += s;
  }
  mean_ = sum / static_cast<double>(samples_.size());
}

Seconds ServiceTimeDistribution::sample(Rng& rng) const {
  const Seconds base = samples_[rng.uniform_index(samples_.size())];
  return base * rng.uniform(0.9, 1.1);
}

CapacityResult simulate_capacity(const CapacityConfig& config,
                                 const ServiceTimeDistribution& service,
                                 std::uint64_t seed) {
  if (config.channels < 1 || config.users < 1) {
    throw std::invalid_argument("simulate_capacity: bad config");
  }
  Rng rng(seed);

  // Event calendar: per-user next arrival plus service completions. A small
  // dedicated event loop keeps this hot path allocation-free.
  struct Event {
    Seconds at;
    bool is_completion;  // false = arrival; carries the user id
    int user;
    bool operator>(const Event& other) const { return at > other.at; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> calendar;

  for (int user = 0; user < config.users; ++user) {
    calendar.push(Event{rng.exponential(config.mean_interarrival), false, user});
  }

  CapacityResult result;
  int busy = 0;
  Seconds previous_time = 0;
  double busy_integral = 0;

  while (!calendar.empty()) {
    const Event event = calendar.top();
    if (event.at > config.horizon) break;
    calendar.pop();
    busy_integral += busy * (event.at - previous_time);
    previous_time = event.at;

    if (event.is_completion) {
      --busy;
      continue;
    }
    // Arrival: claim a channel pair or drop.
    ++result.offered_sessions;
    if (busy >= config.channels) {
      ++result.dropped_sessions;
    } else {
      ++busy;
      calendar.push(Event{event.at + service.sample(rng), true, event.user});
    }
    // Next think-time arrival for this user.
    calendar.push(Event{event.at + rng.exponential(config.mean_interarrival),
                        false, event.user});
  }

  result.drop_probability =
      result.offered_sessions == 0
          ? 0.0
          : static_cast<double>(result.dropped_sessions) /
                static_cast<double>(result.offered_sessions);
  result.mean_busy_channels =
      previous_time > 0 ? busy_integral / previous_time : 0.0;
  return result;
}

CapacityEstimate estimate_capacity(const CapacityConfig& config,
                                   const ServiceTimeDistribution& service,
                                   std::uint64_t seed, int replications) {
  if (replications < 2) {
    throw std::invalid_argument("estimate_capacity: need >= 2 replications");
  }
  std::vector<double> drops;
  drops.reserve(static_cast<std::size_t>(replications));
  for (int r = 0; r < replications; ++r) {
    drops.push_back(
        simulate_capacity(config, service, seed + 0x9E37ULL * (r + 1))
            .drop_probability);
  }
  double sum = 0;
  for (double d : drops) sum += d;
  const double mean = sum / replications;
  double var = 0;
  for (double d : drops) var += (d - mean) * (d - mean);
  var /= (replications - 1);

  CapacityEstimate estimate;
  estimate.mean_drop = mean;
  estimate.ci_halfwidth =
      t_975(replications - 1) * std::sqrt(var / replications);
  estimate.replications = replications;
  return estimate;
}

double erlang_b(double offered_erlangs, int channels) {
  if (channels < 0) throw std::invalid_argument("erlang_b: negative channels");
  // Stable recurrence: B(0) = 1; B(n) = a*B(n-1) / (n + a*B(n-1)).
  double blocking = 1.0;
  for (int n = 1; n <= channels; ++n) {
    blocking = offered_erlangs * blocking /
               (static_cast<double>(n) + offered_erlangs * blocking);
  }
  return blocking;
}

}  // namespace eab::capacity
