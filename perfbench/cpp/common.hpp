// Shared plumbing of the benchmark: arguments, the report every workload
// fills, order statistics and the output digest.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;       // --preset tiny: a few operations, for self-tests
  std::string spans_out;   // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run prints: the operation tally, the metrics of the
/// selected mode (end-to-end or per-layer), human-readable notes and the
/// FNV digest of the simulated outputs.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  // checks that are not tied to one operation
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::string digest;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a failed check of one operation.
  void fail(const std::string& why) {
    ++failed;
    if (failures_noted_++ < 8) note("FAILED: " + why);
  }

 private:
  int failures_noted_ = 0;
};

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Linear-interpolated quantile (type 7) of an unsorted sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Regularized incomplete beta function I_x(a, b) (continued fraction,
/// modified Lentz), accurate to ~1e-14 for the large a, b quantiles need.
inline double incomplete_beta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const auto fraction = [](double a, double b, double x) {
    constexpr double kTiny = 1e-300;
    double c = 1;
    double d = 1 - (a + b) * x / (a + 1);
    d = 1 / (std::abs(d) < kTiny ? kTiny : d);
    double h = d;
    for (int m = 1; m <= 100000; ++m) {
      for (const bool odd : {false, true}) {
        const double num =
            odd ? -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
                : m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
        d = 1 + num * d;
        d = 1 / (std::abs(d) < kTiny ? kTiny : d);
        c = 1 + num / c;
        if (std::abs(c) < kTiny) c = kTiny;
        h *= d * c;
        if (odd && std::abs(d * c - 1) < 1e-15) return h;
      }
    }
    return h;
  };
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  return x < (a + 1) / (a + b + 2) ? front * fraction(a, b, x) / a
                                   : 1 - front * fraction(b, a, 1 - x) / b;
}

/// Harrell-Davis estimate of the q-quantile: a Beta-weighted average of all
/// order statistics.  Load times here are bimodal (mobile vs full pages), so
/// a single order statistic near the gap jumps between the two clusters;
/// the weighted average does not.
inline double harrell_davis(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1);
  const double b = (1 - q) * (n + 1);
  double estimate = 0;
  double below = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

/// The highest whole percentile that leaves at least ten samples above it
/// (the 99th needs 1,000 samples); 50 for tiny samples.
inline int tail_percentile(std::size_t samples) {
  for (int p = 99; p > 50; --p) {
    if (static_cast<double>(samples) * (100 - p) / 100.0 >= 10.0) return p;
  }
  return 50;
}

/// Incremental 64-bit FNV-1a over the bytes of the simulated outputs.
class Digest {
 public:
  void bytes(std::string_view data) {
    for (const char c : data) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void pod(const T& value) {
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes(std::string_view(raw, sizeof(T)));
  }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return out;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Median host seconds of `runs` calls of `setup`; the last call's result
/// is the one the workload keeps.
template <typename Setup>
double median_setup_seconds(int runs, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < runs; ++i) {
    const std::int64_t start = now_ns();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

double peak_rss_mb();

/// Human-readable per-name span count, total and mean self time.
std::string self_time_table(const SpanRecorder& spans);

Report run_page_loads(const Args& args);
Report run_config_sweep(const Args& args);
Report run_metro_sessions(const Args& args);

}  // namespace perfbench
