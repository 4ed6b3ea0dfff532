// Metrics registry: named counters, gauges and histograms with a
// deterministic merge.
//
// Each batch job (one Scenario::run_single) snapshots its own registry from the
// component statistics it already tracks; core::BatchRunner merges the
// per-job registries in submission order, so the engine-wide snapshot is
// bit-identical whether the batch ran on one worker or sixteen.  Entries are
// keyed by name in a sorted map, which makes iteration — and therefore the
// JSON export written next to each BENCH_*.json — deterministic too.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace eab::obs {

/// Fixed-bucket histogram.  Bucket i counts observations <= kEdges[i]; the
/// final bucket is the overflow.  The 1-2-5 sub-decade edges span everything
/// the simulation observes (seconds, joules, counts) without per-metric
/// tuning, at ~3x the resolution of plain decades — page loads clustering
/// between 5 s and 50 s land in four buckets instead of one.
struct Histogram {
  static constexpr std::array<double, 28> kEdges = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
      1.0,   2.0,   5.0,   10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
      1e3,   2e3,   5e3,   1e4,  2e4,  5e4,  1e5,   2e5,   5e5,  1e6};
  static constexpr std::size_t kBuckets = kEdges.size() + 1;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  void observe(double value);
  void merge(const Histogram& other);
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  friend bool operator==(const Histogram&, const Histogram&) = default;
};

/// Counters sum on merge, gauges take the max (peak watermarks), histograms
/// merge bucket-wise.
class MetricsRegistry {
 public:
  /// Adds `delta` to a summed counter (created at 0).
  void count(std::string_view name, double delta = 1.0);

  /// Raises a max-merged gauge to at least `value` (peak heap size etc.).
  void set_max(std::string_view name, double value);

  /// Records one observation into a histogram.
  void observe(std::string_view name, double value);

  /// Value of a counter or gauge; 0 when absent.
  double value(std::string_view name) const;

  /// Histogram by name; nullptr when absent (or the name is not a histogram).
  const Histogram* histogram(std::string_view name) const;

  /// Folds `other` into this registry entry-by-entry.  Merging two entries
  /// of different kinds under one name is a wiring bug and throws.
  void merge(const MetricsRegistry& other);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Deterministic JSON object, entries sorted by name.  Counters/gauges
  /// render as numbers; histograms as {count, sum, min, max, mean, buckets}.
  std::string to_json() const;

  /// Bit-exact binary round trip for cross-process merges: the supervisor's
  /// workers snapshot their registries into checkpoint records and the
  /// orchestrator merges the deserialized copies — from_bytes(to_bytes(r))
  /// satisfies same_as(r) exactly (doubles travel as bit patterns).
  /// from_bytes throws std::runtime_error on truncated or malformed input.
  std::string to_bytes() const;
  static MetricsRegistry from_bytes(std::string_view bytes);

  bool same_as(const MetricsRegistry& other) const {
    return entries_ == other.entries_;
  }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    double value = 0;
    Histogram hist;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  Entry& entry(std::string_view name, Kind kind);

  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace eab::obs
