// Fixed-budget simulated-time series with deterministic power-of-two merge
// downsampling (DESIGN.md §11).
//
// A TimeSeries buckets samples into windows of `base_width * 2^k` simulated
// seconds and keeps at most `point_budget` windows: when a new window would
// exceed the budget, the bucket width doubles and adjacent windows merge
// pairwise (min/max/sum+count/last all preserved exactly), so memory stays
// constant on arbitrarily long runs while resolution degrades gracefully.
//
// Determinism contract: bucket indices are computed ONCE per sample at the
// base width and coarsened by integer shifts only — never re-derived through
// floating-point division — and window sums accumulate as two's-complement
// integer QUANTA (each sample is snapped to the 2^-20 grid exactly once, at
// record time) rather than floating-point doubles, because integer addition
// is associative and float addition is not.  The final state is therefore a
// pure function of the sample multiset: feeding two halves into separate
// series and merge_from()-ing them yields the same bytes as feeding the
// whole stream into one series, for ANY split and any merge order, which is
// what lets supervised sweeps ship series across process boundaries
// bit-identically.  min/max/last keep the exact double values (no
// arithmetic ever combines them); only sum/mean carry the ~1e-6 absolute
// quantization, invisible at gauge scale.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace eab::obs {

/// The sum grid: samples are snapped to multiples of 2^-20 (~9.5e-7) so
/// window sums are exact integers — associative under any merge order.
/// Samples beyond ±2^42 saturate the quantizer (values that large are not
/// gauges this layer is built for); the accumulator itself wraps mod 2^64,
/// which keeps even a pathological overflow deterministic and associative.
inline constexpr double kSumQuantum = 9.5367431640625e-07;  // 2^-20

/// One aggregated window [bucket*width, (bucket+1)*width).
struct SeriesPoint {
  std::uint64_t bucket = 0;  ///< window index at the series' current width
  double min = 0;
  double max = 0;
  std::int64_t sum_q = 0;    ///< window sum in kSumQuantum units (exact)
  double last = 0;           ///< newest sample's value in this window
  Seconds last_t = 0;        ///< newest sample's time (merge tiebreak)
  std::uint64_t count = 0;

  double sum() const { return static_cast<double>(sum_q) * kSumQuantum; }
  double mean() const { return count == 0 ? 0.0 : sum() / static_cast<double>(count); }
  bool operator==(const SeriesPoint&) const = default;
};

class TimeSeries {
 public:
  /// `base_width` is the finest bucket width in simulated seconds (> 0);
  /// `point_budget` caps the stored windows (>= 2).
  explicit TimeSeries(Seconds base_width = 1.0, std::size_t point_budget = 256);

  /// Folds one sample at simulated time `t` (>= 0, non-decreasing within a
  /// series) into its window, coarsening first if a new window would blow
  /// the budget.
  void record(Seconds t, double value);

  /// Exact pairwise merge: aligns both series to the coarser width, combines
  /// windows index-wise, then re-applies the budget.  Requires identical
  /// base_width and point_budget.  On equal last_t the other series' `last`
  /// wins.  Bit-exact, associative and commutative (up to that tiebreak)
  /// for any split of the stream — the sums are integers.
  void merge_from(const TimeSeries& other);

  Seconds base_width() const { return base_width_; }
  /// Current window width: base_width * 2^level.
  Seconds width() const { return base_width_ * static_cast<double>(std::uint64_t{1} << level_); }
  unsigned level() const { return level_; }
  std::size_t point_budget() const { return budget_; }
  std::uint64_t samples() const { return samples_; }
  bool empty() const { return points_.empty(); }
  const std::vector<SeriesPoint>& points() const { return points_; }

  bool same_as(const TimeSeries& other) const;

  /// crc32-tailed binary codec (util/bytes.hpp layout).  from_bytes throws
  /// std::runtime_error on truncation, trailing bytes or checksum mismatch.
  std::string to_bytes() const;
  static TimeSeries from_bytes(std::string_view bytes);

  /// Deterministic JSON object: {"width": w, "samples": n, "points": [...]}
  /// with every double at full %.17g fidelity so a byte-compare of the JSON
  /// is as strong as a byte-compare of the codec.
  void append_json(std::string& out) const;
  std::string to_json() const;

 private:
  /// The codec's field list (util/bytes.hpp visitor), both directions.
  template <class Io, class S>
  static void fields(Io& io, S& series);
  void coarsen();          // level_+1, merge adjacent windows in place
  void fold(const SeriesPoint& p);  // merge one point at current width

  Seconds base_width_;
  std::size_t budget_;
  unsigned level_ = 0;     ///< width multiplier exponent
  std::uint64_t samples_ = 0;
  std::vector<SeriesPoint> points_;  ///< sorted by bucket, unique
};

}  // namespace eab::obs
