#include "obs/timeseries.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/bytes.hpp"

namespace eab::obs {
namespace {

/// %.17g for reals, %lld for integral values — same deterministic scheme as
/// MetricsRegistry, at full round-trip fidelity.
void append_number(std::string& out, double v) {
  char buffer[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
  }
  out += buffer;
}

/// Snaps a sample onto the 2^-20 sum grid (round-half-away, saturating at
/// the quantizer range) — the single lossy step that buys exact integer
/// window sums.
std::int64_t quantize(double value) {
  const double scaled = value * (1.0 / kSumQuantum);
  // 2^62 quanta ≈ ±4.4e12 in value: far past any gauge, far short of the
  // range where llround would overflow.
  constexpr double kLimit = 4611686018427387904.0;  // 2^62
  if (scaled >= kLimit) return std::int64_t{1} << 62;
  if (scaled <= -kLimit) return -(std::int64_t{1} << 62);
  return std::llround(scaled);
}

/// Two's-complement add: wraps mod 2^64 instead of UB on the (pathological)
/// overflow, so even that stays deterministic and associative.
std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Exact index-wise combine; `b`'s last wins when its newest sample is at
/// least as recent (merge_from documents the tiebreak).
SeriesPoint merge_points(const SeriesPoint& a, const SeriesPoint& b) {
  SeriesPoint out = a;
  out.min = std::min(a.min, b.min);
  out.max = std::max(a.max, b.max);
  out.sum_q = wrapping_add(a.sum_q, b.sum_q);
  out.count = a.count + b.count;
  if (b.last_t >= a.last_t) {
    out.last = b.last;
    out.last_t = b.last_t;
  }
  return out;
}

}  // namespace

TimeSeries::TimeSeries(Seconds base_width, std::size_t point_budget)
    : base_width_(base_width), budget_(point_budget) {
  if (!(base_width > 0) || !std::isfinite(base_width)) {
    throw std::invalid_argument("TimeSeries: base_width must be positive");
  }
  if (point_budget < 2) {
    throw std::invalid_argument("TimeSeries: point_budget must be >= 2");
  }
}

void TimeSeries::record(Seconds t, double value) {
  if (!(t >= 0) || !std::isfinite(t)) {
    throw std::invalid_argument("TimeSeries::record: time must be >= 0");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("TimeSeries::record: value must be finite");
  }
  // The one and only float->bucket conversion: everything downstream works
  // on integer indices so coarsening and merging stay exact.
  const auto base_bucket = static_cast<std::uint64_t>(t / base_width_);
  SeriesPoint p;
  p.bucket = base_bucket >> level_;
  p.min = p.max = p.last = value;
  p.sum_q = quantize(value);
  p.last_t = t;
  p.count = 1;
  ++samples_;
  fold(p);
  while (points_.size() > budget_ && level_ < 63) coarsen();
}

void TimeSeries::fold(const SeriesPoint& p) {
  // Fast path: samples arrive in simulated-time order, so the target window
  // is almost always the newest one (or a brand-new one past it).
  if (points_.empty() || p.bucket > points_.back().bucket) {
    points_.push_back(p);
    return;
  }
  // Binary search for out-of-order folds (derived series, merges).
  std::size_t lo = 0, hi = points_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (points_[mid].bucket < p.bucket) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < points_.size() && points_[lo].bucket == p.bucket) {
    points_[lo] = merge_points(points_[lo], p);
  } else {
    points_.insert(points_.begin() + static_cast<std::ptrdiff_t>(lo), p);
  }
}

void TimeSeries::coarsen() {
  ++level_;
  std::size_t out = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    SeriesPoint p = points_[i];
    p.bucket >>= 1;
    if (out > 0 && points_[out - 1].bucket == p.bucket) {
      points_[out - 1] = merge_points(points_[out - 1], p);
    } else {
      points_[out++] = p;
    }
  }
  points_.resize(out);
}

void TimeSeries::merge_from(const TimeSeries& other) {
  if (base_width_ != other.base_width_ || budget_ != other.budget_) {
    throw std::invalid_argument(
        "TimeSeries::merge_from: base_width/point_budget mismatch");
  }
  while (level_ < other.level_) coarsen();
  const unsigned shift = level_ - other.level_;
  for (const SeriesPoint& raw : other.points_) {
    SeriesPoint p = raw;
    p.bucket >>= shift;
    fold(p);
  }
  samples_ += other.samples_;
  while (points_.size() > budget_ && level_ < 63) coarsen();
}

bool TimeSeries::same_as(const TimeSeries& other) const {
  return base_width_ == other.base_width_ && budget_ == other.budget_ &&
         level_ == other.level_ && samples_ == other.samples_ &&
         points_ == other.points_;
}

template <class Io, class S>
void TimeSeries::fields(Io& io, S& series) {
  io(series.base_width_, series.budget_, series.level_, series.samples_);
  io.seq(series.points_, [](Io& io, auto& p) {
    io(p.bucket, p.min, p.max, p.sum_q, p.last, p.last_t, p.count);
  });
}

std::string TimeSeries::to_bytes() const {
  std::string out;
  BinaryWriter w(out);
  fields(w, *this);
  w.seal();
  return out;
}

TimeSeries TimeSeries::from_bytes(std::string_view bytes) {
  BinaryReader r = BinaryReader::open_sealed(
      bytes, "TimeSeries::from_bytes: checksum mismatch");
  TimeSeries series(1.0, 2);  // shape placeholder; the header overwrites it
  fields(r, series);
  r.expect_done();
  const auto& points = series.points_;
  if (!(series.base_width_ > 0) || !std::isfinite(series.base_width_) ||
      series.budget_ < 2 || series.level_ >= 64 ||
      points.size() > series.budget_) {
    throw std::runtime_error("TimeSeries::from_bytes: malformed header");
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].bucket <= points[i - 1].bucket) {
      throw std::runtime_error("TimeSeries::from_bytes: unsorted points");
    }
  }
  return series;
}

void TimeSeries::append_json(std::string& out) const {
  out += "{\"width\": ";
  append_number(out, width());
  out += ", \"samples\": ";
  append_number(out, static_cast<double>(samples_));
  out += ", \"points\": [";
  bool first = true;
  for (const SeriesPoint& p : points_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"t\": ";
    append_number(out, static_cast<double>(p.bucket) * width());
    out += ", \"min\": ";
    append_number(out, p.min);
    out += ", \"max\": ";
    append_number(out, p.max);
    out += ", \"mean\": ";
    append_number(out, p.mean());
    out += ", \"last\": ";
    append_number(out, p.last);
    out += ", \"count\": ";
    append_number(out, static_cast<double>(p.count));
    out += "}";
  }
  out += "]}";
}

std::string TimeSeries::to_json() const {
  std::string out;
  append_json(out);
  return out;
}

}  // namespace eab::obs
