#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/bytes.hpp"

namespace eab::obs {

void Histogram::observe(double value) {
  std::size_t bucket = kEdges.size();  // overflow
  for (std::size_t i = 0; i < kEdges.size(); ++i) {
    if (value <= kEdges[i]) {
      bucket = i;
      break;
    }
  }
  ++buckets[bucket];
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               Kind kind) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry& fresh = entries_[std::string(name)];
    fresh.kind = kind;
    return fresh;
  }
  if (it->second.kind != kind) {
    throw std::logic_error("MetricsRegistry: kind mismatch for metric '" +
                           std::string(name) + "'");
  }
  return it->second;
}

void MetricsRegistry::count(std::string_view name, double delta) {
  entry(name, Kind::kCounter).value += delta;
}

void MetricsRegistry::set_max(std::string_view name, double value) {
  Entry& e = entry(name, Kind::kGauge);
  e.value = std::max(e.value, value);
}

void MetricsRegistry::observe(std::string_view name, double value) {
  entry(name, Kind::kHistogram).hist.observe(value);
}

double MetricsRegistry::value(std::string_view name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? 0.0 : it->second.value;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != Kind::kHistogram) {
    return nullptr;
  }
  return &it->second.hist;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, theirs] : other.entries_) {
    Entry& mine = entry(name, theirs.kind);
    switch (theirs.kind) {
      case Kind::kCounter: mine.value += theirs.value; break;
      case Kind::kGauge: mine.value = std::max(mine.value, theirs.value); break;
      case Kind::kHistogram: mine.hist.merge(theirs.hist); break;
    }
  }
}

namespace {

/// Renders a double compactly and deterministically: integral values (the
/// overwhelmingly common case for counters) print without a fraction.
void append_number(std::string& out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  out += buf;
}

/// The Entry layout after its name and kind byte (util/bytes.hpp visitor).
/// The whole Entry travels regardless of kind: equality (same_as) is
/// field-wise, so a round trip must restore value AND histogram exactly.
template <class Io, class E>
void fields(Io& io, E& e) {
  io(e.value, e.hist.count, e.hist.sum, e.hist.min, e.hist.max);
  for (auto& bucket : e.hist.buckets) io(bucket);
}

}  // namespace

std::string MetricsRegistry::to_bytes() const {
  std::string out;
  BinaryWriter w(out);
  w.u64(entries_.size());
  for (const auto& [name, e] : entries_) {
    w.str(name);
    w.u8(static_cast<std::uint8_t>(e.kind));
    fields(w, e);
  }
  return out;
}

MetricsRegistry MetricsRegistry::from_bytes(std::string_view bytes) {
  MetricsRegistry registry;
  BinaryReader r(bytes);
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(Kind::kHistogram)) {
      throw std::runtime_error("MetricsRegistry::from_bytes: bad entry kind");
    }
    Entry e;
    e.kind = static_cast<Kind>(kind);
    fields(r, e);
    registry.entries_.emplace(std::move(name), e);
  }
  r.expect_done();
  return registry;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"";
    out += name;
    out += "\": ";
    switch (e.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        append_number(out, e.value);
        break;
      case Kind::kHistogram: {
        out += "{\"count\": ";
        append_number(out, static_cast<double>(e.hist.count));
        out += ", \"sum\": ";
        append_number(out, e.hist.sum);
        out += ", \"min\": ";
        append_number(out, e.hist.min);
        out += ", \"max\": ";
        append_number(out, e.hist.max);
        out += ", \"mean\": ";
        append_number(out, e.hist.mean());
        out += ", \"buckets\": [";
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (i) out += ", ";
          append_number(out, static_cast<double>(e.hist.buckets[i]));
        }
        out += "]}";
        break;
      }
    }
  }
  out += "\n}\n";
  return out;
}

}  // namespace eab::obs
