#include "obs/telemetry.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/bytes.hpp"

namespace eab::obs {

Telemetry::Telemetry(TelemetryConfig config) : config_(config) {
  if (!(config.tick > 0) || !std::isfinite(config.tick)) {
    throw std::invalid_argument("Telemetry: tick must be positive");
  }
  if (config.point_budget < 2) {
    throw std::invalid_argument("Telemetry: point_budget must be >= 2");
  }
}

void Telemetry::sample(std::string_view name, Seconds t, double value) {
  series(name).record(t, value);
}

TimeSeries& Telemetry::series(std::string_view name) {
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_
      .emplace(std::string(name),
               TimeSeries(config_.tick, config_.point_budget))
      .first->second;
}

const TimeSeries* Telemetry::find(std::string_view name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void Telemetry::merge_from(const Telemetry& other) {
  if (!(config_ == other.config_)) {
    throw std::invalid_argument("Telemetry::merge_from: config mismatch");
  }
  for (const auto& [name, s] : other.series_) {
    const auto it = series_.find(name);
    if (it == series_.end()) {
      series_.emplace(name, s);
    } else {
      it->second.merge_from(s);
    }
  }
}

bool Telemetry::same_as(const Telemetry& other) const {
  if (!(config_ == other.config_)) return false;
  if (series_.size() != other.series_.size()) return false;
  auto it = series_.begin();
  auto jt = other.series_.begin();
  for (; it != series_.end(); ++it, ++jt) {
    if (it->first != jt->first || !it->second.same_as(jt->second)) {
      return false;
    }
  }
  return true;
}

namespace {

/// The Telemetry header (util/bytes.hpp visitor); the sorted (name, series)
/// pairs follow it.
template <class Io, class C>
void fields(Io& io, C& config) {
  io(config.tick, config.point_budget, config.per_ue);
}

}  // namespace

std::string Telemetry::to_bytes() const {
  std::string out;
  BinaryWriter w(out);
  fields(w, config_);
  w.u64(series_.size());
  for (const auto& [name, s] : series_) w(name, s);
  w.seal();
  return out;
}

Telemetry Telemetry::from_bytes(std::string_view bytes) {
  BinaryReader r = BinaryReader::open_sealed(
      bytes, "Telemetry::from_bytes: checksum mismatch");
  TelemetryConfig config;
  fields(r, config);
  if (!(config.tick > 0) || !std::isfinite(config.tick) ||
      config.point_budget < 2) {
    throw std::runtime_error("Telemetry::from_bytes: malformed header");
  }
  Telemetry telemetry(config);
  const std::uint64_t n = r.u64();
  std::string previous;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    if (i > 0 && name <= previous) {
      throw std::runtime_error("Telemetry::from_bytes: unsorted series");
    }
    previous = name;
    telemetry.series_.emplace(std::move(name),
                              TimeSeries::from_bytes(r.str()));
  }
  r.expect_done();
  return telemetry;
}

void Telemetry::append_json(std::string& out) const {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", config_.tick);
  out += "{\"tick\": ";
  out += buffer;
  std::snprintf(buffer, sizeof buffer, "%zu", config_.point_budget);
  out += ", \"point_budget\": ";
  out += buffer;
  out += ", \"series\": {";
  bool first = true;
  for (const auto& [name, s] : series_) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += name;  // series names are code-side identifiers, no escaping needed
    out += "\": ";
    s.append_json(out);
  }
  out += "}}";
}

std::string Telemetry::to_json() const {
  std::string out;
  append_json(out);
  return out;
}

}  // namespace eab::obs
