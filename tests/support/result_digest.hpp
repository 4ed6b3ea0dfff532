// FNV-1a digests of whole experiment results, for byte-identity pins.
//
// A pin test records the digest of a run's every output field (doubles as
// their bit patterns, through util/bytes.hpp's BinaryWriter) and asserts it
// as a constant, so a refactor of the assembly path cannot drift a single
// bit of a timing, energy integral, metrics snapshot or trace unnoticed.
// A traced result's recording is covered through its Chrome trace export.
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "core/session.hpp"
#include "obs/chrome_trace.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace eab::test {

inline void write_timeline(BinaryWriter& w, const PowerTimeline& timeline) {
  w.seq(timeline.change_points(),
        [](BinaryWriter& io, const PowerTimeline::Change& c) {
          io(c.at, c.power);
        });
}

inline void write_energy(BinaryWriter& w, const core::EnergyReport& e) {
  w(e.load_j, e.with_reading_j, e.radio_j, e.window_s);
}

inline std::uint64_t result_digest(const core::SingleLoadResult& r) {
  std::string bytes;
  BinaryWriter w(bytes);
  const browser::LoadMetrics& m = r.metrics;
  w(m.started, m.transmission_done, m.first_display, m.final_display,
    static_cast<std::int64_t>(m.bytes_fetched), m.objects_fetched,
    m.intermediate_displays, m.js_time, m.failed_resources,
    m.truncated_resources, m.placeholder_images, m.fetch_retries, m.aborted,
    m.aborted_at);
  w.seq(r.features.to_row(), [](BinaryWriter& io, double v) { io(v); });
  const browser::PageGeometry& g = r.geometry;
  w(g.width_px, g.height_px, static_cast<std::uint64_t>(g.element_nodes),
    static_cast<std::uint64_t>(g.text_nodes),
    static_cast<std::uint64_t>(g.image_nodes));
  write_energy(w, r.energy);
  w(r.reading_window, r.dch_time, r.fach_time, r.idle_promotions,
    r.forced_releases, static_cast<std::int64_t>(r.bytes_fetched),
    r.fetch_retries, r.fetch_timeouts, r.failed_resources,
    r.truncated_resources, r.link_fades, r.radio_outages, r.rlf_count,
    r.reestablish_ok, r.reestablish_fail, r.out_of_service_time,
    r.sim_events, r.dom_signature, r.job_metrics);
  write_timeline(w, r.total_power);
  write_timeline(w, r.link_rate);
  w(r.trace != nullptr);
  if (r.trace) w(obs::chrome_trace_json(*r.trace, r.energy.window_s));
  return fnv1a_64(bytes);
}

inline std::uint64_t result_digest(const core::SessionResult& r) {
  std::string bytes;
  BinaryWriter w(bytes);
  write_energy(w, r.energy);
  w(r.total_load_delay, r.pages, r.switches_to_idle, r.ril_socket_failures,
    r.radio_idle_time, r.radio_outages, r.rlf_count, r.reestablish_ok,
    r.reestablish_fail, r.out_of_service_time);
  w.seq(r.page_load_times, [](BinaryWriter& io, double v) { io(v); });
  w(r.trace != nullptr);
  if (r.trace) w(obs::chrome_trace_json(*r.trace, r.energy.window_s));
  return fnv1a_64(bytes);
}

}  // namespace eab::test
