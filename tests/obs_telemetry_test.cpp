// Simulated-time telemetry (DESIGN.md §11): fixed-budget TimeSeries
// downsampling invariants, exact merge associativity (halves == whole),
// the crc32-tailed codec (round-trip, truncation, corruption), and the
// cell-level determinism contract — telemetry off leaves the run untouched,
// telemetry on never bends the workload, and serial == supervised series
// bit for bit.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "cell/cell.hpp"
#include "core/scenario.hpp"
#include "core/supervisor.hpp"
#include "core/sweep.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace eab::obs {
namespace {

// --- TimeSeries invariants -------------------------------------------------

TEST(TimeSeriesTest, RecordsIntoBaseWidthBuckets) {
  TimeSeries s(2.0, 8);
  s.record(0.5, 10.0);
  s.record(1.5, 20.0);   // same window [0, 2)
  s.record(2.0, 5.0);    // next window [2, 4)
  ASSERT_EQ(s.points().size(), 2u);
  EXPECT_EQ(s.level(), 0u);
  EXPECT_EQ(s.width(), 2.0);
  EXPECT_EQ(s.samples(), 3u);

  const SeriesPoint& w0 = s.points()[0];
  EXPECT_EQ(w0.bucket, 0u);
  EXPECT_EQ(w0.min, 10.0);
  EXPECT_EQ(w0.max, 20.0);
  EXPECT_EQ(w0.sum(), 30.0);
  EXPECT_EQ(w0.count, 2u);
  EXPECT_EQ(w0.last, 20.0);
  EXPECT_EQ(w0.mean(), 15.0);

  const SeriesPoint& w1 = s.points()[1];
  EXPECT_EQ(w1.bucket, 1u);
  EXPECT_EQ(w1.count, 1u);
  EXPECT_EQ(w1.last, 5.0);
}

TEST(TimeSeriesTest, BudgetTriggersPowerOfTwoCoarseningAndLosesNothing) {
  constexpr std::size_t kBudget = 16;
  TimeSeries s(1.0, kBudget);
  double sum = 0, lo = 1e9, hi = -1e9;
  constexpr int kSamples = 1000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = std::sin(0.1 * i) * 100.0 + i;
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    s.record(static_cast<Seconds>(i), v);
  }
  // Budget respected, width is a power-of-two multiple of the base width.
  EXPECT_LE(s.points().size(), kBudget);
  EXPECT_GT(s.level(), 0u);
  EXPECT_EQ(s.width(), std::ldexp(1.0, static_cast<int>(s.level())));
  // Downsampling merges windows but never drops what they aggregate.
  std::uint64_t count = 0;
  double total = 0, min_seen = 1e9, max_seen = -1e9;
  for (const auto& p : s.points()) {
    count += p.count;
    total += p.sum();
    min_seen = std::min(min_seen, p.min);
    max_seen = std::max(max_seen, p.max);
    EXPECT_GT(p.count, 0u);
  }
  EXPECT_EQ(count, static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(s.samples(), static_cast<std::uint64_t>(kSamples));
  // Each sample carries at most half a quantum of snap error.
  EXPECT_NEAR(total, sum, kSamples * kSumQuantum / 2);
  EXPECT_EQ(min_seen, lo);
  EXPECT_EQ(max_seen, hi);
  // Windows stay sorted and unique.
  for (std::size_t i = 1; i < s.points().size(); ++i) {
    EXPECT_LT(s.points()[i - 1].bucket, s.points()[i].bucket);
  }
}

std::vector<std::pair<Seconds, double>> synthetic_stream(std::size_t n,
                                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Seconds, double>> stream;
  Seconds t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.uniform(0.0, 3.0);
    stream.emplace_back(t, rng.uniform(-50.0, 50.0));
  }
  return stream;
}

TEST(TimeSeriesTest, MergeOfHalvesEqualsWholeBitExactly) {
  // The supervised-sweep contract: feeding two halves into separate series
  // and merging gives the same bytes as one series fed the whole stream —
  // for ANY split, even mid-window, even when the halves coarsened to
  // different levels on the way.  This is what the integer-quanta sums buy.
  const auto stream = synthetic_stream(700, 99);
  for (const std::size_t split : {std::size_t{0}, std::size_t{17},
                                  std::size_t{350}, std::size_t{699}}) {
    TimeSeries whole(0.5, 32), left(0.5, 32), right(0.5, 32);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      whole.record(stream[i].first, stream[i].second);
      (i < split ? left : right).record(stream[i].first, stream[i].second);
    }
    left.merge_from(right);
    EXPECT_TRUE(left.same_as(whole)) << "split=" << split;
    EXPECT_EQ(left.to_bytes(), whole.to_bytes()) << "split=" << split;
    EXPECT_EQ(left.to_json(), whole.to_json()) << "split=" << split;
  }
}

TEST(TimeSeriesTest, MergeIsAssociative) {
  const auto stream = synthetic_stream(600, 7);
  auto thirds = [&](std::size_t k) {
    TimeSeries s(1.0, 16);
    for (std::size_t i = k * 200; i < (k + 1) * 200; ++i) {
      s.record(stream[i].first, stream[i].second);
    }
    return s;
  };
  // (a + b) + c
  TimeSeries ab = thirds(0);
  ab.merge_from(thirds(1));
  ab.merge_from(thirds(2));
  // a + (b + c)
  TimeSeries bc = thirds(1);
  bc.merge_from(thirds(2));
  TimeSeries a = thirds(0);
  a.merge_from(bc);
  EXPECT_EQ(ab.to_bytes(), a.to_bytes());

  // And both match the single-series run over the whole stream.
  TimeSeries whole(1.0, 16);
  for (const auto& [t, v] : stream) whole.record(t, v);
  EXPECT_EQ(ab.to_bytes(), whole.to_bytes());
}

TEST(TimeSeriesTest, SumQuantizationIsExactForGridValuesAndTiny) {
  // Integers and 2^-20 multiples pass through the quantizer unchanged;
  // arbitrary reals land within half a quantum.
  TimeSeries s(1.0, 8);
  s.record(0.0, 10.0);
  s.record(0.1, 20.0);
  EXPECT_EQ(s.points()[0].sum(), 30.0);
  EXPECT_EQ(s.points()[0].mean(), 15.0);

  TimeSeries grid(1.0, 8);
  grid.record(0.0, 5.0 * kSumQuantum);
  EXPECT_EQ(grid.points()[0].sum(), 5.0 * kSumQuantum);

  TimeSeries real(1.0, 8);
  real.record(0.0, 0.3);
  EXPECT_NEAR(real.points()[0].sum(), 0.3, kSumQuantum / 2);
  // min/max/last never go through the quantizer.
  EXPECT_EQ(real.points()[0].min, 0.3);
  EXPECT_EQ(real.points()[0].last, 0.3);

  EXPECT_THROW(real.record(1.0, std::nan("")), std::invalid_argument);
}

TEST(TimeSeriesTest, MergeRejectsMismatchedShape) {
  TimeSeries a(1.0, 16);
  EXPECT_THROW(a.merge_from(TimeSeries(2.0, 16)), std::invalid_argument);
  EXPECT_THROW(a.merge_from(TimeSeries(1.0, 32)), std::invalid_argument);
}

TEST(TimeSeriesTest, CodecRoundTripsBitExactly) {
  TimeSeries s(0.25, 8);
  for (const auto& [t, v] : synthetic_stream(300, 3)) s.record(t, v);
  const std::string bytes = s.to_bytes();
  const TimeSeries restored = TimeSeries::from_bytes(bytes);
  EXPECT_TRUE(restored.same_as(s));
  EXPECT_EQ(restored.to_bytes(), bytes);
  EXPECT_EQ(restored.to_json(), s.to_json());
}

TEST(TimeSeriesTest, CodecRejectsTruncationAtEveryOffset) {
  TimeSeries s(1.0, 4);
  for (int i = 0; i < 40; ++i) s.record(static_cast<Seconds>(i), i * 1.5);
  const std::string bytes = s.to_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(TimeSeries::from_bytes(std::string_view(bytes).substr(0, len)),
                 std::runtime_error)
        << "accepted a record truncated to " << len << " bytes";
  }
}

TEST(TimeSeriesTest, CodecRejectsEverySingleByteCorruption) {
  // The crc32 tail covers the whole payload, so no single flipped byte —
  // payload or checksum — may slip through.
  TimeSeries s(1.0, 4);
  for (int i = 0; i < 20; ++i) s.record(static_cast<Seconds>(i), i * 2.0);
  const std::string bytes = s.to_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_THROW(TimeSeries::from_bytes(corrupt), std::runtime_error)
        << "accepted a record with byte " << i << " flipped";
  }
}

// --- Telemetry registry ----------------------------------------------------

TEST(TelemetryTest, RegistryIsDeterministicAndSorted) {
  const TelemetryConfig config{2.0, 16, false};
  Telemetry a(config), b(config);
  for (Telemetry* t : {&a, &b}) {
    t->sample("zeta", 1.0, 3.0);
    t->sample("alpha", 1.0, 1.0);
    t->sample("zeta", 3.0, 4.0);
    t->sample("mid", 2.0, 2.0);
  }
  EXPECT_EQ(a.series_count(), 3u);
  EXPECT_TRUE(a.same_as(b));
  EXPECT_EQ(a.to_bytes(), b.to_bytes());
  EXPECT_EQ(a.to_json(), b.to_json());
  // Sorted iteration: JSON lists series alphabetically regardless of the
  // order they were first sampled.
  const std::string json = a.to_json();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"mid\""));
  EXPECT_LT(json.find("\"mid\""), json.find("\"zeta\""));
  EXPECT_NE(a.find("alpha"), nullptr);
  EXPECT_EQ(a.find("missing"), nullptr);
}

TEST(TelemetryTest, MergeUnionsSeriesAndRejectsConfigMismatch) {
  const TelemetryConfig config{1.0, 8, false};
  Telemetry whole(config), left(config), right(config);
  const auto stream = synthetic_stream(200, 11);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const char* name = i % 3 == 0 ? "shared" : (i % 3 == 1 ? "a" : "b");
    whole.sample(name, stream[i].first, stream[i].second);
    (i < 100 ? left : right).sample(name, stream[i].first, stream[i].second);
  }
  left.merge_from(right);
  EXPECT_TRUE(left.same_as(whole));
  EXPECT_EQ(left.to_bytes(), whole.to_bytes());

  Telemetry other(TelemetryConfig{2.0, 8, false});
  EXPECT_THROW(left.merge_from(other), std::invalid_argument);
}

TEST(TelemetryTest, CodecRoundTripsAndRejectsDamage) {
  Telemetry t(TelemetryConfig{0.5, 8, true});
  for (const auto& [at, v] : synthetic_stream(150, 23)) {
    t.sample("cell.power", at, v);
    t.sample("ue000.rrc", at, v > 0 ? 2.0 : 0.0);
  }
  const std::string bytes = t.to_bytes();
  const Telemetry restored = Telemetry::from_bytes(bytes);
  EXPECT_TRUE(restored.same_as(t));
  EXPECT_EQ(restored.to_bytes(), bytes);
  EXPECT_EQ(restored.config(), t.config());

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(Telemetry::from_bytes(std::string_view(bytes).substr(0, len)),
                 std::runtime_error)
        << "accepted a registry truncated to " << len << " bytes";
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_THROW(Telemetry::from_bytes(corrupt), std::runtime_error)
        << "accepted a registry with byte " << i << " flipped";
  }

  EXPECT_THROW(Telemetry(TelemetryConfig{0.0, 8, false}),
               std::invalid_argument);
  EXPECT_THROW(Telemetry(TelemetryConfig{1.0, 1, false}),
               std::invalid_argument);
  // A checksum-valid record carrying such a header is malformed input, and
  // decoders report malformed input as std::runtime_error.
  for (const TelemetryConfig bad : {TelemetryConfig{0.0, 8, false},
                                    TelemetryConfig{1.0, 1, false}}) {
    std::string sealed;
    BinaryWriter w(sealed);
    w(bad.tick, bad.point_budget, bad.per_ue, std::uint64_t{0});
    w.seal();
    EXPECT_THROW(Telemetry::from_bytes(sealed), std::runtime_error);
  }
}

// --- cell integration: the determinism contract ----------------------------

cell::CellConfig telemetry_cell(Seconds tick) {
  cell::CellConfig config;
  config.per_ue =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build();
  const auto all = corpus::mobile_benchmark();
  config.specs = {all.begin(), all.begin() + 2};
  config.users = 6;
  config.channels = 2;
  config.horizon = 120.0;
  config.cell_seed = 7;
  config.telemetry_tick = tick;
  config.telemetry_budget = 64;
  return config;
}

/// The workload surface sampling must never bend (everything cell_test's
/// fingerprint covers except sim_events, which legitimately grows by the
/// tick count).
std::string workload_fingerprint(const cell::CellResult& r) {
  std::string out = std::to_string(r.offered) + "/" +
                    std::to_string(r.dropped) + "/" +
                    std::to_string(r.completed) + "/" +
                    std::to_string(r.aborted) + "/" +
                    std::to_string(r.grant_overcommits);
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "/%.17g/%.17g", r.end_time,
                r.mean_busy_grants);
  out += buffer;
  for (const auto& ue : r.per_ue) out += ue.energy.to_json();
  return out;
}

TEST(CellTelemetryTest, DisabledTelemetryLeavesResultNull) {
  const cell::CellResult off = cell::run_cell(telemetry_cell(0));
  EXPECT_EQ(off.telemetry, nullptr);
}

TEST(CellTelemetryTest, SamplingNeverBendsTheWorkload) {
  const cell::CellResult off = cell::run_cell(telemetry_cell(0));
  const cell::CellResult on = cell::run_cell(telemetry_cell(5.0));
  ASSERT_NE(on.telemetry, nullptr);
  EXPECT_GT(on.telemetry->series_count(), 0u);
  // Same trajectory to the last double; only the tick events are extra.
  EXPECT_EQ(workload_fingerprint(on), workload_fingerprint(off));
  EXPECT_GT(on.sim_events, off.sim_events);
  // The paper-facing metrics snapshot is frozen too, except cell.sim_events
  // — the one counter that legitimately includes the tick events.
  auto strip_sim_events = [](std::string json) {
    const auto begin = json.find("  \"cell.sim_events\"");
    const auto end = json.find('\n', begin);
    EXPECT_NE(begin, std::string::npos);
    json.erase(begin, end - begin + 1);
    return json;
  };
  EXPECT_EQ(strip_sim_events(on.metrics.to_json()),
            strip_sim_events(off.metrics.to_json()));
}

TEST(CellTelemetryTest, SameSeedSampledRunsAreBitIdentical) {
  const cell::CellResult a = cell::run_cell(telemetry_cell(5.0));
  const cell::CellResult b = cell::run_cell(telemetry_cell(5.0));
  ASSERT_NE(a.telemetry, nullptr);
  ASSERT_NE(b.telemetry, nullptr);
  EXPECT_TRUE(a.telemetry->same_as(*b.telemetry));
  EXPECT_EQ(a.telemetry->to_bytes(), b.telemetry->to_bytes());
  EXPECT_EQ(a.telemetry->to_json(), b.telemetry->to_json());
}

TEST(CellTelemetryTest, PerUeSeriesAreOptIn) {
  auto config = telemetry_cell(5.0);
  const cell::CellResult cell_only = cell::run_cell(config);
  config.telemetry_per_ue = true;
  const cell::CellResult per_ue = cell::run_cell(config);
  ASSERT_NE(cell_only.telemetry, nullptr);
  ASSERT_NE(per_ue.telemetry, nullptr);
  EXPECT_EQ(cell_only.telemetry->find("ue000.rrc_state"), nullptr);
  EXPECT_NE(per_ue.telemetry->find("ue000.rrc_state"), nullptr);
  // The cell-level series are unchanged by turning the per-UE ones on.
  for (const auto& [name, series] : cell_only.telemetry->all()) {
    const TimeSeries* twin = per_ue.telemetry->find(name);
    ASSERT_NE(twin, nullptr) << name;
    EXPECT_TRUE(twin->same_as(series)) << name;
  }
}

TEST(CellTelemetryTest, ResultSerializationCarriesSeriesBitExactly) {
  const cell::CellResult original = cell::run_cell(telemetry_cell(5.0));
  ASSERT_NE(original.telemetry, nullptr);
  const cell::CellResult restored =
      cell::deserialize_cell_result(cell::serialize_cell_result(original));
  ASSERT_NE(restored.telemetry, nullptr);
  EXPECT_TRUE(restored.telemetry->same_as(*original.telemetry));
  EXPECT_EQ(cell::serialize_cell_result(restored),
            cell::serialize_cell_result(original));

  // Telemetry-off results round-trip to a null registry, not an empty one.
  const cell::CellResult off = cell::run_cell(telemetry_cell(0));
  const cell::CellResult off_restored =
      cell::deserialize_cell_result(cell::serialize_cell_result(off));
  EXPECT_EQ(off_restored.telemetry, nullptr);
}

TEST(CellTelemetryTest, SupervisedSweepCarriesSeriesBitIdentically) {
  // The end-to-end determinism chain: in-process sweep == forked-worker
  // supervised sweep, series included, byte for byte.
  const auto config = telemetry_cell(5.0);
  const std::vector<int> axis{2, 4, 6};
  const auto shard = [&](std::size_t i) {
    cell::CellConfig point = config;
    point.users = axis[i];
    return cell::run_cell(point);
  };
  core::BatchRunner serial(1);
  std::vector<cell::CellResult> reference(axis.size());
  core::sweep(serial, axis.size(), shard,
              [&](std::size_t i, cell::CellResult&& r) {
                reference[i] = std::move(r);
              });

  core::SupervisorConfig sup_config;
  sup_config.workers = 2;
  core::Supervisor supervisor(sup_config);
  std::vector<cell::CellResult> supervised(axis.size());
  const core::SupervisorReport report = core::sweep(
      supervisor, axis.size(), shard,
      [&](std::size_t i, cell::CellResult&& r) {
        supervised[i] = std::move(r);
      },
      cell::serialize_cell_result, cell::deserialize_cell_result);
  ASSERT_TRUE(report.ok()) << report.summary();

  for (std::size_t i = 0; i < axis.size(); ++i) {
    ASSERT_NE(reference[i].telemetry, nullptr) << "users=" << axis[i];
    ASSERT_NE(supervised[i].telemetry, nullptr) << "users=" << axis[i];
    EXPECT_EQ(supervised[i].telemetry->to_bytes(),
              reference[i].telemetry->to_bytes())
        << "users=" << axis[i];
    EXPECT_EQ(cell::serialize_cell_result(supervised[i]),
              cell::serialize_cell_result(reference[i]))
        << "users=" << axis[i];
  }
}

}  // namespace
}  // namespace eab::obs
