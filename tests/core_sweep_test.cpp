// core::sweep: consume order and payloads are bit-identical on a one-thread
// runner (the inline reference), pooled runners and a supervisor; in-process
// shard exceptions propagate in index order.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace eab::core {
namespace {

struct Point {
  std::uint64_t index = 0;
  std::uint64_t value = 0;
};

/// Pure function of the index, as the sweep contract requires.
Point point_shard(std::size_t i) { return Point{i, i * i + 7}; }

std::string encode_point(const Point& p) {
  std::string bytes;
  BinaryWriter w(bytes);
  w.u64(p.index);
  w.u64(p.value);
  return bytes;
}

Point decode_point(std::string_view bytes) {
  BinaryReader r(bytes);
  Point p;
  p.index = r.u64();
  p.value = r.u64();
  r.expect_done();
  return p;
}

/// A consume callback appending to `out` that checks the index it is handed.
auto collect_into(std::vector<Point>& out) {
  return [&out](std::size_t i, Point&& p) {
    EXPECT_EQ(i, p.index);
    out.push_back(p);
  };
}

void expect_sequence(const std::vector<Point>& points, std::size_t count) {
  ASSERT_EQ(points.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].value, i * i + 7);
  }
}

TEST(SweepTest, EveryEngineConsumesTheSameOrderedSequence) {
  constexpr std::size_t kCount = 17;

  // One thread is the inline reference; the other counts do and do not
  // divide the axis, to force reordering through the contiguous-prefix
  // buffer.
  for (int threads : {1, 3, 8}) {
    SCOPED_TRACE(threads);
    BatchRunner runner(threads);
    std::vector<Point> pooled;
    sweep(runner, kCount, point_shard, collect_into(pooled));
    expect_sequence(pooled, kCount);
  }

  SupervisorConfig config;
  config.workers = 3;
  Supervisor supervisor(config);
  std::vector<Point> supervised;
  const SupervisorReport report =
      sweep(supervisor, kCount, point_shard, collect_into(supervised),
            encode_point, decode_point);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.completed, kCount);
  expect_sequence(supervised, kCount);
}

TEST(SweepTest, InProcessShardExceptionsPropagate) {
  const auto shard = [](std::size_t i) -> int {
    if (i == 2) throw std::runtime_error("shard 2 exploded");
    return static_cast<int>(i);
  };
  for (int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    BatchRunner runner(threads);
    std::vector<std::size_t> consumed;
    EXPECT_THROW(sweep(runner, 4, shard,
                       [&](std::size_t i, int&&) { consumed.push_back(i); }),
                 std::runtime_error);
    // Nothing at or past the failed index is consumed.
    EXPECT_EQ(consumed, (std::vector<std::size_t>{0, 1}));
  }
}

TEST(SweepTest, ZeroShardsIsANoOp) {
  int consumed = 0;
  BatchRunner runner(1);
  sweep(runner, 0, [](std::size_t i) { return static_cast<int>(i); },
        [&](std::size_t, int&&) { ++consumed; });
  EXPECT_EQ(consumed, 0);
}

}  // namespace
}  // namespace eab::core
