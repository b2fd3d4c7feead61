#include "open/online_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace abg::open {
namespace {

TEST(Reservoir, ExactWhileUnderCapacity) {
  Reservoir reservoir(100, 1);
  for (int i = 1; i <= 99; ++i) {
    reservoir.add(static_cast<double>(i));
  }
  EXPECT_EQ(reservoir.seen(), 99);
  EXPECT_EQ(reservoir.size(), 99u);
  EXPECT_DOUBLE_EQ(reservoir.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(reservoir.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(reservoir.quantile(1.0), 99.0);
}

TEST(Reservoir, EmptyQuantileIsNan) {
  Reservoir reservoir(16, 1);
  EXPECT_TRUE(std::isnan(reservoir.quantile(0.5)));
}

TEST(Reservoir, BoundedMemoryAndApproximateQuantiles) {
  Reservoir reservoir(512, 9);
  const std::int64_t n = 100000;
  for (std::int64_t i = 0; i < n; ++i) {
    reservoir.add(static_cast<double>(i));
  }
  EXPECT_EQ(reservoir.seen(), n);
  EXPECT_EQ(reservoir.size(), 512u);
  // Rank standard error ~ sqrt(q(1-q)/512) ~ 2.2% at the median; allow
  // four sigma.
  EXPECT_NEAR(reservoir.quantile(0.5), 50000.0, 9000.0);
  EXPECT_NEAR(reservoir.quantile(0.95), 95000.0, 9000.0);
}

TEST(Reservoir, DeterministicForSeed) {
  Reservoir a(64, 5);
  Reservoir b(64, 5);
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<double>(i % 997));
    b.add(static_cast<double>(i % 997));
  }
  EXPECT_EQ(a.samples(), b.samples());
}

TEST(DownsampledSeries, SpansStreamAtBoundedCapacity) {
  DownsampledSeries series(64);
  for (int i = 0; i < 10000; ++i) {
    series.add(i, static_cast<double>(i));
  }
  EXPECT_LE(series.points().size(), 64u);
  ASSERT_FALSE(series.points().empty());
  EXPECT_EQ(series.points().front().step, 0);
  // Stride doubling keeps the retained points spread over the whole run.
  EXPECT_GT(series.points().back().step, 9000);
  for (std::size_t i = 1; i < series.points().size(); ++i) {
    EXPECT_GT(series.points()[i].step, series.points()[i - 1].step);
  }
}

TEST(OnlineStats, AggregatesMatchDirectComputation) {
  OnlineStats stats(OnlineStatsConfig{.reservoir_capacity = 1024,
                                      .series_capacity = 64,
                                      .seed = 3});
  // Jobs with known responses 100, 200, 300 and critical paths 50.
  stats.record_completion(0, 100, 50, 400, 10);
  stats.record_completion(10, 210, 50, 500, 20);
  stats.record_completion(20, 320, 50, 600, 30);
  EXPECT_EQ(stats.completed(), 3);
  EXPECT_EQ(stats.total_work(), 1500);
  EXPECT_EQ(stats.total_waste(), 60);
  EXPECT_DOUBLE_EQ(stats.response().mean(), 200.0);
  EXPECT_DOUBLE_EQ(stats.response_quantile(0.5), 200.0);
  EXPECT_DOUBLE_EQ(stats.slowdown().mean(), 4.0);
  EXPECT_DOUBLE_EQ(stats.slowdown().max(), 6.0);
}

TEST(OnlineStats, SlowdownClampsCriticalPath) {
  OnlineStats stats;
  stats.record_completion(0, 100, 0, 1, 0);  // degenerate critical path
  EXPECT_DOUBLE_EQ(stats.slowdown().mean(), 100.0);
}

TEST(OnlineStats, ToJsonCarriesTheSummary) {
  OnlineStats stats;
  stats.record_completion(0, 100, 50, 400, 10);
  stats.record_queue_depth(0, 3);
  const util::Json j = stats.to_json();
  EXPECT_EQ(j.at("completed").as_integer(), 1);
  EXPECT_DOUBLE_EQ(j.at("response").at("mean").as_number(), 100.0);
  EXPECT_DOUBLE_EQ(j.at("slowdown").at("mean").as_number(), 2.0);
  EXPECT_TRUE(j.at("queue_series").is_array());
}

TEST(OnlineStats, ConstantMemoryOverLongStreams) {
  OnlineStats stats(OnlineStatsConfig{.reservoir_capacity = 128,
                                      .series_capacity = 32,
                                      .seed = 7});
  util::Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    const auto response =
        static_cast<dag::Steps>(1.0 + rng.uniform01() * 1000.0);
    stats.record_completion(i, i + response, 100, 50, 1);
    if (i % 16 == 0) {
      stats.record_queue_depth(i, i % 11);
    }
  }
  EXPECT_EQ(stats.completed(), 200000);
  // Percentiles of U(1, 1001) responses land near the uniform quantiles
  // (reservoir of 128: rank stderr ~4.4%; allow wide tolerance).
  EXPECT_NEAR(stats.response_quantile(0.5), 500.0, 150.0);
  EXPECT_LE(stats.queue_series().points().size(), 32u);
}

}  // namespace
}  // namespace abg::open
