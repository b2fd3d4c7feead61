// Constant-memory statistics for open-system streams.
//
// A closed run keeps every JobTrace and derives its metrics afterwards;
// an open run pushing 10^6-10^7 jobs cannot.  OnlineStats is the folding
// layer the streaming driver retires completed jobs into: exact one-pass
// aggregates (Welford mean/variance, min/max, totals) ride next to
// fixed-capacity reservoir samples for the percentile questions
// (response-time p50/p95/p99, slowdown tails) and a stride-doubling
// queue-depth time series.  Memory is O(reservoir + series capacity) —
// constants — regardless of how many jobs flow through.
//
// Accuracy: a reservoir of n samples estimates the q-quantile with rank
// standard error ~= sqrt(q(1-q)/n); at the default n = 4096 that is
// +-0.8% of rank at the median and +-0.16% at p99.  Estimates are exact
// while the stream is shorter than the capacity.
//
// Determinism: sampling decisions come from a private Rng seeded at
// construction, so a stream's retained sample set is a pure function of
// (seed, observation sequence) — thread-count independent because each
// open run owns exactly one OnlineStats.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/job.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace abg::open {

/// Fixed-capacity uniform sample of a stream (Algorithm R) with
/// deterministic replacement draws.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);

  /// Observes one value.
  void add(double value);

  /// Values observed (not retained) so far.
  std::int64_t seen() const { return seen_; }

  /// Retained sample count (== seen() until capacity is exceeded).
  std::size_t size() const { return samples_.size(); }

  /// q-quantile estimate by linear interpolation over the retained
  /// sample; exact while seen() <= capacity; NaN when empty.
  double quantile(double q) const;

  /// Retained samples (unsorted; test hook).
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  std::size_t capacity_;
  std::int64_t seen_ = 0;
  util::Rng rng_;
};

/// Bounded time series: keeps every stride-th observation and doubles the
/// stride (dropping every other retained point) whenever capacity would
/// be exceeded, so the series spans the whole run at O(capacity) memory.
class DownsampledSeries {
 public:
  explicit DownsampledSeries(std::size_t capacity);

  void add(dag::Steps step, double value);

  struct Point {
    dag::Steps step = 0;
    double value = 0.0;
  };
  const std::vector<Point>& points() const { return points_; }
  dag::Steps stride() const { return stride_; }

  /// [{"step":...,"value":...}, ...] in step order.
  util::Json to_json() const;

 private:
  std::vector<Point> points_;
  std::size_t capacity_;
  dag::Steps stride_ = 1;
  dag::Steps observed_ = 0;
};

/// Knobs of the statistics layer.
struct OnlineStatsConfig {
  std::size_t reservoir_capacity = 4096;
  std::size_t series_capacity = 512;
  /// Seed of the reservoirs' private replacement streams.
  std::uint64_t seed = 0;
};

/// The per-run folding accumulator the streaming driver retires jobs into.
class OnlineStats {
 public:
  explicit OnlineStats(const OnlineStatsConfig& config = {});

  /// Folds one completed job: response = completion - release; slowdown =
  /// response / max(1, critical_path) (critical path = the job's minimum
  /// possible running time on unbounded processors).
  void record_completion(dag::Steps release, dag::Steps completion,
                         dag::Steps critical_path, dag::TaskCount work,
                         dag::TaskCount waste);

  /// Samples the jobs-in-system count at a quantum boundary.
  void record_queue_depth(dag::Steps step, std::int64_t in_system);

  /// Completed jobs folded in.
  std::int64_t completed() const { return completed_; }

  dag::TaskCount total_work() const { return total_work_; }
  dag::TaskCount total_waste() const { return total_waste_; }

  const util::RunningStats& response() const { return response_; }
  const util::RunningStats& slowdown() const { return slowdown_; }
  const util::RunningStats& queue_depth() const { return queue_depth_; }

  double response_quantile(double q) const {
    return response_sample_.quantile(q);
  }
  double slowdown_quantile(double q) const {
    return slowdown_sample_.quantile(q);
  }
  double queue_depth_quantile(double q) const {
    return queue_sample_.quantile(q);
  }

  const DownsampledSeries& queue_series() const { return queue_series_; }

  /// Deterministic summary object (used by abg_sim's --open report).
  util::Json to_json() const;

 private:
  std::int64_t completed_ = 0;
  dag::TaskCount total_work_ = 0;
  dag::TaskCount total_waste_ = 0;
  util::RunningStats response_;
  util::RunningStats slowdown_;
  util::RunningStats queue_depth_;
  Reservoir response_sample_;
  Reservoir slowdown_sample_;
  Reservoir queue_sample_;
  DownsampledSeries queue_series_;
};

}  // namespace abg::open
