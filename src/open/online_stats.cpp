#include "open/online_stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace abg::open {

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  if (capacity_ == 0) {
    throw std::invalid_argument("Reservoir: capacity must be >= 1");
  }
  samples_.reserve(capacity_);
}

void Reservoir::add(double value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // Algorithm R: the new value replaces a uniformly chosen slot with
  // probability capacity / seen, keeping the retained set a uniform
  // sample of everything observed.
  const std::int64_t slot = rng_.uniform_int(0, seen_ - 1);
  if (slot < static_cast<std::int64_t>(capacity_)) {
    samples_[static_cast<std::size_t>(slot)] = value;
  }
}

double Reservoir::quantile(double q) const {
  return util::quantile(samples_, q);
}

DownsampledSeries::DownsampledSeries(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity_ < 2) {
    throw std::invalid_argument("DownsampledSeries: capacity must be >= 2");
  }
  points_.reserve(capacity_);
}

void DownsampledSeries::add(dag::Steps step, double value) {
  const dag::Steps index = observed_++;
  if (index % stride_ != 0) {
    return;
  }
  if (points_.size() == capacity_) {
    // Compact: keep every other retained point and double the stride, so
    // the series always spans [first observation, now].
    std::size_t kept = 0;
    for (std::size_t i = 0; i < points_.size(); i += 2) {
      points_[kept++] = points_[i];
    }
    points_.resize(kept);
    stride_ *= 2;
    if (index % stride_ != 0) {
      return;
    }
  }
  points_.push_back(Point{step, value});
}

util::Json DownsampledSeries::to_json() const {
  util::Json series = util::Json::array();
  for (const Point& p : points_) {
    series.push(util::Json::object()
                    .set("step", util::Json::integer(p.step))
                    .set("value", util::Json::number(p.value)));
  }
  return series;
}

namespace {

/// Reservoir seeds are derived per role so the three sample streams stay
/// independent under one user-facing seed.
enum ReservoirRole : std::uint64_t {
  kResponseRole = 1,
  kSlowdownRole = 2,
  kQueueRole = 3,
};

}  // namespace

OnlineStats::OnlineStats(const OnlineStatsConfig& config)
    : response_sample_(config.reservoir_capacity,
                       util::Rng::derive_seed(config.seed, kResponseRole)),
      slowdown_sample_(config.reservoir_capacity,
                       util::Rng::derive_seed(config.seed, kSlowdownRole)),
      queue_sample_(config.reservoir_capacity,
                    util::Rng::derive_seed(config.seed, kQueueRole)),
      queue_series_(config.series_capacity) {}

void OnlineStats::record_completion(dag::Steps release,
                                    dag::Steps completion,
                                    dag::Steps critical_path,
                                    dag::TaskCount work,
                                    dag::TaskCount waste) {
  if (completion < release) {
    throw std::invalid_argument(
        "OnlineStats: completion precedes release");
  }
  ++completed_;
  total_work_ += work;
  total_waste_ += waste;
  const auto response = static_cast<double>(completion - release);
  const double ideal =
      static_cast<double>(std::max<dag::Steps>(1, critical_path));
  response_.add(response);
  response_sample_.add(response);
  const double slowdown = response / ideal;
  slowdown_.add(slowdown);
  slowdown_sample_.add(slowdown);
}

void OnlineStats::record_queue_depth(dag::Steps step,
                                     std::int64_t in_system) {
  const auto depth = static_cast<double>(in_system);
  queue_depth_.add(depth);
  queue_sample_.add(depth);
  queue_series_.add(step, depth);
}

namespace {

util::Json distribution_json(const util::RunningStats& stats,
                             const Reservoir& sample) {
  return util::Json::object()
      .set("mean", util::Json::number(stats.mean()))
      .set("max", util::Json::number(stats.count() > 0 ? stats.max() : 0.0))
      .set("p50", util::Json::number(sample.quantile(0.50)))
      .set("p95", util::Json::number(sample.quantile(0.95)))
      .set("p99", util::Json::number(sample.quantile(0.99)));
}

}  // namespace

util::Json OnlineStats::to_json() const {
  util::Json j = util::Json::object();
  j.set("completed", util::Json::integer(completed_))
      .set("total_work",
           util::Json::integer(static_cast<std::int64_t>(total_work_)))
      .set("total_waste",
           util::Json::integer(static_cast<std::int64_t>(total_waste_)))
      .set("response", distribution_json(response_, response_sample_))
      .set("slowdown", distribution_json(slowdown_, slowdown_sample_))
      .set("queue_depth", distribution_json(queue_depth_, queue_sample_))
      .set("queue_series", queue_series_.to_json());
  return j;
}

}  // namespace abg::open
