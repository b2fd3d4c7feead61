#include "open/arrival_process.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace abg::open {

namespace {

/// Largest mean gap the geometric truncation bound (mean * 64 + 64) can
/// represent without overflowing dag::Steps — the same cast-safety rule
/// workload::poisson_releases enforces.
constexpr double kMaxMeanGap = 1e12;

void validate_mean_gap(double mean_gap, const char* context) {
  if (!(mean_gap >= 1.0) || !(mean_gap <= kMaxMeanGap)) {
    throw std::invalid_argument(
        std::string(context) +
        ": mean_gap must be in [1, 1e12] steps (gaps are whole steps; "
        "sub-step means degenerate to batched release)");
  }
}

/// Geometric inter-arrival gap with the given mean, truncated far into
/// the tail so a single draw cannot stall the stream.
dag::Steps geometric_gap(util::Rng& rng, double mean) {
  const double p = 1.0 / (1.0 + mean);
  return rng.geometric(p, static_cast<dag::Steps>(mean * 64.0) + 64);
}

class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(const ArrivalConfig& config)
      : mean_gap_(config.mean_gap) {
    validate_mean_gap(mean_gap_, "PoissonArrivals");
  }

  Arrival next(util::Rng& rng) override {
    const Arrival arrival{now_, 1.0};
    now_ += geometric_gap(rng, mean_gap_);
    return arrival;
  }

  void reset() override { now_ = 0; }
  std::string_view name() const override { return "poisson"; }

 private:
  double mean_gap_;
  dag::Steps now_ = 0;
};

class MmppArrivals final : public ArrivalProcess {
 public:
  explicit MmppArrivals(const ArrivalConfig& config)
      : mean_gap_(config.mean_gap),
        switch_probability_(config.switch_probability) {
    validate_mean_gap(mean_gap_, "MmppArrivals");
    if (!(config.burst_factor >= 1.0)) {
      throw std::invalid_argument("MmppArrivals: burst_factor must be >= 1");
    }
    if (!(switch_probability_ > 0.0) || !(switch_probability_ <= 1.0)) {
      throw std::invalid_argument(
          "MmppArrivals: switch_probability must be in (0, 1]");
    }
    // Regime gap factors averaging to 1 under the symmetric switch
    // chain's 50/50 stationary distribution, so the long-run mean gap is
    // mean_gap for any burst factor.
    burst_gap_ = mean_gap_ / config.burst_factor;
    calm_gap_ = mean_gap_ * (2.0 - 1.0 / config.burst_factor);
  }

  Arrival next(util::Rng& rng) override {
    const Arrival arrival{now_, 1.0};
    now_ += geometric_gap(rng, bursting_ ? burst_gap_ : calm_gap_);
    if (rng.bernoulli(switch_probability_)) {
      bursting_ = !bursting_;
    }
    return arrival;
  }

  void reset() override {
    now_ = 0;
    bursting_ = true;
  }

  std::string_view name() const override { return "mmpp"; }

 private:
  double mean_gap_;
  double switch_probability_;
  double burst_gap_ = 0.0;
  double calm_gap_ = 0.0;
  dag::Steps now_ = 0;
  /// Starts in the burst regime (deterministic; reset() restores it).
  bool bursting_ = true;
};

class DiurnalArrivals final : public ArrivalProcess {
 public:
  explicit DiurnalArrivals(const ArrivalConfig& config)
      : mean_gap_(config.mean_gap), amplitude_(config.amplitude) {
    validate_mean_gap(mean_gap_, "DiurnalArrivals");
    if (!(amplitude_ >= 0.0) || !(amplitude_ < 1.0)) {
      throw std::invalid_argument(
          "DiurnalArrivals: amplitude must be in [0, 1)");
    }
    period_ = config.period > 0
                  ? config.period
                  : static_cast<dag::Steps>(64.0 * mean_gap_);
    if (period_ < 2) {
      throw std::invalid_argument("DiurnalArrivals: period must be >= 2");
    }
  }

  Arrival next(util::Rng& rng) override {
    const Arrival arrival{now_, 1.0};
    // Triangle wave in [-1, 1] over the period: exact integer arithmetic,
    // so the modulation factor is bit-identical on every platform.
    const dag::Steps phase = now_ % period_;
    const dag::Steps half = period_ / 2;
    const double tri =
        phase < half
            ? -1.0 + 2.0 * static_cast<double>(phase) /
                         static_cast<double>(half)
            : 1.0 - 2.0 * static_cast<double>(phase - half) /
                        static_cast<double>(period_ - half);
    const double gap_mean = mean_gap_ * (1.0 + amplitude_ * tri);
    now_ += geometric_gap(rng, std::max(1.0, gap_mean));
    return arrival;
  }

  void reset() override { now_ = 0; }
  std::string_view name() const override { return "diurnal"; }

 private:
  double mean_gap_;
  double amplitude_;
  dag::Steps period_ = 0;
  dag::Steps now_ = 0;
};

class HeavyTailArrivals final : public ArrivalProcess {
 public:
  explicit HeavyTailArrivals(const ArrivalConfig& config)
      : mean_gap_(config.mean_gap),
        alpha_(config.tail_alpha),
        cap_(config.tail_cap) {
    validate_mean_gap(mean_gap_, "HeavyTailArrivals");
    if (!(alpha_ > 0.0)) {
      throw std::invalid_argument(
          "HeavyTailArrivals: tail_alpha must be > 0");
    }
    if (!(cap_ >= 1.0)) {
      throw std::invalid_argument("HeavyTailArrivals: tail_cap must be >= 1");
    }
  }

  Arrival next(util::Rng& rng) override {
    // Bounded Pareto on [1, cap] by inverse CDF.
    const double u = rng.uniform01();
    const double cap_term = std::pow(cap_, -alpha_);
    const double scale =
        std::pow(1.0 - u * (1.0 - cap_term), -1.0 / alpha_);
    const Arrival arrival{now_, std::min(scale, cap_)};
    now_ += geometric_gap(rng, mean_gap_);
    return arrival;
  }

  void reset() override { now_ = 0; }
  std::string_view name() const override { return "heavytail"; }

 private:
  double mean_gap_;
  double alpha_;
  double cap_;
  dag::Steps now_ = 0;
};

class TraceArrivals final : public ArrivalProcess {
 public:
  explicit TraceArrivals(std::vector<Arrival> entries)
      : entries_(std::move(entries)) {
    if (entries_.empty()) {
      throw std::invalid_argument("TraceArrivals: trace is empty");
    }
    dag::Steps previous = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Arrival& a = entries_[i];
      if (a.release < 0) {
        throw std::invalid_argument(
            "TraceArrivals: negative release at entry " + std::to_string(i));
      }
      if (a.release < previous) {
        throw std::invalid_argument(
            "TraceArrivals: releases must be monotone non-decreasing "
            "(entry " +
            std::to_string(i) + ")");
      }
      if (!(a.work_scale > 0.0 && a.work_scale <= 1e9)) {  // NaN fails too
        throw std::invalid_argument(
            "TraceArrivals: work_scale must be in (0, 1e9] at entry " +
            std::to_string(i));
      }
      previous = a.release;
    }
    // Tiling stride: span of the trace plus its mean gap (>= 1), so a
    // repeated trace keeps strictly increasing release steps.
    const dag::Steps span = entries_.back().release;
    const dag::Steps mean_gap =
        span / static_cast<dag::Steps>(entries_.size());
    stride_ = span + std::max<dag::Steps>(1, mean_gap);
  }

  Arrival next(util::Rng& /*rng*/) override {
    Arrival arrival = entries_[cursor_];
    arrival.release += offset_;
    if (++cursor_ == entries_.size()) {
      cursor_ = 0;
      offset_ += stride_;
    }
    return arrival;
  }

  void reset() override {
    cursor_ = 0;
    offset_ = 0;
  }

  std::string_view name() const override { return "trace"; }

 private:
  std::vector<Arrival> entries_;
  std::size_t cursor_ = 0;
  dag::Steps offset_ = 0;
  dag::Steps stride_ = 1;
};

}  // namespace

std::string to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kNone:
      return "none";
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kMmpp:
      return "mmpp";
    case ArrivalKind::kDiurnal:
      return "diurnal";
    case ArrivalKind::kHeavyTail:
      return "heavytail";
    case ArrivalKind::kTrace:
      return "trace";
  }
  return "none";
}

ArrivalKind arrival_kind_from_name(const std::string& name) {
  if (name == "none") {
    return ArrivalKind::kNone;
  }
  if (name == "poisson") {
    return ArrivalKind::kPoisson;
  }
  if (name == "mmpp") {
    return ArrivalKind::kMmpp;
  }
  if (name == "diurnal") {
    return ArrivalKind::kDiurnal;
  }
  if (name == "heavytail") {
    return ArrivalKind::kHeavyTail;
  }
  if (name == "trace") {
    return ArrivalKind::kTrace;
  }
  throw std::invalid_argument(
      "unknown arrival process '" + name +
      "' (expected none|poisson|mmpp|diurnal|heavytail|trace)");
}

std::unique_ptr<ArrivalProcess> make_arrival_process(
    ArrivalKind kind, const ArrivalConfig& config) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrivals>(config);
    case ArrivalKind::kMmpp:
      return std::make_unique<MmppArrivals>(config);
    case ArrivalKind::kDiurnal:
      return std::make_unique<DiurnalArrivals>(config);
    case ArrivalKind::kHeavyTail:
      return std::make_unique<HeavyTailArrivals>(config);
    case ArrivalKind::kTrace:
      throw std::invalid_argument(
          "make_arrival_process: build trace arrivals via "
          "make_trace_arrivals(load_arrival_trace(path))");
    case ArrivalKind::kNone:
      break;
  }
  throw std::invalid_argument(
      "make_arrival_process: kind 'none' names a closed run, not a "
      "generator");
}

std::unique_ptr<ArrivalProcess> make_trace_arrivals(
    std::vector<Arrival> entries) {
  return std::make_unique<TraceArrivals>(std::move(entries));
}

std::vector<Arrival> read_arrival_trace(std::istream& in) {
  std::vector<Arrival> entries;
  std::string line;
  std::size_t line_number = 0;
  dag::Steps previous = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    util::Json record = util::Json::null();
    try {
      record = util::Json::parse(line);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(line_number) + ": " +
                                  e.what());
    }
    if (!record.is_object()) {
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(line_number) +
                                  ": expected an object");
    }
    Arrival arrival;
    arrival.release = record.at("release").as_integer();
    const util::Json* scale = record.find("work_scale");
    arrival.work_scale = scale != nullptr ? scale->as_number() : 1.0;
    if (arrival.release < 0) {
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(line_number) +
                                  ": negative release");
    }
    if (arrival.release < previous) {
      throw std::invalid_argument(
          "arrival trace line " + std::to_string(line_number) +
          ": releases must be monotone non-decreasing");
    }
    previous = arrival.release;
    entries.push_back(arrival);
  }
  return entries;
}

std::vector<Arrival> load_arrival_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("arrival trace not readable: " + path);
  }
  return read_arrival_trace(in);
}

void write_arrival_trace(std::ostream& out,
                         const std::vector<Arrival>& entries) {
  for (const Arrival& a : entries) {
    util::Json record = util::Json::object();
    record.set("release", util::Json::integer(a.release));
    // The default scale is omitted so pure-timing traces stay minimal and
    // the round-trip through read_arrival_trace is exact either way.
    if (a.work_scale != 1.0) {
      record.set("work_scale", util::Json::number(a.work_scale));
    }
    record.write(out);
    out << '\n';
  }
}

}  // namespace abg::open
