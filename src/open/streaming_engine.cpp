#include "open/streaming_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dag/profile_job.hpp"
#include "obs/event_bus.hpp"
#include "sim/engine_core.hpp"

namespace abg::open {

namespace {

/// Derived-stream roles of the run seed.  Job streams live under their own
/// derived base so a job index can never collide with a role index.
enum StreamRole : std::uint64_t {
  kArrivalStream = 1,
  kCalibrationStream = 2,
  kStatsSeed = 3,
  kJobSeedBase = 4,
};

/// Mean of the work_scale distribution the arrival process attaches to
/// jobs — 1 except for heavy-tail arrivals, whose bounded-Pareto sizes
/// inflate the offered load and must inflate the calibrated gap with it.
double mean_work_scale(ArrivalKind kind, const ArrivalConfig& config) {
  if (kind != ArrivalKind::kHeavyTail || config.tail_cap <= 1.0) {
    return 1.0;
  }
  const double a = config.tail_alpha;
  const double cap = config.tail_cap;
  if (a == 1.0) {
    return std::log(cap) / (1.0 - 1.0 / cap);
  }
  // Bounded Pareto on [1, cap]: E = a/(a-1) * (1 - cap^(1-a))/(1 - cap^-a).
  return a / (a - 1.0) * (1.0 - std::pow(cap, 1.0 - a)) /
         (1.0 - std::pow(cap, -a));
}

/// A released arrival waiting for admission (the backlog element).
struct Pending {
  dag::Steps release = 0;
  double work_scale = 1.0;
  std::int64_t index = 0;
};

void publish_arrival(obs::EventBus* bus, const Pending& pending,
                     std::int64_t in_system) {
  obs::Event e;
  e.kind = obs::EventKind::kOpenArrival;
  e.step = pending.release;
  e.job = pending.index;
  e.in_system = in_system;
  bus->publish(e);
}

/// Passes the loop's events on to the run's bus and follows each
/// kJobComplete with the job's kOpenDeparture, so a departure is published
/// exactly where its job leaves the loop.
class DepartureTap final : public obs::Sink {
 public:
  DepartureTap(obs::EventBus* out, const std::deque<Pending>& backlog)
      : out_(out), backlog_(&backlog) {}

  /// The loop whose completions are followed; set once it is built.
  const sim::QuantumLoop* loop = nullptr;

  void on_event(const obs::Event& event) override {
    out_->publish(event);
    if (event.kind != obs::EventKind::kJobComplete) {
      return;
    }
    const sim::JobBatch& slots = loop->batch;
    const auto slot = static_cast<std::size_t>(
        std::find(slots.id.begin(), slots.id.end(), event.job) -
        slots.id.begin());
    const sim::JobRuntime& tenant = slots.jobs[slot];
    obs::Event e;
    e.kind = obs::EventKind::kOpenDeparture;
    e.step = event.step;
    e.job = event.job;
    e.response = event.step - tenant.trace.release_step;
    e.work = tenant.job->completed_work();
    e.in_system =
        static_cast<std::int64_t>(loop->remaining + backlog_->size());
    out_->publish(e);
  }

 private:
  obs::EventBus* out_;
  const std::deque<Pending>* backlog_;
};

}  // namespace

JobFactory default_open_job_factory(dag::Steps quantum_length) {
  if (quantum_length < 1) {
    throw std::invalid_argument(
        "default_open_job_factory: quantum_length must be >= 1");
  }
  const dag::Steps length = quantum_length;
  return [length](util::Rng& rng,
                  const Arrival& arrival) -> std::unique_ptr<dag::Job> {
    // Fork-join square waves with phase lengths drawn as fractions of the
    // quantum, so the stream mixes sub-quantum and multi-quantum jobs at
    // any L.  The arrival's work_scale widens the parallel phases.
    const dag::Steps lo = length / 16 + 1;
    const dag::Steps hi = length / 4 + 1;
    const dag::Steps serial_levels = rng.uniform_int(lo, hi);
    const dag::Steps parallel_levels = rng.uniform_int(lo, hi);
    const dag::TaskCount width = rng.uniform_int(2, 16);
    const auto periods = static_cast<int>(rng.uniform_int(1, 4));
    const double scale = std::clamp(arrival.work_scale, 1.0 / 16.0, 1024.0);
    const auto scaled_width = std::max<dag::TaskCount>(
        1, static_cast<dag::TaskCount>(
               std::round(static_cast<double>(width) * scale)));
    std::vector<dag::LevelRun> runs;
    runs.reserve(2 * static_cast<std::size_t>(periods));
    for (int p = 0; p < periods; ++p) {
      runs.push_back({1, serial_levels});
      runs.push_back({scaled_width, parallel_levels});
    }
    return std::make_unique<dag::ProfileJob>(
        dag::ProfileJob::from_runs(std::move(runs)));
  };
}

double calibrate_mean_work(const JobFactory& factory, std::uint64_t seed,
                           int samples) {
  if (!factory) {
    throw std::invalid_argument("calibrate_mean_work: null job factory");
  }
  if (samples < 1) {
    throw std::invalid_argument("calibrate_mean_work: samples must be >= 1");
  }
  util::Rng rng = util::Rng::derive(seed, kCalibrationStream);
  const Arrival probe;  // release 0, work_scale 1
  double sum = 0.0;
  for (int i = 0; i < samples; ++i) {
    const std::unique_ptr<dag::Job> job = factory(rng, probe);
    if (job == nullptr) {
      throw std::logic_error("calibrate_mean_work: factory returned null");
    }
    sum += static_cast<double>(job->total_work());
  }
  return sum / static_cast<double>(samples);
}

OpenResult run_stream(const sched::ExecutionPolicy& execution,
                      const sched::RequestPolicy& request_prototype,
                      const JobFactory& factory, alloc::Allocator& allocator,
                      const OpenConfig& config, std::uint64_t seed) {
  sim::check_machine(config.processors, config.quantum_length, "run_stream");
  if (config.jobs_total < 1) {
    throw std::invalid_argument("run_stream: jobs_total must be >= 1");
  }
  if (!(config.load >= 0.0) || config.load > 1024.0) {
    throw std::invalid_argument("run_stream: load must be in [0, 1024]");
  }
  if (!factory) {
    throw std::invalid_argument("run_stream: null job factory");
  }
  const std::size_t max_active =
      config.max_active > 0 ? config.max_active
                            : static_cast<std::size_t>(config.processors);
  const dag::Steps length = config.quantum_length;

  // Resolve the arrival process; under a load target, calibrate the mean
  // gap so rho = (mean job work) / (mean gap * P) hits it.
  ArrivalConfig arrivals = config.arrivals;
  std::unique_ptr<ArrivalProcess> process;
  double used_gap = 0.0;
  if (config.arrival == ArrivalKind::kNone) {
    throw std::invalid_argument("run_stream: arrival kind must be set");
  }
  if (config.arrival == ArrivalKind::kTrace) {
    if (config.trace_path.empty()) {
      throw std::invalid_argument(
          "run_stream: trace arrivals need a trace_path");
    }
    process = make_trace_arrivals(load_arrival_trace(config.trace_path));
  } else {
    if (config.load > 0.0) {
      const double mean_work = calibrate_mean_work(factory, seed);
      const double scale = mean_work_scale(config.arrival, arrivals);
      arrivals.mean_gap = std::clamp(
          mean_work * scale /
              (config.load * static_cast<double>(config.processors)),
          1.0, 1e12);
    }
    process = make_arrival_process(config.arrival, arrivals);
    used_gap = arrivals.mean_gap;
  }

  util::Rng arrival_rng = util::Rng::derive(seed, kArrivalStream);
  const std::uint64_t job_seed_base =
      util::Rng::derive_seed(seed, kJobSeedBase);

  OpenResult result;
  result.mean_gap = used_gap;
  OnlineStatsConfig stats_config;
  stats_config.reservoir_capacity = config.reservoir_capacity;
  stats_config.series_capacity = config.series_capacity;
  stats_config.seed = util::Rng::derive_seed(seed, kStatsSeed);
  result.stats = OnlineStats(stats_config);

  obs::EventBus* const bus =
      config.bus != nullptr && config.bus->active() ? config.bus : nullptr;
  if (bus != nullptr) {
    obs::Event start;
    start.kind = obs::EventKind::kRunStart;
    start.processors = config.processors;
    start.quantum_length = length;
    start.job_count = config.jobs_total;
    bus->publish(start);
  }

  // The loop's batch is the slot pool: at most max_active slots, appended
  // on demand and refilled in place.  The driver polls cancellation and
  // checks its own growing safety bound, so the loop gets neither.
  std::deque<Pending> backlog;
  std::vector<std::size_t> free_slots;
  sim::CoreConfig core;
  core.context = "run_stream";
  core.processors = config.processors;
  core.quantum_length = length;
  core.max_steps = std::numeric_limits<dag::Steps>::max();
  core.max_active = max_active;
  core.reallocation_cost_per_proc = config.reallocation_cost_per_proc;
  obs::EventBus loop_bus;
  DepartureTap tap(bus, backlog);
  if (bus != nullptr) {
    loop_bus.subscribe(&tap);
    core.bus = &loop_bus;
  }
  sim::QuantumLoop loop(sim::JobBatch{}, 0, execution, allocator, core);
  tap.loop = &loop;
  sim::JobBatch& slots = loop.batch;

  std::int64_t generated = 0;
  bool have_peek = false;
  Arrival peek;
  dag::Steps latest_release = 0;
  dag::TaskCount admitted_work = 0;

  auto in_system = [&]() {
    return static_cast<std::int64_t>(loop.remaining + backlog.size());
  };

  // Folds a finished job into the statistics, frees its DAG and recycles
  // its slot.
  auto retire = [&](std::size_t slot) {
    sim::JobRuntime& tenant = slots.jobs[slot];
    const sim::JobTrace& trace = tenant.trace;
    const dag::TaskCount work = tenant.job->completed_work();
    const dag::TaskCount waste = trace.total_waste();
    result.stats.record_completion(trace.release_step, trace.completion_step,
                                   trace.critical_path, work, waste);
    result.total_work += work;
    result.total_waste += waste;
    result.makespan = std::max(result.makespan, trace.completion_step);
    ++result.completed;
    tenant.owned_job.reset();
    tenant.job = nullptr;
    free_slots.push_back(slot);
  };

  while (result.completed < config.jobs_total) {
    util::throw_if_cancelled(config.cancel, "run_stream");
    const dag::Steps now = loop.now;

    // Materialize every arrival released by this boundary.  Only one
    // undrawn arrival is ever peeked ahead, so memory tracks the backlog,
    // not the horizon.
    while (generated < config.jobs_total) {
      if (!have_peek) {
        peek = process->next(arrival_rng);
        have_peek = true;
      }
      if (peek.release > now) {
        break;
      }
      backlog.push_back(Pending{peek.release, peek.work_scale, generated});
      latest_release = std::max(latest_release, peek.release);
      ++generated;
      have_peek = false;
      result.in_system_high_water =
          std::max(result.in_system_high_water, in_system());
      if (bus != nullptr) {
        publish_arrival(bus, backlog.back(), in_system());
      }
    }

    // FCFS admission into recycled slots, up to the cap.  The backlog is
    // release-ordered because arrival streams are monotone.
    while (loop.remaining < max_active && !backlog.empty()) {
      const Pending pending = backlog.front();
      backlog.pop_front();
      std::size_t slot = slots.size();
      if (!free_slots.empty()) {
        slot = free_slots.back();
        free_slots.pop_back();
      }
      util::Rng job_rng = util::Rng::derive(
          job_seed_base, static_cast<std::uint64_t>(pending.index));
      std::unique_ptr<dag::Job> job =
          factory(job_rng, Arrival{pending.release, pending.work_scale});
      if (job == nullptr) {
        throw std::logic_error("run_stream: job factory returned null");
      }
      ++result.admitted;
      admitted_work += job->total_work();
      loop.refill(slot, std::move(job), pending.index, pending.release,
                  request_prototype);
      if (slots.done(slot)) {
        retire(slot);  // a job with no work finishes as it enters
      }
    }

    // Incremental safety bound: grows with the work the stream has
    // admitted, mirroring the closed engines' derived bound.
    const dag::Steps bound =
        config.max_steps > 0
            ? config.max_steps
            : latest_release + 8 * admitted_work + 64 * length;

    if (loop.remaining == 0) {
      if (result.completed == config.jobs_total) {
        break;
      }
      // Nothing in the system but arrivals remain: idle-skip whole quanta
      // to the next release.
      const dag::Steps next_release = have_peek ? peek.release : bound;
      const dag::Steps gap = next_release > now ? next_release - now : 0;
      loop.now += std::max<dag::Steps>(1, gap / length) * length;
      if (loop.now >= bound) {
        throw std::runtime_error("run_stream: exceeded step bound");
      }
      continue;
    }

    result.stats.record_queue_depth(now, in_system());
    const std::size_t running = loop.remaining;
    loop.advance(now + length, config.processors);
    if (loop.remaining < running) {
      for (std::size_t slot = 0; slot < slots.size(); ++slot) {
        if (slots.done(slot) && slots.jobs[slot].job != nullptr) {
          retire(slot);
        }
      }
    }
    if (result.completed < config.jobs_total && loop.now >= bound) {
      throw std::runtime_error(
          "run_stream: exceeded step bound; open stream is not making "
          "progress");
    }
  }
  result.quanta = loop.quanta;

  if (bus != nullptr) {
    obs::Event summary;
    summary.kind = obs::EventKind::kOpenSummary;
    summary.step = result.makespan;
    summary.open_admitted = result.admitted;
    summary.open_completed = result.completed;
    summary.open_high_water = result.in_system_high_water;
    bus->publish(summary);
  }
  sim::publish_run_end(bus, result.makespan);
  return result;
}

}  // namespace abg::open
