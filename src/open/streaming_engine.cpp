#include "open/streaming_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dag/profile_job.hpp"
#include "obs/event_bus.hpp"
#include "sim/quantum_engine.hpp"
#include "sim/quantum_eval.hpp"
#include "workload/profiles.hpp"

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

/// One recyclable runtime slot.  The pool never exceeds max_active slots;
/// a slot's job DAG is destroyed the moment the job completes and the
/// request-policy clone is reset for the next tenant instead of re-cloned.
struct Slot {
  std::unique_ptr<dag::Job> job;
  std::unique_ptr<sched::RequestPolicy> request;
  /// Global arrival index of the current tenant (-1 when free).
  std::int64_t index = -1;
  dag::Steps release = 0;
  dag::TaskCount waste = 0;
  int desire = 0;
  int previous_allotment = 0;
  std::int64_t local_quantum = 0;
  bool active = false;
};

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

void publish_departure(obs::EventBus* bus, std::int64_t job,
                       dag::Steps completion, dag::Steps response,
                       dag::TaskCount work, std::int64_t in_system) {
  obs::Event e;
  e.kind = obs::EventKind::kOpenDeparture;
  e.step = completion;
  e.job = job;
  e.response = response;
  e.work = work;
  e.in_system = in_system;
  bus->publish(e);
}

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
    return std::make_unique<dag::ProfileJob>(workload::square_wave_profile(
        1, serial_levels, scaled_width, parallel_levels, periods));
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

  std::vector<Slot> slots;
  slots.reserve(max_active);
  std::vector<std::size_t> free_slots;
  std::deque<Pending> backlog;
  std::vector<int> requests;
  std::vector<std::size_t> active_idx;
  std::vector<std::pair<std::size_t, sched::QuantumStats>> feedback;

  std::int64_t generated = 0;
  bool have_peek = false;
  Arrival peek;
  dag::Steps latest_release = 0;
  dag::TaskCount admitted_work = 0;
  std::size_t active_count = 0;
  dag::Steps now = 0;

  auto in_system = [&]() {
    return static_cast<std::int64_t>(active_count + backlog.size());
  };

  // Folds a finished job into the statistics and recycles its slot.
  auto retire = [&](std::size_t slot_index, dag::Steps completion) {
    Slot& slot = slots[slot_index];
    const dag::TaskCount work = slot.job->completed_work();
    result.stats.record_completion(slot.release, completion,
                                   slot.job->critical_path(), work,
                                   slot.waste);
    result.total_work += work;
    result.total_waste += slot.waste;
    result.makespan = std::max(result.makespan, completion);
    ++result.completed;
    const std::int64_t job_index = slot.index;
    const dag::Steps response = completion - slot.release;
    slot.job.reset();
    slot.active = false;
    slot.index = -1;
    --active_count;
    free_slots.push_back(slot_index);
    if (bus != nullptr) {
      obs::Event e;
      e.kind = obs::EventKind::kJobComplete;
      e.step = completion;
      e.job = job_index;
      bus->publish(e);
      publish_departure(bus, job_index, completion, response, work,
                        in_system());
    }
  };

  while (result.completed < config.jobs_total) {
    util::throw_if_cancelled(config.cancel, "run_stream");

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
    while (active_count < max_active && !backlog.empty()) {
      const Pending pending = backlog.front();
      backlog.pop_front();
      std::size_t slot_index;
      if (!free_slots.empty()) {
        slot_index = free_slots.back();
        free_slots.pop_back();
      } else {
        slot_index = slots.size();
        slots.emplace_back();
        slots[slot_index].request = request_prototype.clone();
      }
      Slot& slot = slots[slot_index];
      util::Rng job_rng = util::Rng::derive(
          job_seed_base, static_cast<std::uint64_t>(pending.index));
      slot.job =
          factory(job_rng, Arrival{pending.release, pending.work_scale});
      if (slot.job == nullptr) {
        throw std::logic_error("run_stream: job factory returned null");
      }
      slot.index = pending.index;
      slot.release = pending.release;
      slot.waste = 0;
      slot.previous_allotment = 0;
      slot.local_quantum = 0;
      slot.request->reset();
      slot.desire = slot.request->first_request();
      slot.active = true;
      ++active_count;
      ++result.admitted;
      admitted_work += slot.job->total_work();
      if (bus != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::kJobAdmit;
        e.step = now;
        e.job = pending.index;
        e.desire = slot.desire;
        bus->publish(e);
      }
      if (slot.job->finished()) {
        // A zero-work job completes the instant it is admitted.
        retire(slot_index, now);
      }
    }

    // Incremental safety bound: grows with the work the stream has
    // admitted, mirroring the closed engines' derived bound.
    const dag::Steps bound =
        config.max_steps > 0
            ? config.max_steps
            : latest_release + 8 * admitted_work + 64 * length;

    if (active_count == 0) {
      if (result.completed == config.jobs_total) {
        break;
      }
      // Nothing in the system but arrivals remain: idle-skip whole quanta
      // to the next release.
      const dag::Steps next_release = have_peek ? peek.release : bound;
      const dag::Steps gap = next_release > now ? next_release - now : 0;
      now += std::max<dag::Steps>(1, gap / length) * length;
      if (now >= bound) {
        throw std::runtime_error("run_stream: exceeded step bound");
      }
      continue;
    }

    result.stats.record_queue_depth(now, in_system());

    ++result.quanta;
    requests.assign(slots.size(), 0);
    active_idx.clear();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].active) {
        requests[i] = slots[i].desire;
        active_idx.push_back(i);
      }
    }
    const int pool = allocator.pool(config.processors);
    std::vector<int> allotments;
    if (allocator.size_aware()) {
      std::vector<double> remaining(slots.size(), 0.0);
      for (const std::size_t i : active_idx) {
        remaining[i] = static_cast<double>(slots[i].job->total_work() -
                                           slots[i].job->completed_work());
      }
      allotments =
          allocator.allocate_sized(requests, remaining, config.processors);
    } else {
      allotments = allocator.allocate(requests, config.processors);
    }
    int assigned = 0;
    for (const int a : allotments) {
      assigned += a;
    }
    const int leftover = std::max(0, pool - assigned);
    if (bus != nullptr) {
      obs::Event e;
      e.kind = obs::EventKind::kAllocation;
      e.step = now;
      e.pool = pool;
      e.assigned = assigned;
      e.active_jobs = static_cast<std::int64_t>(active_idx.size());
      bus->publish(e);
    }

    feedback.clear();
    for (const std::size_t i : active_idx) {
      Slot& slot = slots[i];
      const int allotment = allotments[i];
      ++slot.local_quantum;
      const dag::Steps penalty = sim::reallocation_penalty(
          slot.previous_allotment, allotment,
          config.reallocation_cost_per_proc, length);
      slot.previous_allotment = allotment;
      const sched::QuantumStats stats = sim::quantum_eval::run_allotted_quantum(
          *slot.job, execution, slot.local_quantum, slot.desire, allotment,
          length, penalty, leftover, now);
      slot.waste += stats.waste();
      if (bus != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::kQuantum;
        e.step = stats.start_step;
        e.job = slot.index;
        e.stats = &stats;
        bus->publish(e);
      }
      if (stats.finished) {
        retire(i, now + stats.steps_used);
      } else {
        feedback.emplace_back(i, stats);
      }
    }

    now += length;
    if (result.completed < config.jobs_total && now >= bound) {
      throw std::runtime_error(
          "run_stream: exceeded step bound; open stream is not making "
          "progress");
    }
    // Quantum-boundary feedback, deferred past the bound check like the
    // closed engines so a stalled run throws before touching the request
    // policies again.
    for (const auto& [slot_index, stats] : feedback) {
      Slot& slot = slots[slot_index];
      slot.desire = slot.request->next_request(stats);
    }
  }

  if (bus != nullptr) {
    obs::Event summary;
    summary.kind = obs::EventKind::kOpenSummary;
    summary.step = result.makespan;
    summary.open_admitted = result.admitted;
    summary.open_completed = result.completed;
    summary.open_high_water = result.in_system_high_water;
    summary.open_stats_merges = result.stats.merges();
    bus->publish(summary);
    obs::Event end;
    end.kind = obs::EventKind::kRunEnd;
    end.step = result.makespan;
    end.makespan = result.makespan;
    bus->publish(end);
  }
  return result;
}

}  // namespace abg::open
