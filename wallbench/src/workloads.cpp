#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <utility>

#include "alloc/equipartition.hpp"
#include "core/run.hpp"
#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "sim/validate.hpp"
#include "util/rng.hpp"
#include "workload/arrivals.hpp"
#include "workload/fork_join.hpp"
#include "workload/job_set.hpp"

namespace wallbench {

using namespace abg;

namespace {

using Clock = std::chrono::steady_clock;

/// The paper's machine: P = 128 processors, quantum length L = 1000.
constexpr int kProcessors = 128;
constexpr dag::Steps kQuantum = 1000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A closed job set: pristine jobs (cloned for every cell) and releases.
struct JobSet {
  std::vector<std::unique_ptr<dag::Job>> jobs;
  std::vector<dag::Steps> releases;
};

/// `njobs` fork-join jobs with transition factors log-uniform in
/// [8, 128] and two (serial, parallel) phase pairs of 250–1000 levels
/// each, released at a fixed gap that offers load 0.9 of `processors`.
JobSet make_staggered_set(std::uint64_t seed, int njobs, int processors,
                          SetupStats& stats) {
  const Clock::time_point start = Clock::now();
  util::Rng rng(seed);
  JobSet set;
  set.jobs.reserve(static_cast<std::size_t>(njobs));
  double total_work = 0.0;
  for (int i = 0; i < njobs; ++i) {
    workload::ForkJoinSpec spec;
    spec.transition_factor = rng.log_uniform(8.0, 128.0);
    spec.phase_pairs = 2;
    spec.min_phase_levels = 250;
    spec.max_phase_levels = 1000;
    set.jobs.push_back(workload::make_fork_join_job(rng, spec));
    total_work += static_cast<double>(set.jobs.back()->total_work());
    stats.levels += set.jobs.back()->critical_path();
  }
  const double mean_work = total_work / static_cast<double>(njobs);
  const auto gap = static_cast<dag::Steps>(
      std::max(1.0, std::round(mean_work / (0.9 * processors))));
  set.releases =
      workload::staggered_releases(static_cast<std::size_t>(njobs), gap);
  stats.generator_calls += njobs;
  stats.generator_seconds += seconds_since(start);
  return set;
}

/// How one closed cell runs.
struct ClosedCell {
  const core::SchedulerSpec* spec = nullptr;
  sim::SimConfig config;
  /// Processors the run's results are validated against.
  int total_processors = kProcessors;
  /// Pool-driven (sharded or cluster) cells measure process CPU as busy
  /// time; sharded cells also read the HierConfig hooks when traced.
  bool pooled = false;
};

void report_failure(std::string_view what, std::string_view detail) {
  std::cerr << "wallbench: FAILED " << what << ": " << detail << "\n";
}

/// Hash over every field of every job trace plus the aggregates: equal
/// hashes mean byte-identical results.
std::uint64_t result_hash(const sim::SimResult& result) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](auto value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(value));
    h = (h ^ word) * 1099511628211ull;
  };
  mix(result.makespan);
  mix(result.mean_response_time);
  mix(result.total_waste);
  mix(result.quanta);
  for (const sim::JobTrace& t : result.jobs) {
    mix(t.release_step);
    mix(t.completion_step);
    mix(t.work);
    mix(t.critical_path);
    for (const sched::QuantumStats& q : t.quanta) {
      mix(q.index);
      mix(q.start_step);
      mix(q.request);
      mix(q.allotment);
      mix(q.available);
      mix(q.length);
      mix(q.steps_used);
      mix(q.work);
      mix(q.cpl);
      mix(static_cast<int>(q.finished) | (static_cast<int>(q.full) << 1));
    }
  }
  return h;
}

/// Checks closed results cheaply enough to run on every cell: the first
/// result of each cell index is validated with sim::validate_result, and
/// every later run of that cell must reproduce it exactly (equal hash over
/// every job trace), so it is byte-identical to a validated result.
class ResultCheck {
 public:
  /// False (after reporting to stderr) when the check fails.
  bool check(std::size_t cell, const sim::SimResult& result,
             int processors) {
    const std::uint64_t hash = result_hash(result);
    if (cell >= hashes_.size()) {
      hashes_.resize(cell + 1);
    }
    if (hashes_[cell]) {
      if (hash == *hashes_[cell]) {
        return true;
      }
      report_failure("result check", "cell " + std::to_string(cell) +
                                         " differs from its validated run");
      return false;
    }
    hashes_[cell] = hash;
    const std::vector<std::string> issues =
        sim::validate_result(result, processors);
    if (!issues.empty()) {
      report_failure("validate_result",
                     "cell " + std::to_string(cell) + ": " + issues.front());
      return false;
    }
    return true;
  }

 private:
  std::vector<std::optional<std::uint64_t>> hashes_;
};

/// Runs one closed cell over fresh clones of `set`, folding it into
/// `pass`.  Tracing wraps every layer the engine calls back into.
void run_closed_cell(const JobSet& set, const ClosedCell& cell,
                     Recorder* recorder, ResultCheck& check, Pass& pass) {
  const auto index = static_cast<std::size_t>(pass.attempted);
  std::vector<sim::JobSubmission> submissions(set.jobs.size());
  for (std::size_t i = 0; i < set.jobs.size(); ++i) {
    submissions[i].job = set.jobs[i]->fresh_clone();
    if (recorder != nullptr) {
      submissions[i].job = std::make_unique<TracedJob>(
          std::move(submissions[i].job), *recorder);
    }
    submissions[i].release_step = set.releases[i];
  }

  sim::SimConfig config = cell.config;
  core::SchedulerSpec traced_spec;
  std::unique_ptr<alloc::Allocator> traced_allocator;
  obs::EventBus bus;
  std::optional<CountingSink> sink;
  obs::Profiler profiler;
  std::vector<double> worker_busy;
  if (recorder != nullptr) {
    traced_spec = cell.spec->copy();
    traced_spec.request = std::make_unique<TracedRequestPolicy>(
        std::move(traced_spec.request), *recorder);
    traced_allocator = std::make_unique<TracedAllocator>(
        std::make_unique<alloc::EquiPartition>(), *recorder);
    sink.emplace(*recorder);
    bus.subscribe(&*sink);
    config.obs.event_bus = &bus;
    if (config.hier.groups > 0) {
      config.hier.profiler = &profiler;
      config.hier.worker_busy_seconds = &worker_busy;
    }
  }
  const core::SchedulerSpec& spec =
      recorder != nullptr ? traced_spec : *cell.spec;

  ++pass.attempted;
  sim::SimResult result;
  const double cpu_start = cell.pooled ? process_cpu_seconds() : 0.0;
  const Clock::time_point start = Clock::now();
  try {
    std::optional<Recorder::Span> span;
    if (recorder != nullptr) {
      span.emplace(*recorder, Layer::kRun);
    }
    result = core::run_set(spec, std::move(submissions), config,
                           traced_allocator.get());
  } catch (const std::exception& e) {
    ++pass.failed;
    report_failure("run_set", e.what());
    return;
  }
  const double wall = seconds_since(start);
  pass.cell_seconds.push_back(wall);
  pass.seconds += wall;
  pass.busy_seconds += cell.pooled ? process_cpu_seconds() - cpu_start : wall;

  if (!check.check(index, result, cell.total_processors)) {
    ++pass.failed;
  }
  for (const sim::JobTrace& trace : result.jobs) {
    pass.jobs += trace.finished() ? 1 : 0;
    pass.job_quanta += static_cast<std::int64_t>(trace.quanta.size());
  }
  pass.digest.add(result.makespan, result.mean_response_time,
                  result.total_waste, result.quanta);
  if (config.hier.profiler != nullptr) {
    const obs::ProfileSpan rebalance = profiler.span("hier.rebalance");
    pass.rebalances += rebalance.items;
    pass.rebalance_seconds += rebalance.seconds;
    for (const double busy : worker_busy) {
      pass.pool_busy_seconds += busy;
    }
    pass.pool_capacity_seconds +=
        static_cast<double>(worker_busy.size()) * wall;
  }
}

/// fig6_sweep: the paper's Figure 6 experiment.  Job sets at nine loads,
/// each run under ABG and A-Greedy on the sync and the async engine.
class Fig6Sweep final : public Workload {
 public:
  SetupStats setup(std::uint64_t seed) override {
    SetupStats stats;
    sets_.clear();
    check_ = ResultCheck{};
    const Clock::time_point start = Clock::now();
    for (std::size_t li = 0; li < kLoads.size(); ++li) {
      for (int s = 0; s < kSetsPerLoad; ++s) {
        util::Rng rng = util::Rng::derive(
            seed, li * static_cast<std::size_t>(kSetsPerLoad) +
                      static_cast<std::size_t>(s));
        workload::JobSetSpec spec;
        spec.load = kLoads[li];
        spec.processors = kProcessors;
        spec.min_phase_levels = kQuantum / 2;
        spec.max_phase_levels = 2 * kQuantum;
        std::vector<workload::GeneratedJob> generated =
            workload::make_job_set(rng, spec);
        JobSet set;
        for (workload::GeneratedJob& g : generated) {
          stats.levels += g.job->critical_path();
          set.jobs.push_back(std::move(g.job));
          set.releases.push_back(0);
        }
        sets_.push_back(std::move(set));
        ++stats.generator_calls;
      }
    }
    stats.generator_seconds = seconds_since(start);
    return stats;
  }

  Pass run_pass(Recorder* recorder) override {
    Pass pass;
    for (const JobSet& set : sets_) {
      for (const core::SchedulerSpec* spec : {&abg_, &a_greedy_}) {
        for (const sim::EngineKind engine :
             {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
          ClosedCell cell;
          cell.spec = spec;
          cell.config.processors = kProcessors;
          cell.config.quantum_length = kQuantum;
          cell.config.engine = engine;
          run_closed_cell(set, cell, recorder, check_, pass);
        }
      }
    }
    return pass;
  }

 private:
  static constexpr std::array<double, 9> kLoads{0.25, 0.5, 1.0, 1.5, 2.0,
                                                3.0,  4.0, 5.0, 6.0};
  static constexpr int kSetsPerLoad = 12;
  core::SchedulerSpec abg_ = core::abg_spec();
  core::SchedulerSpec a_greedy_ = core::a_greedy_spec();
  std::vector<JobSet> sets_;
  ResultCheck check_;
};

/// closed_large: one sync-engine set of 10^4 staggered fork-join jobs.
class ClosedLarge final : public Workload {
 public:
  SetupStats setup(std::uint64_t seed) override {
    SetupStats stats;
    set_ = JobSet{};
    check_ = ResultCheck{};
    set_ = make_staggered_set(util::Rng::derive_seed(seed, 1), kJobs,
                              kProcessors, stats);
    return stats;
  }

  Pass run_pass(Recorder* recorder) override {
    Pass pass;
    ClosedCell cell;
    cell.spec = &abg_;
    cell.config.processors = kProcessors;
    cell.config.quantum_length = kQuantum;
    run_closed_cell(set_, cell, recorder, check_, pass);
    return pass;
  }

 private:
  static constexpr int kJobs = 10000;
  core::SchedulerSpec abg_ = core::abg_spec();
  JobSet set_;
  ResultCheck check_;
};

/// open_stream: a Poisson stream of 10^5 default-factory jobs at load 0.8
/// through the open streaming driver.
class OpenStream final : public Workload {
 public:
  SetupStats setup(std::uint64_t seed) override {
    SetupStats stats;
    const Clock::time_point start = Clock::now();
    seed_ = util::Rng::derive_seed(seed, 2);
    const open::JobFactory factory =
        open::default_open_job_factory(kQuantum);
    // The arrival rate is the benchmark's input: calibrated from a
    // factory pre-sample so the offered load is 0.8.
    const double mean_work =
        open::calibrate_mean_work(factory, seed_, kCalibrationSamples);
    mean_gap_ = std::clamp(mean_work / (kLoad * kProcessors), 1.0, 1e12);
    stats.generator_calls = kCalibrationSamples;
    stats.generator_seconds = seconds_since(start);
    return stats;
  }

  std::optional<Digest> prepare(Pass& checks) override {
    // Job quanta are not in the open result; count the run_quantum calls
    // of one traced pass instead.
    Recorder counter;
    const Pass counted = run_pass(&counter);
    checks.attempted += counted.attempted;
    checks.failed += counted.failed;
    job_quanta_ = counter.totals().count(Layer::kDagRunQuantum) +
                  counter.totals().count(Layer::kDagStep);
    return counted.digest;
  }

  Pass run_pass(Recorder* recorder) override {
    Pass pass;
    open::OpenConfig config;
    config.processors = kProcessors;
    config.quantum_length = kQuantum;
    config.jobs_total = kJobs;
    config.arrival = open::ArrivalKind::kPoisson;
    config.arrivals.mean_gap = mean_gap_;

    core::SchedulerSpec traced_spec;
    std::unique_ptr<alloc::Allocator> traced_allocator;
    open::JobFactory factory;
    obs::EventBus bus;
    std::optional<CountingSink> sink;
    if (recorder != nullptr) {
      traced_spec = abg_.copy();
      traced_spec.request = std::make_unique<TracedRequestPolicy>(
          std::move(traced_spec.request), *recorder);
      traced_allocator = std::make_unique<TracedAllocator>(
          std::make_unique<alloc::EquiPartition>(), *recorder);
      factory = traced_factory(open::default_open_job_factory(kQuantum),
                               *recorder);
      sink.emplace(*recorder);
      bus.subscribe(&*sink);
      config.bus = &bus;
    }
    const core::SchedulerSpec& spec =
        recorder != nullptr ? traced_spec : abg_;

    ++pass.attempted;
    open::OpenResult result;
    const Clock::time_point start = Clock::now();
    try {
      std::optional<Recorder::Span> span;
      if (recorder != nullptr) {
        span.emplace(*recorder, Layer::kRun);
      }
      result = core::run_open(spec, config, seed_, factory,
                              traced_allocator.get());
    } catch (const std::exception& e) {
      ++pass.failed;
      report_failure("run_open", e.what());
      return pass;
    }
    const double wall = seconds_since(start);
    pass.cell_seconds.push_back(wall);
    pass.seconds = wall;
    pass.busy_seconds = wall;
    if (result.completed != kJobs || result.admitted != kJobs) {
      ++pass.failed;
      report_failure("open stream",
                     "completed " + std::to_string(result.completed) +
                         ", admitted " + std::to_string(result.admitted) +
                         ", expected " + std::to_string(kJobs));
    }
    pass.jobs = result.completed;
    pass.job_quanta = job_quanta_;
    pass.digest.add(result.makespan, result.stats.response().mean(),
                    result.total_waste, result.quanta);
    return pass;
  }

  bool open_driver() const override { return true; }

 private:
  static constexpr std::int64_t kJobs = 100000;
  static constexpr int kCalibrationSamples = 16384;
  static constexpr double kLoad = 0.8;
  core::SchedulerSpec abg_ = core::abg_spec();
  std::uint64_t seed_ = 0;
  double mean_gap_ = 1.0;
  std::int64_t job_quanta_ = 0;
};

/// hier_cluster: one staggered set on the sharded engine (16 groups) and
/// on the cluster driver (4 machines of P/4, migration every 8 quanta).
/// Timed passes run the pool with one worker: every epoch still goes
/// through the pool's submit/wait handshake, and the group and machine
/// tiers cost what they cost, but no barrier waits on a second thread
/// that the host has descheduled.  With 2 or 4 workers the spread over
/// five runs reached 20-29 % on a 4-core host, too wide to bound.
class HierCluster final : public Workload {
 public:
  SetupStats setup(std::uint64_t seed) override {
    SetupStats stats;
    set_ = JobSet{};
    check_ = ResultCheck{};
    set_ = make_staggered_set(util::Rng::derive_seed(seed, 3), kJobs,
                              kProcessors, stats);
    return stats;
  }

  std::optional<Digest> prepare(Pass& checks) override {
    // The same cells on two workers, outside the timed section: results
    // must be byte-identical at any thread count.
    const Pass parallel = run_cells(nullptr, kCheckThreads);
    checks.attempted += parallel.attempted;
    checks.failed += parallel.failed;
    return parallel.digest;
  }

  Pass run_pass(Recorder* recorder) override {
    return run_cells(recorder, kTimedThreads);
  }

 private:
  Pass run_cells(Recorder* recorder, int threads) {
    Pass pass;
    ClosedCell sharded;
    sharded.spec = &abg_;
    sharded.config.processors = kProcessors;
    sharded.config.quantum_length = kQuantum;
    sharded.config.hier.groups = 16;
    sharded.config.hier.rebalance_quanta = 8;
    sharded.config.hier.threads = threads;
    sharded.pooled = true;
    run_closed_cell(set_, sharded, recorder, check_, pass);

    ClosedCell cluster;
    cluster.spec = &abg_;
    cluster.config.processors = kProcessors / kMachines;
    cluster.config.quantum_length = kQuantum;
    cluster.config.cluster.machines = kMachines;
    cluster.config.cluster.migration_period = 8;
    cluster.config.cluster.threads = threads;
    cluster.total_processors = kProcessors;
    cluster.pooled = true;
    run_closed_cell(set_, cluster, recorder, check_, pass);
    return pass;
  }

  static constexpr int kJobs = 4000;
  static constexpr int kMachines = 4;
  static constexpr int kTimedThreads = 1;
  static constexpr int kCheckThreads = 2;
  core::SchedulerSpec abg_ = core::abg_spec();
  JobSet set_;
  ResultCheck check_;
};

}  // namespace

void Digest::add(std::int64_t cell_makespan, double cell_mean_response,
                 std::int64_t cell_waste, std::int64_t cell_quanta) {
  std::uint64_t response_bits = 0;
  std::memcpy(&response_bits, &cell_mean_response, sizeof(response_bits));
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(cell_makespan), response_bits,
        static_cast<std::uint64_t>(cell_waste),
        static_cast<std::uint64_t>(cell_quanta)}) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  makespan += cell_makespan;
  mean_response += cell_mean_response;
  waste += cell_waste;
  quanta += cell_quanta;
}

std::string Digest::to_string() const {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << hash << std::dec
     << " makespan=" << makespan << " mean_response="
     << std::setprecision(17) << mean_response << " waste=" << waste
     << " quanta=" << quanta;
  return os.str();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig6_sweep", "closed_large", "open_stream", "hier_cluster"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "fig6_sweep") {
    return std::make_unique<Fig6Sweep>();
  }
  if (name == "closed_large") {
    return std::make_unique<ClosedLarge>();
  }
  if (name == "open_stream") {
    return std::make_unique<OpenStream>();
  }
  if (name == "hier_cluster") {
    return std::make_unique<HierCluster>();
  }
  return nullptr;
}

}  // namespace wallbench
