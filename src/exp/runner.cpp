#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "alloc/hesrpt.hpp"
#include "alloc/round_robin.hpp"
#include "exp/journal.hpp"
#include "exp/thread_pool.hpp"
#include "exp/watchdog.hpp"
#include "fault/fault_plan.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics_sink.hpp"
#include "fault/resilience.hpp"
#include "metrics/lower_bounds.hpp"
#include "scenario/generators.hpp"
#include "scenario/library.hpp"
#include "sim/validate.hpp"
#include "util/rng.hpp"
#include "workload/arrivals.hpp"
#include "workload/fork_join.hpp"
#include "workload/job_set.hpp"
#include "workload/profiles.hpp"

namespace abg::exp {

double RunRecord::metric(const std::string& name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) {
      return value;
    }
  }
  throw std::out_of_range("RunRecord: no metric '" + name + "'");
}

bool RunRecord::has_metric(const std::string& name) const {
  return std::any_of(metrics.begin(), metrics.end(),
                     [&](const auto& kv) { return kv.first == name; });
}

std::function<void(const Progress&)> stderr_progress() {
  return [](const Progress& p) {
    std::fprintf(
        stderr,
        "\r[sweep] %lld/%lld runs  %.1f runs/s  elapsed %.0fs  ETA %.0fs   ",
        static_cast<long long>(p.completed),
        static_cast<long long>(p.total), p.runs_per_second,
        p.elapsed_seconds, p.eta_seconds);
    if (p.completed == p.total) {
      std::fprintf(stderr, "\n");
    }
  };
}

namespace {

/// The allocator a spec names (null: the engine's DEQ).  One per simulated
/// run: round-robin is stateful, so sharing one would race.
std::unique_ptr<alloc::Allocator> make_allocator(AllocatorKind kind) {
  if (kind == AllocatorKind::kRoundRobin) {
    return std::make_unique<alloc::RoundRobin>();
  }
  if (kind == AllocatorKind::kHesrpt) {
    return std::make_unique<alloc::HeSrpt>();
  }
  return nullptr;
}

/// A record carrying the spec's identity (no metrics yet).
RunRecord record_of(const RunSpec& spec, std::uint64_t seed) {
  RunRecord record;
  record.group = spec.group;
  record.scheduler = to_string(spec.scheduler);
  record.workload = to_string(spec.workload.kind);
  record.fault = to_string(spec.faults.scenario);
  record.engine = std::string(sim::to_string(spec.engine));
  record.hier_groups = spec.hier_groups;
  record.hier_alloc = spec.hier_alloc;
  record.cluster_machines = spec.cluster_machines;
  record.router = spec.router;
  if (spec.open.arrival != open::ArrivalKind::kNone) {
    record.arrival = open::to_string(spec.open.arrival);
  }
  record.seed = seed;
  return record;
}

/// The scenario a kScenario spec names.
const scenario::ScenarioSpec& scenario_of(const RunSpec& spec) {
  if (spec.workload.scenario_path.empty()) {
    throw std::invalid_argument(
        "RunSpec: scenario workload needs a scenario_path");
  }
  return scenario::load_cached(spec.workload.scenario_path);
}

/// Materializes the spec's workload from `rng` and returns submissions.
std::vector<sim::JobSubmission> build_workload(const RunSpec& spec,
                                               util::Rng& rng) {
  std::vector<sim::JobSubmission> subs;
  switch (spec.workload.kind) {
    case WorkloadKind::kJobSet: {
      workload::JobSetSpec set_spec;
      set_spec.load = spec.workload.load;
      set_spec.processors = spec.machine.processors;
      set_spec.min_phase_levels = spec.machine.quantum_length / 2;
      set_spec.max_phase_levels = 2 * spec.machine.quantum_length;
      auto jobs = workload::make_job_set(rng, set_spec);
      subs.reserve(jobs.size());
      for (auto& g : jobs) {
        sim::JobSubmission s;
        s.job = std::move(g.job);
        subs.push_back(std::move(s));
      }
      break;
    }
    case WorkloadKind::kForkJoin: {
      if (spec.workload.jobs < 1) {
        throw std::invalid_argument(
            "RunSpec: fork-join workload needs jobs >= 1");
      }
      subs.reserve(static_cast<std::size_t>(spec.workload.jobs));
      for (int j = 0; j < spec.workload.jobs; ++j) {
        sim::JobSubmission s;
        s.job = workload::make_fork_join_job(
            rng, workload::figure5_spec(spec.workload.transition_factor,
                                        spec.machine.quantum_length));
        subs.push_back(std::move(s));
      }
      break;
    }
    case WorkloadKind::kSquareWave: {
      if (spec.workload.jobs < 1) {
        throw std::invalid_argument(
            "RunSpec: square-wave workload needs jobs >= 1");
      }
      const dag::Steps levels = std::max<dag::Steps>(8, spec.workload.levels);
      subs.reserve(static_cast<std::size_t>(spec.workload.jobs));
      for (int j = 0; j < spec.workload.jobs; ++j) {
        const auto low = static_cast<dag::TaskCount>(rng.uniform_int(1, 4));
        const auto high = static_cast<dag::TaskCount>(rng.uniform_int(8, 24));
        const dag::Steps phase = rng.uniform_int(levels / 8, levels / 3);
        sim::JobSubmission s;
        s.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
            workload::square_wave_profile(low, phase, high, phase, 4)));
        subs.push_back(std::move(s));
      }
      break;
    }
    case WorkloadKind::kScenario:
      // The scenario owns the release schedule, so the generic release
      // block below must not touch these submissions.
      return scenario::generate_jobs(scenario_of(spec), rng,
                                     spec.machine.processors,
                                     spec.machine.quantum_length);
  }
  if (subs.empty()) {
    throw std::invalid_argument("RunSpec: workload produced no jobs");
  }
  // Release schedule, drawn after job generation so the default (batched)
  // keeps the historic draw sequence of every existing spec.
  if (spec.workload.release != ReleaseKind::kBatched) {
    const double gap = spec.workload.release_gap;
    std::vector<dag::Steps> releases;
    if (spec.workload.release == ReleaseKind::kStaggered) {
      if (gap < 0.0 || gap > 9e18) {
        throw std::invalid_argument(
            "RunSpec: staggered release_gap out of range");
      }
      releases = workload::staggered_releases(subs.size(),
                                              static_cast<dag::Steps>(gap));
    } else {
      releases = workload::poisson_releases(rng, subs.size(), gap);
    }
    for (std::size_t i = 0; i < subs.size(); ++i) {
      subs[i].release_step = releases[i];
    }
  }
  return subs;
}

/// Builds the spec's fault plan, anchored on the fault-free reference run.
fault::FaultPlan build_fault_plan(const RunSpec& spec,
                                  const sim::SimResult& reference,
                                  util::Rng& fault_rng) {
  const dag::Steps mid = reference.makespan / 3;
  const dag::Steps l = spec.machine.quantum_length;
  const int affected = std::max(
      1, static_cast<int>(spec.faults.fraction *
                          static_cast<double>(spec.machine.processors)));
  switch (spec.faults.scenario) {
    case FaultScenario::kStep:
      return fault::step_failure_plan(mid, affected);
    case FaultScenario::kImpulse:
      return fault::impulse_failure_plan(mid, affected, 8 * l);
    case FaultScenario::kPoisson:
      return fault::poisson_churn_plan(
          fault_rng, reference.makespan, 1.0 / static_cast<double>(4 * l),
          6 * l, std::max(1, affected / 2));
    case FaultScenario::kCrash: {
      fault::FaultPlan plan = fault::periodic_crash_plan(
          spec.faults.crash_job, mid,
          std::max<dag::Steps>(1, reference.makespan / 4),
          spec.faults.crashes);
      plan.work_loss = spec.faults.scratch
                           ? fault::WorkLoss::kRestartFromScratch
                           : fault::WorkLoss::kCheckpointQuantum;
      return plan;
    }
    case FaultScenario::kNone:
      break;
  }
  return {};
}

/// Appends the simulation metrics shared by every run.
void append_sim_metrics(const RunSpec& spec, const sim::SimResult& result,
                        const std::vector<metrics::JobSummary>& summaries,
                        RunRecord& record) {
  std::int64_t satisfied = 0;
  std::int64_t deprived = 0;
  dag::TaskCount work = 0;
  for (const sim::JobTrace& trace : result.jobs) {
    work += trace.work;
    for (const auto& q : trace.quanta) {
      if (q.deprived()) {
        ++deprived;
      } else {
        ++satisfied;
      }
    }
  }
  const double makespan_star =
      metrics::makespan_lower_bound(summaries, spec.machine.processors);
  const double response_star =
      metrics::response_lower_bound(summaries, spec.machine.processors);

  record.metrics.emplace_back("jobs",
                              static_cast<double>(result.jobs.size()));
  record.metrics.emplace_back("makespan",
                              static_cast<double>(result.makespan));
  record.metrics.emplace_back("mean_response_time",
                              result.mean_response_time);
  record.metrics.emplace_back("total_work", static_cast<double>(work));
  record.metrics.emplace_back("total_waste",
                              static_cast<double>(result.total_waste));
  record.metrics.emplace_back("quanta", static_cast<double>(result.quanta));
  record.metrics.emplace_back("satisfied_quanta",
                              static_cast<double>(satisfied));
  record.metrics.emplace_back("deprived_quanta",
                              static_cast<double>(deprived));
  if (makespan_star > 0.0) {
    record.metrics.emplace_back(
        "makespan_over_lb",
        static_cast<double>(result.makespan) / makespan_star);
  }
  if (response_star > 0.0) {
    record.metrics.emplace_back("response_over_lb",
                                result.mean_response_time / response_star);
  }
}

/// Appends an open-system run's aggregate and percentile metrics.  Names
/// shared with the closed path (jobs, makespan, total_work, ...) keep
/// their semantics; the percentile/slowdown/queue metrics are open-only.
void append_open_metrics(const open::OpenResult& result, RunRecord& record) {
  const open::OnlineStats& stats = result.stats;
  record.metrics.emplace_back("jobs", static_cast<double>(result.completed));
  record.metrics.emplace_back("makespan",
                              static_cast<double>(result.makespan));
  record.metrics.emplace_back("mean_response_time", stats.response().mean());
  record.metrics.emplace_back("response_p50", stats.response_quantile(0.50));
  record.metrics.emplace_back("response_p95", stats.response_quantile(0.95));
  record.metrics.emplace_back("response_p99", stats.response_quantile(0.99));
  record.metrics.emplace_back("mean_slowdown", stats.slowdown().mean());
  record.metrics.emplace_back(
      "max_slowdown",
      stats.slowdown().count() > 0 ? stats.slowdown().max() : 0.0);
  record.metrics.emplace_back("slowdown_p99", stats.slowdown_quantile(0.99));
  record.metrics.emplace_back("queue_depth_mean", stats.queue_depth().mean());
  record.metrics.emplace_back("queue_depth_p95",
                              stats.queue_depth_quantile(0.95));
  record.metrics.emplace_back(
      "in_system_high_water",
      static_cast<double>(result.in_system_high_water));
  record.metrics.emplace_back("total_work",
                              static_cast<double>(result.total_work));
  record.metrics.emplace_back("total_waste",
                              static_cast<double>(result.total_waste));
  record.metrics.emplace_back("quanta", static_cast<double>(result.quanta));
  if (result.mean_gap > 0.0) {
    record.metrics.emplace_back("mean_gap", result.mean_gap);
  }
}

}  // namespace

RunRecord execute_run(const RunSpec& spec, std::uint64_t base_seed,
                      const RunContext& context) {
  sim::check_composition(axes_of(spec), "RunSpec");
  obs::MetricsRegistry* const metrics_out = context.metrics;
  // Failure-injection hooks (robustness fixtures only).
  if (spec.debug.fail_attempts > 0 &&
      context.attempt < spec.debug.fail_attempts) {
    throw std::runtime_error("debug: injected failure (attempt " +
                             std::to_string(context.attempt) + ")");
  }
  if (spec.debug.hang) {
    if (context.cancel == nullptr) {
      throw std::logic_error(
          "execute_run: debug.hang requires a cancellation token");
    }
    while (!context.cancel->cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw util::CancelledError(
        "execute_run: run cancelled (" +
            std::string(util::to_string(context.cancel->cause())) + ")",
        context.cancel->cause());
  }
  const std::uint64_t seed = util::Rng::derive_seed(base_seed,
                                                    spec.seed_index);
  RunRecord record = record_of(spec, seed);

  // The run's private bus: the runner's metrics sink first, then any
  // caller-supplied bus from the spec.  With neither, the bus stays
  // inactive and the engine takes the observability-free path.
  obs::EventBus bus;
  std::optional<obs::MetricsSink> metrics_sink;
  if (metrics_out != nullptr) {
    metrics_sink.emplace(*metrics_out);
    bus.subscribe(&*metrics_sink);
  }
  bus.subscribe(spec.obs.event_bus);

  // Open-system axis: stream continuously arriving jobs instead of
  // simulating a closed workload.
  if (spec.open.arrival != open::ArrivalKind::kNone) {
    open::OpenConfig open_config;
    open_config.processors = spec.machine.processors;
    open_config.quantum_length = spec.machine.quantum_length;
    open_config.jobs_total = spec.open.jobs_total;
    open_config.arrival = spec.open.arrival;
    open_config.trace_path = spec.open.trace_path;
    open_config.load = spec.workload.load;
    open_config.bus = &bus;
    open_config.cancel = context.cancel;
    open::JobFactory factory;  // null = the engine's default workload
    if (spec.workload.kind == WorkloadKind::kScenario) {
      factory = scenario::make_open_factory(scenario_of(spec),
                                            spec.machine.processors,
                                            spec.machine.quantum_length);
    }
    const std::unique_ptr<alloc::Allocator> machine =
        make_allocator(spec.allocator);
    const open::OpenResult result = core::run_open(
        make_scheduler(spec.scheduler, spec.scheduler_params), open_config,
        seed, factory, machine.get());
    append_open_metrics(result, record);
    return record;
  }

  // Workload generation consumes the run's stream from the start so a
  // given seed index always means the same jobs, faulted or not.
  util::Rng workload_rng(seed);
  auto submissions = build_workload(spec, workload_rng);
  std::vector<metrics::JobSummary> summaries;
  summaries.reserve(submissions.size());
  for (const auto& s : submissions) {
    summaries.push_back(metrics::JobSummary{
        s.job->total_work(), s.job->critical_path(), s.release_step});
  }

  sim::SimConfig config{.processors = spec.machine.processors,
                        .quantum_length = spec.machine.quantum_length,
                        .engine = spec.engine};
  config.obs.event_bus = &bus;
  config.cancel = context.cancel;
  // Group and machine loops default to single-threaded inside a sweep:
  // runs are the sweep's unit of parallelism, and nested pools would
  // oversubscribe without changing any result (both tiered drivers are
  // thread-count independent).  Sweeps of few large cells can opt into
  // wider loops via spec.hier_threads / spec.cluster_threads.
  config.hier.groups = spec.hier_groups;
  config.hier.allocator = spec.hier_alloc;
  config.hier.threads = std::max(1, spec.hier_threads);
  // Cluster axis: cluster_machines machines of machine.processors each.
  config.cluster.machines = spec.cluster_machines;
  config.cluster.router = spec.router;
  config.cluster.migration_period = spec.migration_period;
  config.cluster.threads = std::max(1, spec.cluster_threads);
  // A scenario's machine shapes apply when the run's machine count
  // matches (scenario content, so never part of the spec or its digest).
  if (spec.cluster_machines != 0 &&
      spec.workload.kind == WorkloadKind::kScenario &&
      static_cast<int>(scenario_of(spec).cluster.shapes.size()) ==
          spec.cluster_machines) {
    config.cluster.shapes = scenario_of(spec).cluster.shapes;
  }

  const auto run_once = [&spec, &config](
                            std::vector<sim::JobSubmission> subs,
                            const fault::FaultPlan* plan) {
    sim::SimConfig run_config = config;
    run_config.faults = plan;
    const std::unique_ptr<alloc::Allocator> allocator =
        make_allocator(spec.allocator);
    return core::run_set(
        make_scheduler(spec.scheduler, spec.scheduler_params),
        std::move(subs), run_config, allocator.get());
  };

  if (spec.faults.scenario == FaultScenario::kNone) {
    const sim::SimResult result = run_once(std::move(submissions), nullptr);
    append_sim_metrics(spec, result, summaries, record);
    return record;
  }

  // Faulty run: simulate the fault-free reference of the identical
  // workload first (the plans are anchored on its makespan), then replay
  // the same jobs under the plan and analyze the difference.
  const sim::SimResult reference = run_once(std::move(submissions), nullptr);

  util::Rng replay_rng(seed);
  auto faulty_submissions = build_workload(spec, replay_rng);
  util::Rng fault_rng = util::Rng::derive(seed, 1);
  const fault::FaultPlan plan = build_fault_plan(spec, reference, fault_rng);
  const sim::SimResult faulty =
      run_once(std::move(faulty_submissions), &plan);

  append_sim_metrics(spec, faulty, summaries, record);
  const fault::ResilienceReport report =
      fault::analyze_resilience(faulty, reference);
  record.metrics.emplace_back("reference_makespan",
                              static_cast<double>(reference.makespan));
  record.metrics.emplace_back("makespan_degradation",
                              report.makespan_degradation);
  record.metrics.emplace_back(
      "recovery_quanta", static_cast<double>(report.max_recovery_quanta));
  record.metrics.emplace_back("overshoot", report.max_overshoot);
  record.metrics.emplace_back("lost_work",
                              static_cast<double>(report.lost_work));
  record.metrics.emplace_back("crashes",
                              static_cast<double>(report.crash_events));
  record.metrics.emplace_back("accounting_balanced",
                              report.accounting_balances() ? 1.0 : 0.0);
  record.metrics.emplace_back(
      "validation_issues",
      static_cast<double>(
          sim::validate_result(faulty, spec.machine.processors).size()));
  return record;
}

std::vector<RunRecord> SweepRunner::run(
    const std::vector<RunSpec>& specs) const {
  std::vector<std::exception_ptr> errors;
  SweepOutcome outcome = monitor(specs, errors);
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
  return std::move(outcome.records);
}

SweepOutcome SweepRunner::run_monitored(
    const std::vector<RunSpec>& specs) const {
  std::vector<std::exception_ptr> errors;
  return monitor(specs, errors);
}

SweepOutcome SweepRunner::monitor(
    const std::vector<RunSpec>& specs,
    std::vector<std::exception_ptr>& errors) const {
  const RobustnessConfig& rb = config_.robustness;
  SweepOutcome outcome;
  outcome.records.resize(specs.size());
  errors.assign(specs.size(), nullptr);
  if (specs.empty()) {
    return outcome;
  }

  // The watchdog exists only when something can cancel a run; without it
  // the monitored path carries no extra threads.
  std::optional<Watchdog> watchdog;
  if (rb.run_timeout_seconds > 0.0 || rb.abort != nullptr) {
    Watchdog::Config wc;
    wc.run_timeout_seconds = rb.run_timeout_seconds;
    wc.abort = rb.abort;
    watchdog.emplace(wc);
  }

  const auto drained = [&rb] {
    return (rb.drain != nullptr && rb.drain->cancelled()) ||
           (rb.abort != nullptr && rb.abort->cancelled());
  };

  ThreadPool pool(ThreadPool::resolve_threads(config_.threads));
  std::mutex progress_mutex;
  std::mutex metrics_mutex;
  std::mutex outcome_mutex;
  std::int64_t completed = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto seconds_since_start = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Resolved-cell progress: success, quarantine or resume.
  const auto report_progress = [&] {
    if (!config_.on_progress) {
      return;
    }
    std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    Progress p;
    p.completed = completed;
    p.total = static_cast<std::int64_t>(specs.size());
    const double elapsed = seconds_since_start();
    p.elapsed_seconds = elapsed;
    p.runs_per_second =
        elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
    p.eta_seconds = p.runs_per_second > 0.0
                        ? static_cast<double>(p.total - completed) /
                              p.runs_per_second
                        : 0.0;
    config_.on_progress(p);
  };
  const auto count = [&outcome_mutex](std::int64_t& field) {
    std::lock_guard<std::mutex> lock(outcome_mutex);
    ++field;
  };
  const auto bump_metric = [&](const char* name) {
    if (config_.metrics != nullptr) {
      std::lock_guard<std::mutex> lock(metrics_mutex);
      config_.metrics->counter(name).add(1);
    }
  };

  for (std::size_t i = 0; i < specs.size(); ++i) {
    pool.submit([&, i] {
      const RunSpec& spec = specs[i];
      const std::uint64_t digest = spec_digest(spec);
      const auto run_id = static_cast<std::int64_t>(i);

      // Resume: a cell recorded complete under the same digest re-uses
      // its journaled record verbatim.
      if (rb.resume != nullptr) {
        const RunRecord* recorded =
            rb.resume->completed_record(run_id, digest);
        if (recorded != nullptr) {
          RunRecord record = *recorded;
          record.run_id = run_id;
          outcome.records[i] = std::move(record);
          count(outcome.resumed);
          bump_metric("exp.resumed_cells");
          report_progress();
          return;
        }
      }

      if (drained()) {
        count(outcome.skipped);
        return;
      }

      count(outcome.executed);
      util::CancelToken token;
      const int attempts_allowed = 1 + std::max(0, rb.max_retries);
      std::string failure_cause;
      std::exception_ptr error;
      for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
        if (attempt > 0) {
          count(outcome.retries);
          bump_metric("exp.retries");
          // Backoff, in slices so a drain cuts the wait short.
          const auto wait_until =
              std::chrono::steady_clock::now() +
              std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      backoff_seconds(rb.backoff_seconds, attempt - 1)));
          while (std::chrono::steady_clock::now() < wait_until &&
                 !drained()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          if (drained()) {
            count(outcome.skipped);
            return;
          }
        }
        token.reset();
        if (rb.journal != nullptr) {
          rb.journal->record_start(run_id, digest, attempt);
        }
        std::optional<Watchdog::Lease> lease;
        if (watchdog.has_value()) {
          lease.emplace(watchdog->watch(&token));
        }
        // Metrics of failed attempts are discarded: only the successful
        // attempt's registry merges, so a retried cell contributes the
        // same engine metrics as an untroubled one.
        obs::MetricsRegistry local_metrics;
        const double run_start = seconds_since_start();
        try {
          RunContext context;
          context.metrics =
              config_.metrics != nullptr ? &local_metrics : nullptr;
          // Only the watchdog fires the token.  Without one the run gets
          // no token, so a debug.hang cell is rejected, not waited on
          // forever.
          context.cancel = watchdog.has_value() ? &token : nullptr;
          context.attempt = attempt;
          RunRecord record = execute_run(spec, config_.base_seed, context);
          lease.reset();
          const double run_end = seconds_since_start();
          record.run_id = run_id;
          if (rb.journal != nullptr) {
            rb.journal->record_done(run_id, digest, record);
          }
          if (config_.metrics != nullptr) {
            std::lock_guard<std::mutex> lock(metrics_mutex);
            config_.metrics->merge(local_metrics);
          }
          if (config_.timeline != nullptr) {
            config_.timeline->record(run_id,
                                     record.scheduler + "/" + record.workload,
                                     run_start, run_end);
          }
          if (config_.profiler != nullptr) {
            config_.profiler->record("sweep.run", run_end - run_start,
                                     /*items=*/1);
          }
          outcome.records[i] = std::move(record);
          report_progress();
          return;
        } catch (const util::CancelledError& e) {
          lease.reset();
          if (e.cause() == util::CancelCause::kShutdown) {
            // Torn down by an abort: the cell stays incomplete in the
            // journal and re-executes on resume.
            if (rb.journal != nullptr) {
              rb.journal->record_failure(run_id, digest, attempt,
                                         "shutdown", e.what());
            }
            count(outcome.skipped);
            return;
          }
          count(outcome.timeouts);
          bump_metric("exp.timeouts");
          failure_cause = "timeout";
          error = std::current_exception();
          if (rb.journal != nullptr) {
            rb.journal->record_failure(run_id, digest, attempt, "timeout",
                                       e.what());
          }
        } catch (const std::exception& e) {
          lease.reset();
          failure_cause = std::string("error: ") + e.what();
          error = std::current_exception();
          if (rb.journal != nullptr) {
            rb.journal->record_failure(run_id, digest, attempt, "error",
                                       e.what());
          }
        }
      }

      // Poison run: the retry budget is gone.  Record identity + cause so
      // the artifacts say explicitly what is missing and why.
      RunRecord record = record_of(
          spec, util::Rng::derive_seed(config_.base_seed, spec.seed_index));
      record.run_id = run_id;
      record.failure = failure_cause;
      errors[i] = error;
      if (rb.journal != nullptr) {
        rb.journal->record_quarantine(run_id, digest, attempts_allowed,
                                      failure_cause);
      }
      outcome.records[i] = std::move(record);
      count(outcome.quarantined);
      bump_metric("exp.quarantined");
      report_progress();
    });
  }
  pool.wait();
  outcome.interrupted = drained();
  return outcome;
}

}  // namespace abg::exp
