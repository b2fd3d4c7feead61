// Google-benchmark microbenchmarks: raw throughput of the simulation
// substrate.  These are engineering benchmarks (not paper figures) — they
// document that the closed-form ProfileJob path is what makes the
// paper-scale sweeps (5000 job sets at L = 1000) tractable.
//
// The BM_SimSteps family is the repo's headline raw-speed metric: each
// variant runs a phase-structured job set to completion on one engine
// axis (sync | async | sharded | open) and one job-shape class (square |
// serial | wide) and reports simulated-steps/sec (items == simulated
// steps advanced), which is what the skip-ahead evaluator is measured by.
//
// A custom main() funnels every measured run through exp::ResultSink and
// writes BENCH_micro_throughput.json (override with --sink-out=PATH,
// disable with --sink-out=none; --sink-jsonl=PATH additionally dumps
// per-run records), so the repository tracks a throughput trajectory per
// change; the committed root-level BENCH_micro_throughput.json is the
// regression baseline `trace_check bench` compares against in CI.
// --profile-out=PATH additionally writes a BENCH_profile.json-format
// self-profile (one span per measured benchmark plus bench.total).  All
// artifacts go through util::write_file_atomic, so an interrupted bench
// never leaves a torn JSON behind.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "alloc/equipartition.hpp"
#include "core/run.hpp"
#include "exp/result_sink.hpp"
#include "dag/builders.hpp"
#include "dag/dag_job.hpp"
#include "dag/profile_job.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"
#include "util/atomic_file.hpp"
#include "workload/fork_join.hpp"
#include "workload/job_set.hpp"
#include "workload/profiles.hpp"

namespace {

void BM_ProfileJobQuantum(benchmark::State& state) {
  // One quantum of closed-form execution over many levels.
  const auto job = abg::dag::ProfileJob::from_runs(
      abg::workload::square_wave_profile(1, 100, 64, 100, 50));
  for (auto _ : state) {
    auto clone = job.fresh_clone();
    abg::dag::TaskCount total = 0;
    while (!clone->finished()) {
      total += clone->run_quantum(64, 1000,
                                  abg::dag::PickOrder::kBreadthFirst)
                   .work;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          job.total_work());
}
BENCHMARK(BM_ProfileJobQuantum);

void BM_DagJobStep(benchmark::State& state) {
  // Explicit-DAG execution (per-task bookkeeping).
  abg::util::Rng rng(7);
  const auto structure = abg::dag::builders::random_layered(rng, 400, 64,
                                                            0.05);
  abg::dag::DagJob job(structure);
  for (auto _ : state) {
    auto clone = job.fresh_clone();
    abg::dag::TaskCount total = 0;
    while (!clone->finished()) {
      total += clone->step(16, abg::dag::PickOrder::kBreadthFirst);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          job.total_work());
}
BENCHMARK(BM_DagJobStep);

void BM_EquiPartition(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  abg::alloc::EquiPartition deq;
  std::vector<int> requests(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    requests[i] = static_cast<int>(1 + (i * 37) % 100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(deq.allocate(requests, 128));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_EquiPartition)->Arg(4)->Arg(32)->Arg(128);

void BM_SingleJobAbg(benchmark::State& state) {
  // Full feedback loop: one fork-join job end to end under ABG.
  abg::util::Rng rng(11);
  const auto job = abg::workload::make_fork_join_job(
      rng, abg::workload::figure5_spec(20.0, 1000));
  const abg::core::SchedulerSpec spec = abg::core::abg_spec();
  for (auto _ : state) {
    auto clone = job->fresh_clone();
    const auto trace = abg::core::run_single(
        spec, *clone,
        abg::sim::SingleJobConfig{.processors = 128,
                                  .quantum_length = 1000});
    benchmark::DoNotOptimize(trace.completion_step);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          job->total_work());
}
BENCHMARK(BM_SingleJobAbg);

void BM_JobSetSimulation(benchmark::State& state) {
  // A whole multiprogrammed job set under DEQ: the unit of work of the
  // Figure 6 sweep.
  const double load = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    state.PauseTiming();
    abg::util::Rng rng(23);
    abg::workload::JobSetSpec spec;
    spec.load = load;
    spec.processors = 128;
    spec.min_phase_levels = 500;
    spec.max_phase_levels = 2000;
    auto jobs = abg::workload::make_job_set(rng, spec);
    std::vector<abg::sim::JobSubmission> subs;
    for (auto& g : jobs) {
      abg::sim::JobSubmission s;
      s.job = std::move(g.job);
      subs.push_back(std::move(s));
    }
    state.ResumeTiming();
    const auto result = abg::core::run_set(
        abg::core::abg_spec(), std::move(subs),
        abg::sim::SimConfig{.processors = 128, .quantum_length = 1000});
    benchmark::DoNotOptimize(result.makespan);
  }
}
BENCHMARK(BM_JobSetSimulation)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_JobSetSimulationObserved(benchmark::State& state) {
  // Same job set as BM_JobSetSimulation but with the full observability
  // stack attached (Perfetto trace sink + metrics sink), quantifying what
  // --trace-out/--metrics-out cost relative to the unobserved run above.
  const double load = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    state.PauseTiming();
    abg::util::Rng rng(23);
    abg::workload::JobSetSpec spec;
    spec.load = load;
    spec.processors = 128;
    spec.min_phase_levels = 500;
    spec.max_phase_levels = 2000;
    auto jobs = abg::workload::make_job_set(rng, spec);
    std::vector<abg::sim::JobSubmission> subs;
    for (auto& g : jobs) {
      abg::sim::JobSubmission s;
      s.job = std::move(g.job);
      subs.push_back(std::move(s));
    }
    abg::obs::PerfettoTrace trace;
    abg::obs::SimTraceSink trace_sink(trace);
    abg::obs::MetricsRegistry registry;
    abg::obs::MetricsSink metrics_sink(registry);
    abg::obs::EventBus bus;
    bus.subscribe(&trace_sink);
    bus.subscribe(&metrics_sink);
    abg::sim::SimConfig config{.processors = 128, .quantum_length = 1000};
    config.obs.event_bus = &bus;
    state.ResumeTiming();
    const auto result = abg::core::run_set(abg::core::abg_spec(),
                                           std::move(subs), config);
    benchmark::DoNotOptimize(result.makespan);
    benchmark::DoNotOptimize(trace.event_count());
  }
}
BENCHMARK(BM_JobSetSimulationObserved)
    ->Arg(5)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Simulated-steps/sec per engine axis and per job-shape class.
//
// Shapes (all phase-structured ProfileJobs, the workload class the
// skip-ahead evaluator targets):
//   square — fork-join square wave (1 <-> 64): the paper's alternation,
//            many short phases, exercises phase-crossing math.
//   serial — long near-serial chain (width 2): span-dominated, the
//            stride planner should jump whole quanta at a time.
//   wide   — constant width 256 > P: work-dominated full quanta, few
//            phase transitions.
// Items processed == simulated steps advanced (makespan per run), so the
// reported items_per_second is simulated-steps/sec on that axis.

std::vector<abg::dag::LevelRun> shape_runs(const std::string& shape) {
  if (shape == "square") {
    return abg::workload::square_wave_profile(1, 40, 64, 40, 60);
  }
  if (shape == "serial") {
    return abg::workload::constant_profile(2, 4000);
  }
  return abg::workload::constant_profile(256, 1500);  // wide
}

std::vector<abg::sim::JobSubmission> make_shaped_set(const std::string& shape,
                                                     std::size_t jobs) {
  const auto runs = shape_runs(shape);
  std::vector<abg::sim::JobSubmission> subs;
  subs.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    abg::sim::JobSubmission s;
    s.job = std::make_unique<abg::dag::ProfileJob>(
        abg::dag::ProfileJob::from_runs(runs));
    s.release_step = static_cast<abg::dag::Steps>(i * 500);
    subs.push_back(std::move(s));
  }
  return subs;
}

void BM_SimSteps(benchmark::State& state, const std::string& axis,
                 const std::string& shape) {
  std::int64_t steps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto subs = make_shaped_set(shape, 8);
    abg::sim::SimConfig config{.processors = 128, .quantum_length = 1000};
    if (axis == "async") {
      config.engine = abg::sim::EngineKind::kAsync;
    } else if (axis == "sharded") {
      config.hier.groups = 4;
    }
    state.ResumeTiming();
    const auto result = abg::core::run_set(abg::core::abg_spec(),
                                           std::move(subs), config);
    steps += result.makespan;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK_CAPTURE(BM_SimSteps, sync_square, "sync", "square");
BENCHMARK_CAPTURE(BM_SimSteps, sync_serial, "sync", "serial");
BENCHMARK_CAPTURE(BM_SimSteps, sync_wide, "sync", "wide");
BENCHMARK_CAPTURE(BM_SimSteps, async_square, "async", "square");
BENCHMARK_CAPTURE(BM_SimSteps, async_serial, "async", "serial");
BENCHMARK_CAPTURE(BM_SimSteps, async_wide, "async", "wide");
BENCHMARK_CAPTURE(BM_SimSteps, sharded_square, "sharded", "square");
BENCHMARK_CAPTURE(BM_SimSteps, sharded_serial, "sharded", "serial");
BENCHMARK_CAPTURE(BM_SimSteps, sharded_wide, "sharded", "wide");

void BM_SimStepsOpen(benchmark::State& state) {
  // Open-system axis: the default square-wave factory under a Poisson
  // stream (the streaming driver shares the sync per-quantum block).
  std::int64_t steps = 0;
  for (auto _ : state) {
    abg::open::OpenConfig config;
    config.processors = 64;
    config.quantum_length = 100;
    config.jobs_total = 400;
    config.load = 0.8;
    const auto result =
        abg::core::run_open(abg::core::abg_spec(), config, 11);
    steps += result.makespan;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_SimStepsOpen);

/// Console reporter that additionally records every run in a ResultSink
/// and, when a profiler is attached, one profile span per benchmark
/// (seconds = measured wall time, items = iterations).
class SinkReporter : public benchmark::ConsoleReporter {
 public:
  SinkReporter(abg::exp::ResultSink* sink, abg::obs::Profiler* profiler)
      : sink_(sink), profiler_(profiler) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      abg::exp::RunRecord record;
      record.run_id = next_id_++;
      record.group = run.benchmark_name();
      record.scheduler = "";
      record.workload = "micro";
      record.fault = "none";
      record.metrics.emplace_back("real_time_ns", run.GetAdjustedRealTime());
      record.metrics.emplace_back("cpu_time_ns", run.GetAdjustedCPUTime());
      record.metrics.emplace_back("iterations",
                                  static_cast<double>(run.iterations));
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        record.metrics.emplace_back("items_per_second",
                                    items->second.value);
      }
      sink_->add(std::move(record));
      if (profiler_ != nullptr) {
        // real_accumulated_time is whole-run seconds, independent of the
        // benchmark's display time unit.
        profiler_->record("bench." + run.benchmark_name(),
                          run.real_accumulated_time, run.iterations);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  abg::exp::ResultSink* sink_;
  abg::obs::Profiler* profiler_;
  std::int64_t next_id_ = 0;
};

/// Strips `--name=value` from argv and returns its value (or `fallback`).
std::string take_flag(int& argc, char** argv, const std::string& name,
                      const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      return arg.substr(prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sink_out =
      take_flag(argc, argv, "sink-out", "BENCH_micro_throughput.json");
  const std::string sink_jsonl = take_flag(argc, argv, "sink-jsonl", "none");
  const std::string profile_out = take_flag(argc, argv, "profile-out", "none");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  abg::exp::ResultSink sink("throughput", 0);
  abg::obs::Profiler profiler;
  SinkReporter reporter(&sink,
                        profile_out != "none" ? &profiler : nullptr);
  {
    auto total = profiler.time("bench.total");
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();

  if (sink_out != "none") {
    abg::util::write_file_atomic(
        sink_out, [&sink](std::ostream& os) { sink.write_summary(os); });
  }
  if (sink_jsonl != "none") {
    abg::util::write_file_atomic(
        sink_jsonl, [&sink](std::ostream& os) { sink.write_jsonl(os); });
  }
  if (profile_out != "none") {
    abg::util::write_file_atomic(
        profile_out,
        [&profiler](std::ostream& os) { profiler.write(os); });
  }
  return 0;
}
