#include "open/streaming_engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "alloc/equipartition.hpp"
#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_sink.hpp"
#include "util/cancel.hpp"
#include "workload/profiles.hpp"

namespace abg::open {
namespace {

OpenConfig small_config() {
  OpenConfig config;
  config.processors = 16;
  config.quantum_length = 100;
  config.jobs_total = 300;
  config.load = 0.7;
  return config;
}

TEST(OpenEngine, StreamsEveryJobToCompletion) {
  const OpenResult result =
      core::run_open(core::abg_spec(), small_config(), 11);
  EXPECT_EQ(result.admitted, 300);
  EXPECT_EQ(result.completed, 300);
  EXPECT_EQ(result.stats.completed(), 300);
  EXPECT_GT(result.makespan, 0);
  EXPECT_GT(result.quanta, 0);
  EXPECT_GE(result.in_system_high_water, 1);
  EXPECT_GT(result.total_work, 0);
  EXPECT_GT(result.mean_gap, 0.0);
  EXPECT_GT(result.stats.response().mean(), 0.0);
  // Slowdown is response / critical path >= 1 for every job.
  EXPECT_GE(result.stats.slowdown().min(), 1.0);
}

TEST(OpenEngine, ByteReproducibleForSeed) {
  const OpenResult a = core::run_open(core::abg_spec(), small_config(), 5);
  const OpenResult b = core::run_open(core::abg_spec(), small_config(), 5);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.quanta, b.quanta);
  EXPECT_EQ(a.in_system_high_water, b.in_system_high_water);
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_EQ(a.total_waste, b.total_waste);
  EXPECT_EQ(a.stats.to_json().dump(), b.stats.to_json().dump());
  // A different seed changes the stream.
  const OpenResult c = core::run_open(core::abg_spec(), small_config(), 6);
  EXPECT_NE(a.makespan, c.makespan);
}

TEST(OpenEngine, EveryArrivalFamilyRuns) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kMmpp, ArrivalKind::kDiurnal,
        ArrivalKind::kHeavyTail}) {
    OpenConfig config = small_config();
    config.arrival = kind;
    config.jobs_total = 120;
    const OpenResult result = core::run_open(core::abg_spec(), config, 3);
    EXPECT_EQ(result.completed, 120) << to_string(kind);
  }
}

TEST(OpenEngine, FixedGapWhenLoadIsZero) {
  OpenConfig config = small_config();
  config.load = 0.0;
  config.arrivals.mean_gap = 50.0;
  const OpenResult result = core::run_open(core::abg_spec(), config, 2);
  EXPECT_DOUBLE_EQ(result.mean_gap, 50.0);
  EXPECT_EQ(result.completed, 300);
}

TEST(OpenEngine, HigherLoadCompressesTheStream) {
  OpenConfig light = small_config();
  light.load = 0.3;
  OpenConfig heavy = small_config();
  heavy.load = 0.9;
  const OpenResult l = core::run_open(core::abg_spec(), light, 7);
  const OpenResult h = core::run_open(core::abg_spec(), heavy, 7);
  EXPECT_LT(h.mean_gap, l.mean_gap);
  EXPECT_LT(h.makespan, l.makespan);
  EXPECT_GE(h.in_system_high_water, l.in_system_high_water);
}

TEST(OpenEngine, TraceArrivalsReplayTheFile) {
  const std::string path = "open_engine_trace_test.jsonl";
  {
    std::ofstream out(path);
    write_arrival_trace(out, {{0, 1.0}, {200, 1.0}, {500, 2.0}});
  }
  OpenConfig config = small_config();
  config.arrival = ArrivalKind::kTrace;
  config.trace_path = path;
  config.load = 0.0;
  config.jobs_total = 9;  // tiles the 3-entry trace three times
  const OpenResult result = core::run_open(core::abg_spec(), config, 4);
  std::remove(path.c_str());
  EXPECT_EQ(result.completed, 9);
  // The trace owns its timing: no calibrated gap to report.
  EXPECT_DOUBLE_EQ(result.mean_gap, 0.0);
}

TEST(OpenEngine, PublishesOpenEventsAndCounters) {
  obs::EventBus bus;
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(registry);
  bus.subscribe(&sink);
  OpenConfig config = small_config();
  config.jobs_total = 50;
  config.bus = &bus;
  const OpenResult result = core::run_open(core::abg_spec(), config, 13);
  EXPECT_EQ(registry.counter("open.arrivals").value(), 50);
  EXPECT_EQ(registry.counter("open.completed").value(), 50);
  EXPECT_EQ(registry.counter("open.admitted").value(), 50);
  EXPECT_DOUBLE_EQ(registry.gauge("open.in_system_high_water").value(),
                   static_cast<double>(result.in_system_high_water));
}

TEST(OpenEngine, ZeroWorkArrivalsDepartAsTheyAreAdmitted) {
  // Every other arrival has no work: it is admitted, completes and
  // departs in the same boundary without running a quantum or holding
  // its slot.
  obs::EventBus bus;
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(registry);
  bus.subscribe(&sink);
  OpenConfig config = small_config();
  config.jobs_total = 40;
  config.load = 0.0;
  config.arrivals.mean_gap = 30.0;
  config.bus = &bus;
  int built = 0;
  const JobFactory factory = [&built](util::Rng&, const Arrival&) {
    return std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
        built++ % 2 == 0 ? std::vector<dag::LevelRun>{}
                         : workload::constant_profile(4, 120)));
  };
  const core::SchedulerSpec spec = core::abg_spec();
  alloc::EquiPartition allocator;
  const OpenResult result = run_stream(*spec.execution, *spec.request,
                                       factory, allocator, config, 3);
  EXPECT_EQ(result.completed, 40);
  EXPECT_EQ(result.total_work, 20 * 4 * 120);
  EXPECT_EQ(registry.counter("sim.admissions").value(), 40);
  EXPECT_EQ(registry.counter("sim.completions").value(), 40);
  EXPECT_EQ(registry.counter("open.completed").value(), 40);
  EXPECT_GE(result.stats.response().min(), 0.0);
}

TEST(OpenEngine, AdmissionCapBoundsActiveJobs) {
  OpenConfig config = small_config();
  config.max_active = 4;
  config.jobs_total = 60;
  config.load = 0.9;
  const OpenResult result = core::run_open(core::abg_spec(), config, 21);
  EXPECT_EQ(result.completed, 60);
  // The backlog (and therefore the high water) can exceed the cap; the
  // queue-depth statistics must have seen at least the cap.
  EXPECT_GE(result.in_system_high_water, 4);
}

TEST(OpenEngine, ValidatesConfig) {
  const auto run = [](const OpenConfig& config) {
    return core::run_open(core::abg_spec(), config, 1);
  };
  OpenConfig config = small_config();
  config.jobs_total = 0;
  EXPECT_THROW(run(config), std::invalid_argument);
  config = small_config();
  config.arrival = ArrivalKind::kNone;
  EXPECT_THROW(run(config), std::invalid_argument);
  config = small_config();
  config.arrival = ArrivalKind::kTrace;  // no trace_path
  EXPECT_THROW(run(config), std::invalid_argument);
  config = small_config();
  config.load = -1.0;
  EXPECT_THROW(run(config), std::invalid_argument);
  config = small_config();
  config.processors = 0;
  EXPECT_THROW(run(config), std::invalid_argument);
}

TEST(OpenEngine, CancellationUnwindsPromptly) {
  util::CancelToken cancel;
  cancel.cancel(util::CancelCause::kShutdown);
  OpenConfig config = small_config();
  config.cancel = &cancel;
  EXPECT_THROW(core::run_open(core::abg_spec(), config, 1),
               util::CancelledError);
}

TEST(OpenEngine, SafetyBoundTripsOnOverload) {
  // Load far above 1 with a tight explicit step bound: the driver must
  // throw rather than spin forever behind an unbounded backlog.
  OpenConfig config = small_config();
  config.load = 8.0;
  config.jobs_total = 5000;
  config.max_steps = 2000;
  EXPECT_THROW(core::run_open(core::abg_spec(), config, 1),
               std::runtime_error);
}

TEST(OpenEngine, RunStreamMatchesRunOpenPlumbing) {
  // core::run_open is a thin adapter over run_stream: driving run_stream
  // directly with the same policies and default factory must agree.
  const OpenConfig config = small_config();
  const core::SchedulerSpec spec = core::abg_spec();
  alloc::EquiPartition allocator;
  const JobFactory factory =
      default_open_job_factory(config.quantum_length);
  const OpenResult direct = run_stream(*spec.execution, *spec.request,
                                       factory, allocator, config, 11);
  const OpenResult wrapped =
      core::run_open(core::abg_spec(), config, 11);
  EXPECT_EQ(direct.makespan, wrapped.makespan);
  EXPECT_EQ(direct.total_work, wrapped.total_work);
  EXPECT_EQ(direct.stats.to_json().dump(), wrapped.stats.to_json().dump());
}

}  // namespace
}  // namespace abg::open
