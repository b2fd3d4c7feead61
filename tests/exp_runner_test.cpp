#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/result_sink.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace abg::exp {
namespace {

/// A small but non-trivial grid: two square-wave workload points under
/// both schedulers, plus one fault run.  Small levels keep it fast.
std::vector<RunSpec> small_grid() {
  std::vector<RunSpec> specs;
  for (const SchedulerKind scheduler :
       {SchedulerKind::kAbg, SchedulerKind::kAGreedy}) {
    for (std::uint64_t index = 0; index < 2; ++index) {
      RunSpec spec;
      spec.scheduler = scheduler;
      spec.workload.kind = WorkloadKind::kSquareWave;
      spec.workload.jobs = 2;
      spec.workload.levels = 200;
      spec.machine = {.processors = 16, .quantum_length = 50};
      spec.seed_index = index;
      spec.group = "point=" + std::to_string(index);
      specs.push_back(std::move(spec));
    }
  }
  RunSpec faulty = specs.front();
  faulty.faults.scenario = FaultScenario::kImpulse;
  faulty.group = "impulse";
  specs.push_back(std::move(faulty));
  return specs;
}

std::string jsonl_of(const std::vector<RunRecord>& records) {
  ResultSink sink("runner_test", 2008);
  sink.add_all(records);
  std::ostringstream os;
  sink.write_jsonl(os);
  return os.str();
}

TEST(SweepRunner, EmptyGridIsANoOp) {
  SweepConfig config;
  config.threads = 4;
  const std::vector<RunRecord> records = SweepRunner(config).run({});
  EXPECT_TRUE(records.empty());
}

TEST(SweepRunner, RecordsArriveInGridOrder) {
  const std::vector<RunSpec> specs = small_grid();
  SweepConfig config;
  config.threads = 2;
  const std::vector<RunRecord> records = SweepRunner(config).run(specs);
  ASSERT_EQ(records.size(), specs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].run_id, static_cast<std::int64_t>(i));
    EXPECT_EQ(records[i].group, specs[i].group);
    EXPECT_EQ(records[i].seed,
              util::Rng::derive_seed(config.base_seed, specs[i].seed_index));
    EXPECT_TRUE(records[i].has_metric("makespan"));
    EXPECT_GT(records[i].metric("makespan"), 0.0);
  }
  // Paired scheduler variants share the seed (common random numbers).
  EXPECT_EQ(records[0].seed, records[2].seed);
  EXPECT_EQ(records[1].seed, records[3].seed);
  EXPECT_NE(records[0].seed, records[1].seed);
}

TEST(SweepRunner, IdenticalResultsAtAnyThreadCount) {
  // The ISSUE's headline guarantee: one worker and a full-width pool
  // produce byte-identical JSONL after ordering by run id.
  const std::vector<RunSpec> specs = small_grid();
  const int wide = std::max(
      4, static_cast<int>(std::thread::hardware_concurrency()));

  SweepConfig serial;
  serial.threads = 1;
  const std::vector<RunRecord> one = SweepRunner(serial).run(specs);

  SweepConfig pooled;
  pooled.threads = wide;
  const std::vector<RunRecord> many = SweepRunner(pooled).run(specs);

  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].run_id, many[i].run_id);
    EXPECT_EQ(one[i].seed, many[i].seed);
    EXPECT_EQ(one[i].metrics, many[i].metrics) << "run " << i;
  }
  EXPECT_EQ(jsonl_of(one), jsonl_of(many));
}

TEST(SweepRunner, ExceptionInARunPropagates) {
  RunSpec bad;
  bad.workload.kind = WorkloadKind::kForkJoin;
  bad.workload.jobs = 0;  // invalid: build_workload rejects jobs < 1
  SweepConfig config;
  config.threads = 2;
  EXPECT_THROW(SweepRunner(config).run({bad}), std::invalid_argument);
}

TEST(SweepRunner, RethrowsLowestFailedCell) {
  // run() is run_monitored() plus a rethrow.  With two failing cells of
  // different exception types, whichever fails first in wall-clock time,
  // it rethrows the lowest run id's own exception, unchanged in type; on
  // a clean grid it returns run_monitored()'s records byte for byte.
  const std::vector<RunSpec> clean = small_grid();
  std::vector<RunSpec> failing = clean;
  failing[1].workload.kind = WorkloadKind::kForkJoin;
  failing[1].workload.jobs = 0;  // std::invalid_argument from build_workload
  failing[3].debug.fail_attempts = 1;  // std::runtime_error
  for (const int threads : {1, 4}) {
    SweepConfig config;
    config.threads = threads;
    const SweepRunner runner(config);
    EXPECT_THROW(runner.run(failing), std::invalid_argument)
        << threads << " threads";
    EXPECT_EQ(jsonl_of(runner.run(clean)),
              jsonl_of(runner.run_monitored(clean).records))
        << threads << " threads";
  }
}

TEST(SweepRunner, HangWithoutAWatchdogIsRejected) {
  // Nothing can cancel a run without a deadline or an abort token, so a
  // hanging cell fails at once instead of stalling the sweep.
  std::vector<RunSpec> specs = small_grid();
  specs[2].debug.hang = true;
  SweepConfig config;
  config.threads = 2;
  EXPECT_THROW(SweepRunner(config).run(specs), std::logic_error);
}

TEST(ExecuteRun, OpenRunRejectsAReleaseSchedule) {
  // The open axis owns its arrival process; a closed release schedule on
  // an open spec would be silently dropped.
  RunSpec spec;
  spec.open.arrival = open::ArrivalKind::kPoisson;
  spec.open.jobs_total = 20;
  spec.machine = {.processors = 16, .quantum_length = 50};
  spec.workload.release = ReleaseKind::kStaggered;
  spec.workload.release_gap = 100;
  EXPECT_THROW(execute_run(spec, 1, RunContext{}), std::invalid_argument);
  spec.workload.release = ReleaseKind::kBatched;
  EXPECT_NO_THROW(execute_run(spec, 1, RunContext{}));
}

TEST(ExecuteRun, HierFaultSpecFailsBeforeTheReferenceRun) {
  // Rejected on entry: the fault-free reference run of a spec whose
  // faulted replay cannot run must not execute (or publish) at all.
  RunSpec spec = small_grid().back();
  ASSERT_NE(spec.faults.scenario, FaultScenario::kNone);
  spec.hier_groups = 2;
  obs::MetricsRegistry registry;
  EXPECT_THROW(execute_run(spec, 1, RunContext{.metrics = &registry}),
               std::invalid_argument);
  EXPECT_TRUE(registry.empty());
}

TEST(SweepRunner, ProgressReportsEveryRun) {
  const std::vector<RunSpec> specs = small_grid();
  SweepConfig config;
  config.threads = 2;
  std::vector<std::int64_t> completions;
  config.on_progress = [&completions](const Progress& progress) {
    completions.push_back(progress.completed);
    EXPECT_EQ(progress.total, 5);
  };
  SweepRunner(config).run(specs);
  // The callback runs under the runner's lock, once per finished run.
  ASSERT_EQ(completions.size(), specs.size());
  std::sort(completions.begin(), completions.end());
  for (std::size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i], static_cast<std::int64_t>(i) + 1);
  }
}

TEST(RunRecord, MetricLookup) {
  RunRecord record;
  record.metrics = {{"makespan", 12.0}, {"total_work", 7.0}};
  EXPECT_TRUE(record.has_metric("makespan"));
  EXPECT_FALSE(record.has_metric("absent"));
  EXPECT_DOUBLE_EQ(record.metric("total_work"), 7.0);
  EXPECT_THROW(record.metric("absent"), std::out_of_range);
}

TEST(ResultSink, SummaryGroupsByGroupAndScheduler) {
  SweepConfig config;
  config.threads = 2;
  const std::vector<RunRecord> records = SweepRunner(config).run(small_grid());
  ResultSink sink("runner_test", config.base_seed);
  sink.add_all(records);
  const std::string summary = sink.summary().dump();
  EXPECT_NE(summary.find("\"benchmark\":\"runner_test\""), std::string::npos);
  EXPECT_NE(summary.find("\"total_runs\":5"), std::string::npos);
  EXPECT_NE(summary.find("\"group\":\"point=0\""), std::string::npos);
  EXPECT_NE(summary.find("\"group\":\"impulse\""), std::string::npos);
  EXPECT_NE(summary.find("\"scheduler\":\"a-greedy\""), std::string::npos);
  // Fault runs carry the resilience metrics into the summary.
  EXPECT_NE(summary.find("makespan_degradation"), std::string::npos);
}

}  // namespace
}  // namespace abg::exp
