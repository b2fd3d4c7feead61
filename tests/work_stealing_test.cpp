#include "steal/work_stealing_job.hpp"

#include <gtest/gtest.h>

#include "core/run.hpp"
#include "dag/builders.hpp"
#include "sim/quantum_engine.hpp"
#include "steal/schedulers.hpp"
#include "workload/fork_join.hpp"

namespace abg::steal {
namespace {

TEST(WorkStealingJob, ExecutesChainSequentially) {
  WorkStealingJob job(dag::builders::chain(5), 1);
  dag::Steps steps = 0;
  while (!job.finished()) {
    job.step(4, dag::PickOrder::kFifo);
    ++steps;
    ASSERT_LE(steps, 100);
  }
  EXPECT_EQ(job.completed_work(), 5);
  EXPECT_EQ(steps, 5);  // a chain admits no parallelism
}

TEST(WorkStealingJob, CompletesArbitraryDags) {
  util::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    WorkStealingJob job(dag::builders::random_layered(rng, 12, 8, 0.3),
                        trial * 7ULL);
    dag::Steps guard = 0;
    while (!job.finished()) {
      job.step(4, dag::PickOrder::kFifo);
      ASSERT_LE(++guard, 100000);
    }
    EXPECT_EQ(job.completed_work(), job.total_work());
    // Fractional level accounting accumulates rounding across many tasks.
    EXPECT_NEAR(job.level_progress(),
                static_cast<double>(job.critical_path()), 1e-9);
    EXPECT_EQ(job.ready_count(), 0);
  }
}

TEST(WorkStealingJob, SingleWorkerNeverSteals) {
  WorkStealingJob job(dag::builders::diamond(6), 42);
  while (!job.finished()) {
    job.step(1, dag::PickOrder::kFifo);
  }
  EXPECT_EQ(job.counters().successful_steals, 0);
  EXPECT_EQ(job.counters().steal_attempts, 0);
}

TEST(WorkStealingJob, StealsSpreadWork) {
  // A wide diamond with several workers: after the source completes, the
  // other workers must steal to participate.
  WorkStealingJob job(dag::builders::diamond(64), 42);
  while (!job.finished()) {
    job.step(8, dag::PickOrder::kFifo);
  }
  EXPECT_GT(job.counters().successful_steals, 0);
  EXPECT_GT(job.counters().steal_attempts,
            job.counters().successful_steals / 2);
}

TEST(WorkStealingJob, StealLatencySlowsFirstSpread) {
  // With 8 workers, the 64 middle tasks of a diamond take at least
  // 64/8 = 8 steps plus the initial spread; total completion must exceed
  // the greedy bound of 1 + 8 + 1 steps.
  WorkStealingJob job(dag::builders::diamond(64), 7);
  dag::Steps steps = 0;
  while (!job.finished()) {
    job.step(8, dag::PickOrder::kFifo);
    ++steps;
  }
  EXPECT_GE(steps, 10);
}

TEST(WorkStealingJob, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    WorkStealingJob job(dag::builders::diamond(32), seed);
    std::vector<dag::TaskCount> per_step;
    while (!job.finished()) {
      per_step.push_back(job.step(4, dag::PickOrder::kFifo));
    }
    return per_step;
  };
  EXPECT_EQ(run(9), run(9));
}

TEST(WorkStealingJob, ZeroProcsNoProgress) {
  WorkStealingJob job(dag::builders::chain(3), 1);
  EXPECT_EQ(job.step(0, dag::PickOrder::kFifo), 0);
  EXPECT_EQ(job.completed_work(), 0);
}

TEST(WorkStealingJob, NegativeProcsThrow) {
  WorkStealingJob job(dag::builders::chain(3), 1);
  EXPECT_THROW(job.step(-1, dag::PickOrder::kFifo), std::invalid_argument);
}

TEST(WorkStealingJob, MuggingPreservesTasks) {
  // Grow to many workers, then shrink the allotment: no task may be lost.
  WorkStealingJob job(dag::builders::diamond(40), 11);
  job.step(8, dag::PickOrder::kFifo);  // source done; 40 middles enabled
  job.step(8, dag::PickOrder::kFifo);
  job.step(8, dag::PickOrder::kFifo);
  const dag::TaskCount before = job.completed_work();
  // Shrink to 2 workers; orphan deques must be mugged, not dropped.
  while (!job.finished()) {
    job.step(2, dag::PickOrder::kFifo);
  }
  EXPECT_GT(job.counters().muggings, 0);
  EXPECT_EQ(job.completed_work(), 42);
  EXPECT_GT(job.completed_work(), before);
}

TEST(WorkStealingJob, FreshCloneReplaysIdentically) {
  WorkStealingJob job(dag::builders::diamond(16), 5);
  std::vector<dag::TaskCount> first;
  while (!job.finished()) {
    first.push_back(job.step(3, dag::PickOrder::kFifo));
  }
  const auto clone = job.fresh_clone();
  std::vector<dag::TaskCount> second;
  while (!clone->finished()) {
    second.push_back(clone->step(3, dag::PickOrder::kFifo));
  }
  EXPECT_EQ(first, second);
}

TEST(WorkStealingJob, RejectsCyclicStructure) {
  dag::DagStructure cyclic;
  cyclic.children = {{1}, {0}};
  EXPECT_THROW(WorkStealingJob(cyclic, 1), std::invalid_argument);
}

TEST(AStealScheduler, SpecShape) {
  const core::SchedulerSpec spec = a_steal_spec();
  EXPECT_EQ(spec.name, "A-Steal");
  EXPECT_EQ(spec.execution->name(), "work-stealing");
  EXPECT_EQ(spec.request->name(), "a-steal");
  const auto clone = spec.request->clone();
  EXPECT_EQ(clone->name(), "a-steal");
}

TEST(AbpScheduler, SpecShape) {
  const core::SchedulerSpec spec = abp_spec(64);
  EXPECT_EQ(spec.name, "ABP");
  EXPECT_EQ(spec.request->first_request(), 64);
}

TEST(AStealScheduler, RunsForkJoinJobToCompletion) {
  util::Rng rng(17);
  const auto widths_job = workload::make_fork_join_job(
      rng, workload::ForkJoinSpec{.transition_factor = 6.0,
                                  .phase_pairs = 2,
                                  .min_phase_levels = 50,
                                  .max_phase_levels = 150});
  // Work stealing needs the explicit DAG form.
  std::vector<dag::TaskCount> widths;
  for (const dag::LevelRun& run : widths_job->runs()) {
    widths.insert(widths.end(), static_cast<std::size_t>(run.levels),
                  run.width);
  }
  WorkStealingJob job(dag::builders::barrier_profile(widths), 23);
  const sim::JobTrace trace = core::run_single(
      a_steal_spec(), job,
      sim::SingleJobConfig{.processors = 32, .quantum_length = 50});
  EXPECT_TRUE(trace.finished());
  EXPECT_EQ(trace.work, widths_job->total_work());
  EXPECT_GE(trace.response_time(), trace.critical_path);
}

TEST(AbpScheduler, WastesMoreThanASteal) {
  // ABP holds the whole machine; on a mostly serial job that is pure
  // waste, while A-Steal's feedback shrinks its allotment.
  const dag::DagStructure structure = dag::builders::fork_join(
      {{1, 400}, {8, 100}, {1, 400}});
  const sim::SingleJobConfig config{.processors = 64, .quantum_length = 50};
  WorkStealingJob asteal_job(structure, 3);
  const sim::JobTrace asteal_trace =
      core::run_single(a_steal_spec(), asteal_job, config);
  WorkStealingJob abp_job(structure, 3);
  const sim::JobTrace abp_trace =
      core::run_single(abp_spec(64), abp_job, config);
  EXPECT_TRUE(asteal_trace.finished());
  EXPECT_TRUE(abp_trace.finished());
  EXPECT_LT(asteal_trace.total_waste(), abp_trace.total_waste() / 2);
}

}  // namespace
}  // namespace abg::steal
