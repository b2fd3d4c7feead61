#include "workload/fork_join.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/run.hpp"
#include "metrics/parallelism_stats.hpp"
#include "sim/quantum_engine.hpp"

namespace abg::workload {
namespace {

TEST(ForkJoinWidths, AlternatesSerialAndParallel) {
  util::Rng rng(11);
  ForkJoinSpec spec;
  spec.transition_factor = 8.0;
  spec.phase_pairs = 3;
  spec.min_phase_levels = 2;
  spec.max_phase_levels = 5;
  const auto job = make_fork_join_job(rng, spec);
  // Only widths 1 and 8 appear, and both do.
  bool saw_serial = false;
  bool saw_parallel = false;
  for (const dag::LevelRun& run : job->runs()) {
    const dag::TaskCount w = run.width;
    EXPECT_TRUE(w == 1 || w == 8) << "unexpected width " << w;
    saw_serial = saw_serial || w == 1;
    saw_parallel = saw_parallel || w == 8;
  }
  EXPECT_TRUE(saw_serial);
  EXPECT_TRUE(saw_parallel);
}

TEST(ForkJoinWidths, PhaseLengthsWithinRange) {
  util::Rng rng(13);
  ForkJoinSpec spec;
  spec.transition_factor = 4.0;
  spec.phase_pairs = 5;
  spec.min_phase_levels = 3;
  spec.max_phase_levels = 7;
  const auto job = make_fork_join_job(rng, spec);
  // Adjacent same-width phases would merge into one run, but serial and
  // parallel phases alternate, so every run is exactly one phase.
  for (const dag::LevelRun& run : job->runs()) {
    EXPECT_GE(run.levels, 3);
    EXPECT_LE(run.levels, 7);
  }
  EXPECT_EQ(job->runs().size(), 10u);  // 5 pairs = 10 phases
}

TEST(ForkJoinPhases, WidthsMatchPhaseExpansion) {
  ForkJoinSpec spec;
  spec.transition_factor = 5.0;
  spec.phase_pairs = 3;
  spec.min_phase_levels = 2;
  spec.max_phase_levels = 9;
  util::Rng a(31);
  util::Rng b(31);
  const auto phases = fork_join_phases(a, spec);
  const auto job = make_fork_join_job(b, spec);
  EXPECT_EQ(job->runs(), phases);
  ASSERT_EQ(phases.size(), 6u);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(phases[i].width, i % 2 == 0 ? 1 : 5);
    EXPECT_GE(phases[i].levels, 2);
    EXPECT_LE(phases[i].levels, 9);
  }
}

TEST(ForkJoinPhases, DagAndProfileShareCharacteristics) {
  ForkJoinSpec spec;
  spec.transition_factor = 4.0;
  spec.phase_pairs = 2;
  spec.min_phase_levels = 3;
  spec.max_phase_levels = 8;
  util::Rng rng(77);
  const auto phases = fork_join_phases(rng, spec);
  dag::DagJob dag_job{dag::builders::fork_join(phases)};
  const dag::ProfileJob profile_job = dag::ProfileJob::from_runs(phases);
  EXPECT_EQ(dag_job.total_work(), profile_job.total_work());
  EXPECT_EQ(dag_job.critical_path(), profile_job.critical_path());
}

TEST(ForkJoinWidths, Deterministic) {
  ForkJoinSpec spec = figure5_spec(10.0, 100);
  util::Rng a(5);
  util::Rng b(5);
  EXPECT_EQ(make_fork_join_job(a, spec)->runs(),
            make_fork_join_job(b, spec)->runs());
}

TEST(ForkJoinWidths, Validation) {
  util::Rng rng(1);
  ForkJoinSpec spec;
  spec.transition_factor = 0.5;
  EXPECT_THROW(make_fork_join_job(rng, spec), std::invalid_argument);
  spec = ForkJoinSpec{};
  spec.phase_pairs = 0;
  EXPECT_THROW(make_fork_join_job(rng, spec), std::invalid_argument);
  spec = ForkJoinSpec{};
  spec.min_phase_levels = 10;
  spec.max_phase_levels = 5;
  EXPECT_THROW(make_fork_join_job(rng, spec), std::invalid_argument);
}

TEST(MakeForkJoinJob, JobCharacteristics) {
  util::Rng rng(17);
  ForkJoinSpec spec;
  spec.transition_factor = 6.0;
  spec.phase_pairs = 4;
  spec.min_phase_levels = 10;
  spec.max_phase_levels = 20;
  const auto job = make_fork_join_job(rng, spec);
  EXPECT_GE(job->critical_path(), 4 * 2 * 10);
  EXPECT_LE(job->critical_path(), 4 * 2 * 20);
  EXPECT_GT(job->total_work(), job->critical_path());
}

TEST(Figure5Spec, ScalesWithQuantumLength) {
  const ForkJoinSpec spec = figure5_spec(20.0, 1000);
  EXPECT_DOUBLE_EQ(spec.transition_factor, 20.0);
  EXPECT_EQ(spec.min_phase_levels, 2000);
  EXPECT_EQ(spec.max_phase_levels, 16000);
  EXPECT_THROW(figure5_spec(20.0, 1), std::invalid_argument);
}

TEST(ForkJoinJob, RealizedTransitionFactorNearTarget) {
  // Scheduling a generated job with ABG: the empirically measured
  // transition factor is on the order of the target (the parallel width),
  // since quanta alternate between serial- and parallel-dominated.
  const dag::Steps quantum_length = 200;
  util::Rng rng(23);
  const ForkJoinSpec spec = figure5_spec(16.0, quantum_length);
  const auto job = make_fork_join_job(rng, spec);
  const core::SchedulerSpec abg = core::abg_spec();
  const sim::JobTrace trace = core::run_single(
      abg, *job,
      sim::SingleJobConfig{.processors = 128,
                           .quantum_length = quantum_length});
  ASSERT_TRUE(trace.finished());
  const double measured = metrics::empirical_transition_factor(trace);
  EXPECT_GE(measured, 2.0);
  EXPECT_LE(measured, 40.0);
}

}  // namespace
}  // namespace abg::workload
