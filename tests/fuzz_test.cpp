// Randomized cross-cutting stress tests: random workloads x random
// schedulers x random allocators x random machine configs, every produced
// trace pushed through the consistency validator and cross-checked against
// global invariants.  These are the tests that catch interaction bugs no
// focused unit test anticipates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "alloc/availability_profile.hpp"
#include "alloc/equipartition.hpp"
#include "alloc/hesrpt.hpp"
#include "alloc/round_robin.hpp"
#include "alloc/unconstrained.hpp"
#include "core/run.hpp"
#include "dag/builders.hpp"
#include "dag/dag_job.hpp"
#include "dag/profile_job.hpp"
#include "fault/fault_plan.hpp"
#include "open/streaming_engine.hpp"
#include "random_fault_plan.hpp"
#include "sim/validate.hpp"
#include "steal/schedulers.hpp"
#include "steal/work_stealing_job.hpp"
#include "workload/fork_join.hpp"
#include "workload/profiles.hpp"

namespace abg {
namespace {

std::unique_ptr<dag::Job> random_job(util::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return std::make_unique<dag::ProfileJob>(
          workload::random_walk_profile(rng, rng.uniform_int(1, 300), 24,
                                        2.0));
    case 1: {
      workload::ForkJoinSpec spec;
      spec.transition_factor = static_cast<double>(rng.uniform_int(1, 24));
      spec.phase_pairs = static_cast<int>(rng.uniform_int(1, 4));
      spec.min_phase_levels = 5;
      spec.max_phase_levels = 120;
      return workload::make_fork_join_job(rng, spec);
    }
    case 2:
      return std::make_unique<dag::DagJob>(dag::builders::random_layered(
          rng, rng.uniform_int(1, 40), rng.uniform_int(1, 10), 0.3));
    case 3:
      return std::make_unique<dag::DagJob>(dag::builders::series_parallel(
          rng, static_cast<int>(rng.uniform_int(0, 5)), 3));
    case 4:
      return std::make_unique<steal::WorkStealingJob>(
          dag::builders::random_layered(rng, rng.uniform_int(1, 30),
                                        rng.uniform_int(1, 8), 0.4),
          rng.engine()());
    default: {
      const auto width = rng.uniform_int(1, 12);
      std::vector<dag::Steps> durations(static_cast<std::size_t>(width) + 2);
      for (auto& d : durations) {
        d = rng.uniform_int(1, 9);
      }
      return std::make_unique<dag::DagJob>(dag::builders::expand_weighted(
          dag::builders::diamond(width), durations));
    }
  }
}

core::SchedulerSpec random_scheduler(util::Rng& rng, int processors) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return core::abg_spec(
          core::AbgConfig{.convergence_rate = rng.uniform_real(0.0, 0.9)});
    case 1:
      return core::a_greedy_spec();
    case 2:
      return core::abg_auto_spec();
    case 3:
      return core::static_spec(
          static_cast<int>(rng.uniform_int(1, processors)));
    default:
      return core::SchedulerSpec{
          "filtered",
          std::make_unique<sched::BGreedyExecution>(),
          std::make_unique<sched::FilteredAControlRequest>(
              sched::FilteredAControlConfig{0.2,
                                            rng.uniform_real(0.1, 1.0)})};
  }
}

std::unique_ptr<alloc::Allocator> random_allocator(util::Rng& rng,
                                                   int processors) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return std::make_unique<alloc::EquiPartition>();
    case 1:
      return std::make_unique<alloc::RoundRobin>();
    case 2:
      return std::make_unique<alloc::Unconstrained>();
    default: {
      std::vector<int> availability;
      const auto entries = rng.uniform_int(1, 16);
      for (int i = 0; i < entries; ++i) {
        availability.push_back(
            static_cast<int>(rng.uniform_int(1, processors)));
      }
      return std::make_unique<alloc::AvailabilityProfile>(
          std::move(availability));
    }
  }
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, SingleJobTracesAlwaysValidate) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const int processors = static_cast<int>(rng.uniform_int(1, 64));
    const auto job = random_job(rng);
    const auto spec = random_scheduler(rng, processors);
    const auto allocator = random_allocator(rng, processors);
    sim::SingleJobConfig config{
        .processors = processors,
        .quantum_length = rng.uniform_int(1, 60),
        .reallocation_cost_per_proc = rng.uniform_int(0, 1)};
    if (config.quantum_length < 8) {
      config.reallocation_cost_per_proc = 0;  // avoid by-design livelock
    }
    const sim::JobTrace trace =
        core::run_single(spec, *job, config, allocator.get());

    const auto issues = sim::validate_trace(trace);
    ASSERT_TRUE(issues.empty())
        << spec.name << " on " << allocator->name() << ": "
        << issues.front();
    ASSERT_TRUE(trace.finished());
    ASSERT_EQ(trace.work, job->total_work());
    ASSERT_GE(trace.response_time(), trace.critical_path);
    // Lower bound: a machine of P processors cannot beat T1/P rounded up.
    ASSERT_GE(trace.response_time(),
              (trace.work + processors - 1) / processors);
  }
}

TEST_P(Fuzz, JobSetResultsAlwaysValidate) {
  util::Rng rng(GetParam() ^ 0xF00DULL);
  for (int trial = 0; trial < 3; ++trial) {
    const int processors = static_cast<int>(rng.uniform_int(2, 32));
    const auto jobs = rng.uniform_int(1, 6);
    std::vector<sim::JobSubmission> subs;
    for (int j = 0; j < jobs; ++j) {
      sim::JobSubmission s;
      // Keep the set to centralized job types (work stealing included via
      // single-job fuzzing above).
      util::Rng job_rng = rng.split();
      s.job = std::make_unique<dag::ProfileJob>(
          workload::random_walk_profile(job_rng, rng.uniform_int(1, 150),
                                        16, 2.0));
      s.release_step = rng.uniform_int(0, 200);
      subs.push_back(std::move(s));
    }
    const auto spec = random_scheduler(rng, processors);
    std::unique_ptr<alloc::Allocator> allocator;
    if (rng.bernoulli(0.5)) {
      allocator = std::make_unique<alloc::HeSrpt>();
    } else {
      allocator = std::make_unique<alloc::EquiPartition>();
    }
    sim::SimConfig config{
        .processors = processors,
        .quantum_length = rng.uniform_int(1, 40),
        .max_active_jobs =
            static_cast<int>(rng.uniform_int(1, processors)),
        .reallocation_cost_per_proc = rng.uniform_int(0, 1)};
    // Every closed driver: flat sync, async, sharded over 1-4 groups and
    // cluster over 1-3 machines with or without migration, the tiered ones
    // on 1-3 pool workers.
    std::string driver;
    int total_processors = processors;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        driver = "sync";
        break;
      case 1:
        driver = "async";
        config.engine = sim::EngineKind::kAsync;
        break;
      case 2:
        config.hier.groups = static_cast<int>(rng.uniform_int(1, 4));
        config.hier.threads = static_cast<int>(rng.uniform_int(1, 3));
        driver = "sharded x" + std::to_string(config.hier.groups);
        break;
      default:
        config.cluster.machines = static_cast<int>(rng.uniform_int(1, 3));
        config.cluster.migration_period = rng.bernoulli(0.5) ? 2 : 0;
        config.cluster.threads = static_cast<int>(rng.uniform_int(1, 3));
        total_processors = processors * config.cluster.machines;
        driver = "cluster x" + std::to_string(config.cluster.machines) +
                 " migration " +
                 std::to_string(config.cluster.migration_period);
        break;
    }
    if (config.engine == sim::EngineKind::kAsync ||
        config.quantum_length < 8) {
      // Tiny quanta with migration charges can livelock by design (every
      // quantum consumed by reallocation); that regime is exercised
      // deliberately in overhead_test, not fuzzed.
      config.reallocation_cost_per_proc = 0;
    }
    // The flat drivers draw a fault plan in three trials of four, from a
    // stream of its own so every draw above keeps its value.
    fault::FaultPlan plan;
    util::Rng fault_rng(
        util::Rng::derive_seed(GetParam() ^ 0xFA17ULL,
                               static_cast<std::uint64_t>(trial)));
    if (config.hier.groups == 0 && config.cluster.machines == 0 &&
        fault_rng.bernoulli(0.75)) {
      plan = test::random_fault_plan(fault_rng, static_cast<int>(jobs),
                                     processors, 300);
      config.faults = &plan;
      driver += " faulted";
    }
    const sim::SimResult result =
        core::run_set(spec, std::move(subs), config, allocator.get());
    const auto issues = sim::validate_result(result, total_processors);
    ASSERT_TRUE(issues.empty())
        << spec.name << " on " << allocator->name() << " (" << driver
        << "): " << issues.front();
  }
}

TEST_P(Fuzz, OpenStreamMatchesFlatJobSet) {
  // An open stream whose arrivals are all released at step 0 and fit under
  // the admission cap (n <= P) is the flat job set: same admission order,
  // same slots, same allocations and quanta.  Both drivers must agree on
  // every aggregate.
  util::Rng rng(GetParam() ^ 0x0BE7ULL);
  for (int trial = 0; trial < 3; ++trial) {
    const int processors = static_cast<int>(rng.uniform_int(2, 32));
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(1, std::min(processors, 8)));
    std::vector<std::unique_ptr<dag::Job>> jobs;
    std::vector<sim::JobSubmission> subs;
    for (std::size_t j = 0; j < n; ++j) {
      jobs.push_back(random_job(rng));
      sim::JobSubmission s;
      s.job = jobs.back()->fresh_clone();
      subs.push_back(std::move(s));
    }
    const auto spec = random_scheduler(rng, processors);
    const bool sized = rng.bernoulli(0.5);
    const auto make_allocator = [sized]() -> std::unique_ptr<alloc::Allocator> {
      if (sized) {
        return std::make_unique<alloc::HeSrpt>();
      }
      return std::make_unique<alloc::EquiPartition>();
    };
    const dag::Steps length = rng.uniform_int(1, 60);
    // Tiny quanta with migration charges can livelock by design.
    const dag::Steps cost = length < 8 ? 0 : rng.uniform_int(0, 1);

    const std::string path = "fuzz_open_stream_" +
                             std::to_string(GetParam()) + "_" +
                             std::to_string(trial) + ".jsonl";
    {
      std::ofstream out(path);
      open::write_arrival_trace(out,
                                std::vector<open::Arrival>(n, open::Arrival{}));
    }
    open::OpenConfig open_config;
    open_config.processors = processors;
    open_config.quantum_length = length;
    open_config.jobs_total = static_cast<std::int64_t>(n);
    open_config.arrival = open::ArrivalKind::kTrace;
    open_config.trace_path = path;
    open_config.reallocation_cost_per_proc = cost;
    std::size_t handed_out = 0;
    const open::JobFactory factory =
        [&jobs, &handed_out](util::Rng&, const open::Arrival&) {
          return std::move(jobs.at(handed_out++));
        };
    const auto open_allocator = make_allocator();
    const open::OpenResult streamed =
        open::run_stream(*spec.execution, *spec.request, factory,
                         *open_allocator, open_config, GetParam());
    std::remove(path.c_str());

    sim::SimConfig config{.processors = processors,
                          .quantum_length = length,
                          .reallocation_cost_per_proc = cost};
    const auto flat_allocator = make_allocator();
    const sim::SimResult flat =
        sim::simulate_job_set(std::move(subs), *spec.execution,
                              *spec.request, *flat_allocator, config);
    dag::TaskCount flat_work = 0;
    for (const sim::JobTrace& trace : flat.jobs) {
      flat_work += trace.work;
    }

    const std::string what = spec.name + " on " +
                             std::string(flat_allocator->name()) +
                             ", P=" + std::to_string(processors) +
                             ", L=" + std::to_string(length) +
                             ", cost=" + std::to_string(cost);
    ASSERT_EQ(streamed.completed, static_cast<std::int64_t>(n)) << what;
    EXPECT_EQ(streamed.makespan, flat.makespan) << what;
    EXPECT_EQ(streamed.quanta, flat.quanta) << what;
    EXPECT_EQ(streamed.total_work, flat_work) << what;
    EXPECT_EQ(streamed.total_waste, flat.total_waste) << what;
    EXPECT_NEAR(streamed.stats.response().mean(), flat.mean_response_time,
                1e-9 * std::max(1.0, std::abs(flat.mean_response_time)))
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Range<std::uint64_t>(1u, 13u),
                         [](const auto& param_info) {
                           return "Seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace abg
