// Determinism contract of the sharded set engine: byte-identical results
// at any worker-thread count and across repeated runs, flat equivalence at
// one group, fairness within each group, and clear rejection of the features the sharded engine does
// not model.  Also pins the sweep-layer JSONL: hier fields round-trip when
// set and stay absent when the run is flat.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <stdexcept>
#include <utility>
#include <vector>

#include "alloc/equipartition.hpp"
#include "alloc/hesrpt.hpp"
#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "exp/result_sink.hpp"
#include "exp/runner.hpp"
#include "fault/fault_plan.hpp"
#include "hier/desire_aggregator.hpp"
#include "sched/a_control.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_length.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/job_set.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

/// A moderately loaded job set with staggered releases, so admission,
/// completion and the idle fast-path all fire inside the group loops.
std::vector<JobSubmission> make_submissions(std::uint64_t seed) {
  util::Rng rng(seed);
  workload::JobSetSpec spec;
  spec.load = 1.5;
  spec.processors = 16;
  spec.min_phase_levels = 60;
  spec.max_phase_levels = 250;
  auto generated = workload::make_job_set(rng, spec);
  std::vector<JobSubmission> subs;
  for (std::size_t i = 0; i < generated.size(); ++i) {
    JobSubmission s;
    s.job = std::move(generated[i].job);
    s.release_step = static_cast<dag::Steps>(i % 3) * 40;
    subs.push_back(std::move(s));
  }
  return subs;
}

SimConfig hier_config(int groups, int threads,
                      dag::Steps rebalance_quanta = 1) {
  SimConfig config{.processors = 16, .quantum_length = 50};
  config.hier.groups = groups;
  config.hier.threads = threads;
  config.hier.rebalance_quanta = rebalance_quanta;
  return config;
}

SimResult run_hier(const SimConfig& config, std::uint64_t seed = 11) {
  return core::run_set(core::abg_spec(), make_submissions(seed), config);
}

void expect_results_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.total_waste, b.total_waste);
  EXPECT_EQ(a.quanta, b.quanta);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const JobTrace& x = a.jobs[j];
    const JobTrace& y = b.jobs[j];
    EXPECT_EQ(x.release_step, y.release_step) << "job " << j;
    EXPECT_EQ(x.completion_step, y.completion_step) << "job " << j;
    EXPECT_EQ(x.work, y.work) << "job " << j;
    ASSERT_EQ(x.quanta.size(), y.quanta.size()) << "job " << j;
    for (std::size_t q = 0; q < x.quanta.size(); ++q) {
      const sched::QuantumStats& s = x.quanta[q];
      const sched::QuantumStats& t = y.quanta[q];
      EXPECT_EQ(s.start_step, t.start_step) << "job " << j << " q " << q;
      EXPECT_EQ(s.request, t.request) << "job " << j << " q " << q;
      EXPECT_EQ(s.allotment, t.allotment) << "job " << j << " q " << q;
      EXPECT_EQ(s.available, t.available) << "job " << j << " q " << q;
      EXPECT_EQ(s.length, t.length) << "job " << j << " q " << q;
      EXPECT_EQ(s.steps_used, t.steps_used) << "job " << j << " q " << q;
      EXPECT_EQ(s.work, t.work) << "job " << j << " q " << q;
      EXPECT_EQ(s.finished, t.finished) << "job " << j << " q " << q;
      EXPECT_EQ(s.full, t.full) << "job " << j << " q " << q;
    }
  }
}

TEST(ShardedEngine, OneGroupMatchesFlatRunSet) {
  // The golden-fixture contract in unit-test form: hier-groups=1 cloning
  // the machine allocator reproduces the flat sync engine trace for trace,
  // with and without reallocation cost, under DEQ and under the size-aware
  // heSRPT allocator.  heSRPT's input is seed 12: five jobs of distinct
  // sizes whose size order differs from their index order, so a group
  // loop that withheld remaining work would rank them differently.
  for (const bool hesrpt : {false, true}) {
    const std::uint64_t seed = hesrpt ? 12 : 11;
    std::set<dag::TaskCount> sizes;
    for (const JobSubmission& s : make_submissions(seed)) {
      sizes.insert(s.job->total_work());
    }
    ASSERT_EQ(sizes.size(), make_submissions(seed).size());
    for (const dag::Steps cost : {0, 1}) {
      SCOPED_TRACE(std::string(hesrpt ? "hesrpt" : "deq") + " cost " +
                   std::to_string(cost));
      std::unique_ptr<alloc::Allocator> allocator;
      if (hesrpt) {
        allocator = std::make_unique<alloc::HeSrpt>();
      } else {
        allocator = std::make_unique<alloc::EquiPartition>();
      }
      SimConfig flat{.processors = 16, .quantum_length = 50};
      flat.reallocation_cost_per_proc = cost;
      SimConfig hier = hier_config(1, 2);
      hier.reallocation_cost_per_proc = cost;
      const SimResult flat_result = core::run_set(
          core::abg_spec(), make_submissions(seed), flat, allocator.get());
      const SimResult hier_result = core::run_set(
          core::abg_spec(), make_submissions(seed), hier, allocator.get());
      expect_results_identical(flat_result, hier_result);
    }
  }
}

TEST(ShardedEngine, IdenticalAtAnyThreadCount) {
  const SimResult one = run_hier(hier_config(4, 1));
  const SimResult two = run_hier(hier_config(4, 2));
  const SimResult four = run_hier(hier_config(4, 4));
  expect_results_identical(one, two);
  expect_results_identical(one, four);
}

TEST(ShardedEngine, IdenticalOnRepeatedRuns) {
  const SimResult first = run_hier(hier_config(4, 3));
  const SimResult second = run_hier(hier_config(4, 3));
  expect_results_identical(first, second);
}

TEST(ShardedEngine, LongerRebalanceEpochsStayDeterministic) {
  // Epochs of 3 quanta change the allocation sequence (fewer root splits)
  // but must not change it across thread counts.
  const SimResult serial = run_hier(hier_config(4, 1, 3));
  const SimResult pooled = run_hier(hier_config(4, 4, 3));
  expect_results_identical(serial, pooled);
  EXPECT_GT(serial.makespan, 0);
}

TEST(ShardedEngine, NamedGroupAllocatorRunsDeterministically) {
  SimConfig config = hier_config(3, 1);
  config.hier.allocator = "rr";
  const SimResult serial = run_hier(config);
  config.hier.threads = 4;
  const SimResult pooled = run_hier(config);
  expect_results_identical(serial, pooled);
}

TEST(ShardedEngine, FairWithinEachGroup) {
  // Global fairness is traded away at groups > 1 (a job in a contended
  // group can get less than one in a quiet group), but each group's DEQ
  // still divides its budget fairly: at any quantum start, a member more
  // than one processor below another member of the same group must have
  // been granted its full request.
  for (const int groups : {2, 4}) {
    for (const dag::Steps epoch : {1, 4}) {
      SCOPED_TRACE(std::to_string(groups) + " groups, epoch " +
                   std::to_string(epoch));
      SimConfig config = hier_config(groups, 1, epoch);
      config.processors = 64;
      config.hier.allocator = "deq";
      // Twelve jobs whose parallelism swings between 1 and 4..48, so each
      // group holds several jobs at once, some below their fair share.
      std::vector<JobSubmission> subs;
      for (int j = 0; j < 12; ++j) {
        JobSubmission s;
        s.job = std::make_unique<dag::ProfileJob>(
            dag::ProfileJob::from_runs(workload::square_wave_profile(
                1, 30 + 10 * (j % 4), 4 + 4 * j, 60, 3)));
        s.release_step = static_cast<dag::Steps>(j % 3) * 50;
        subs.push_back(std::move(s));
      }
      const SimResult result =
          core::run_set(core::abg_spec(), std::move(subs), config);
      // Start step -> every (job, quantum) starting there.
      std::map<dag::Steps, std::vector<std::pair<std::size_t,
                                                 sched::QuantumStats>>>
          by_start;
      for (std::size_t j = 0; j < result.jobs.size(); ++j) {
        for (const sched::QuantumStats& q : result.jobs[j].quanta) {
          by_start[q.start_step].emplace_back(j, q);
        }
      }
      const auto g = static_cast<std::size_t>(groups);
      std::int64_t unequal_pairs = 0;
      for (const auto& [start, quanta] : by_start) {
        for (const auto& [i, a] : quanta) {
          for (const auto& [k, b] : quanta) {
            if (hier::group_of(i, g) != hier::group_of(k, g) ||
                a.allotment >= b.allotment - 1) {
              continue;
            }
            ++unequal_pairs;
            EXPECT_EQ(a.allotment, a.request)
                << "step " << start << ": job " << i << " under-served vs "
                << "job " << k << " of its own group";
          }
        }
      }
      EXPECT_GT(unequal_pairs, 0) << "no unequal pair; test is vacuous";
    }
  }
}

TEST(ShardedEngine, AllJobsCompleteAndConserveWork) {
  const SimResult result = run_hier(hier_config(4, 2));
  ASSERT_FALSE(result.jobs.empty());
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    EXPECT_GT(result.jobs[j].completion_step, result.jobs[j].release_step)
        << "job " << j << " never completed";
    dag::TaskCount executed = 0;
    for (const auto& q : result.jobs[j].quanta) {
      executed += q.work;
    }
    EXPECT_EQ(executed, result.jobs[j].work) << "job " << j;
  }
}

TEST(ShardedEngine, RejectsUnsupportedFeatures) {
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::EquiPartition deq;

  {
    // groups < 1 is a contract violation of the direct entry point (via
    // core::run_set, 0 groups selects the flat path instead).
    SimConfig config = hier_config(0, 1);
    EXPECT_THROW(simulate_job_set_sharded(make_submissions(5), exec, request,
                                          deq, config),
                 std::invalid_argument);
  }
  {
    SimConfig config = hier_config(2, 1);
    const fault::FaultPlan plan = fault::periodic_crash_plan(0, 65, 90, 2);
    config.faults = &plan;
    EXPECT_THROW(simulate_job_set_sharded(make_submissions(5), exec, request,
                                          deq, config),
                 std::invalid_argument);
  }
  {
    SimConfig config = hier_config(2, 1);
    config.engine = EngineKind::kAsync;
    EXPECT_THROW(simulate_job_set_sharded(make_submissions(5), exec, request,
                                          deq, config),
                 std::invalid_argument);
  }
  {
    SimConfig config = hier_config(2, 1);
    sched::AdaptiveQuantumLength policy{sched::AdaptiveQuantumConfig{}};
    config.quantum_length_policy = &policy;
    EXPECT_THROW(simulate_job_set_sharded(make_submissions(5), exec, request,
                                          deq, config),
                 std::invalid_argument);
  }
}

/// Sweep grid with a hier axis: the same workload flat, at 2 groups and at
/// 4 groups.
std::vector<exp::RunSpec> hier_grid() {
  std::vector<exp::RunSpec> specs;
  for (const int groups : {0, 2, 4}) {
    exp::RunSpec spec;
    spec.scheduler = exp::SchedulerKind::kAbg;
    spec.workload.kind = exp::WorkloadKind::kSquareWave;
    spec.workload.jobs = 3;
    spec.workload.levels = 150;
    spec.machine = {.processors = 16, .quantum_length = 50};
    spec.hier_groups = groups;
    if (groups > 0) {
      spec.hier_alloc = "deq";
    }
    spec.group = "groups=" + std::to_string(groups);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string jsonl_of(const std::vector<exp::RunRecord>& records) {
  exp::ResultSink sink("hier_test", 2008);
  sink.add_all(records);
  std::ostringstream os;
  sink.write_jsonl(os);
  return os.str();
}

TEST(HierSweep, JsonlByteIdenticalAcrossWorkerCounts) {
  const std::vector<exp::RunSpec> specs = hier_grid();
  std::string baseline;
  for (const int jobs : {1, 4, 8}) {
    exp::SweepConfig config;
    config.threads = jobs;
    const std::string jsonl =
        jsonl_of(exp::SweepRunner(config).run(specs));
    if (baseline.empty()) {
      baseline = jsonl;
    } else {
      EXPECT_EQ(jsonl, baseline) << "diverged at --jobs " << jobs;
    }
  }
  EXPECT_FALSE(baseline.empty());
}

TEST(HierSweep, JsonlCarriesHierFieldsOnlyWhenSet) {
  exp::SweepConfig config;
  config.threads = 2;
  const std::vector<exp::RunRecord> records =
      exp::SweepRunner(config).run(hier_grid());
  ASSERT_EQ(records.size(), 3u);
  const std::string jsonl = jsonl_of(records);
  std::istringstream lines(jsonl);
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) {
    rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), 3u);
  // Flat record: the hier fields are omitted so pre-hier artifacts stay
  // byte-identical.
  EXPECT_EQ(rows[0].find("hier_groups"), std::string::npos);
  EXPECT_EQ(rows[0].find("hier_alloc"), std::string::npos);
  EXPECT_NE(rows[1].find("\"hier_groups\":2"), std::string::npos);
  EXPECT_NE(rows[1].find("\"hier_alloc\":\"deq\""), std::string::npos);
  EXPECT_NE(rows[2].find("\"hier_groups\":4"), std::string::npos);
}

TEST(HierSweep, GroupCountChangesScheduleButNotJobCount) {
  exp::SweepConfig config;
  config.threads = 2;
  const std::vector<exp::RunRecord> records =
      exp::SweepRunner(config).run(hier_grid());
  ASSERT_EQ(records.size(), 3u);
  for (const auto& record : records) {
    EXPECT_TRUE(record.has_metric("makespan"));
    EXPECT_GT(record.metric("makespan"), 0.0);
  }
}

}  // namespace
}  // namespace abg::sim
