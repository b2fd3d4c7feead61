// Determinism contract of the cluster driver: byte-identical results at
// any worker-thread count and across repeated runs, flat equivalence at
// one machine, and clear rejection of the features cluster mode does not
// compose with.  Also pins the sweep-layer JSONL: cluster fields
// round-trip when set and stay absent when the run is flat.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <stdexcept>
#include <vector>

#include "alloc/equipartition.hpp"
#include "alloc/hesrpt.hpp"
#include "cluster/cluster_engine.hpp"
#include "dag/profile_job.hpp"
#include "cluster/cluster_spec.hpp"
#include "cluster/router.hpp"
#include "core/run.hpp"
#include "exp/result_sink.hpp"
#include "exp/runner.hpp"
#include "fault/fault_plan.hpp"
#include "obs/event_bus.hpp"
#include "sched/a_control.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_length.hpp"
#include "sim/quantum_engine.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/job_set.hpp"
#include "workload/profiles.hpp"

namespace abg::cluster {
namespace {

/// A moderately loaded labeled job set with staggered releases, so
/// admission, the idle fast-path, routing and migration all fire.
std::vector<sim::JobSubmission> make_submissions(std::uint64_t seed) {
  util::Rng rng(seed);
  workload::JobSetSpec spec;
  spec.load = 1.5;
  spec.processors = 16;
  spec.min_phase_levels = 60;
  spec.max_phase_levels = 250;
  auto generated = workload::make_job_set(rng, spec);
  std::vector<sim::JobSubmission> subs;
  for (std::size_t i = 0; i < generated.size(); ++i) {
    sim::JobSubmission s;
    s.job = std::move(generated[i].job);
    s.release_step = static_cast<dag::Steps>(i % 3) * 40;
    s.name = "class" + std::to_string(i % 2);
    subs.push_back(std::move(s));
  }
  return subs;
}

sim::SimConfig cluster_config(int machines, int threads,
                              dag::Steps migration_period = 0) {
  sim::SimConfig config{.processors = 16, .quantum_length = 50};
  config.cluster.machines = machines;
  config.cluster.threads = threads;
  config.cluster.migration_period = migration_period;
  return config;
}

sim::SimResult run_cluster(const sim::SimConfig& config,
                           std::uint64_t seed = 11) {
  return core::run_set(core::abg_spec(), make_submissions(seed), config);
}

void expect_results_identical(const sim::SimResult& a,
                              const sim::SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.total_waste, b.total_waste);
  EXPECT_EQ(a.quanta, b.quanta);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const sim::JobTrace& x = a.jobs[j];
    const sim::JobTrace& y = b.jobs[j];
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
      EXPECT_EQ(s.length, t.length) << "job " << j << " q " << q;
      EXPECT_EQ(s.steps_used, t.steps_used) << "job " << j << " q " << q;
      EXPECT_EQ(s.work, t.work) << "job " << j << " q " << q;
      EXPECT_EQ(s.finished, t.finished) << "job " << j << " q " << q;
    }
  }
}

// --- ClusterSpec -----------------------------------------------------------

TEST(ClusterSpec, ResolvesUniformMachinesFromProcessors) {
  sim::SimConfig config{.processors = 24, .quantum_length = 50};
  config.cluster.machines = 3;
  const ClusterSpec spec = ClusterSpec::resolve(config, "test");
  ASSERT_EQ(spec.machines.size(), 3u);
  for (const sim::ClusterMachine& machine : spec.machines) {
    EXPECT_EQ(machine.processors, 24);
    EXPECT_TRUE(machine.regions.empty());
  }
  EXPECT_EQ(spec.total_processors(), 72);
}

TEST(ClusterSpec, RejectsContradictoryShapes) {
  sim::SimConfig config{.processors = 16, .quantum_length = 50};
  config.cluster.machines = 2;
  config.cluster.shapes.resize(1);
  config.cluster.shapes[0].processors = 16;
  // Shape count must equal the machine count.
  EXPECT_THROW(ClusterSpec::resolve(config, "test"), std::invalid_argument);

  config.cluster.shapes.resize(2);
  config.cluster.shapes[1].processors = 0;
  EXPECT_THROW(ClusterSpec::resolve(config, "test"), std::invalid_argument);

  // Regions must cover the machine exactly, with positive multipliers.
  config.cluster.shapes[1].processors = 8;
  config.cluster.shapes[1].regions = {{4, 1.0}, {2, 2.0}};
  EXPECT_THROW(ClusterSpec::resolve(config, "test"), std::invalid_argument);
  config.cluster.shapes[1].regions = {{4, 1.0}, {4, 0.0}};
  EXPECT_THROW(ClusterSpec::resolve(config, "test"), std::invalid_argument);
  config.cluster.shapes[1].regions = {{4, 1.0}, {4, 2.0}};
  EXPECT_NO_THROW(ClusterSpec::resolve(config, "test"));
}

TEST(ClusterSpec, RegionPenaltyMatchesFlatWithoutRegions) {
  sim::ClusterMachine machine;
  machine.processors = 16;
  for (int prev = 0; prev <= 16; prev += 4) {
    for (int cur = 0; cur <= 16; cur += 4) {
      EXPECT_EQ(region_reallocation_penalty(machine, prev, cur, 3, 50),
                sim::reallocation_penalty(prev, cur, 3, 50))
          << prev << " -> " << cur;
    }
  }
}

TEST(ClusterSpec, RegionPenaltyWeighsRemoteRegions) {
  sim::ClusterMachine machine;
  machine.processors = 8;
  machine.regions = {{4, 1.0}, {4, 2.0}};
  // Growth inside the near region pays the flat rate: 2 procs x cost 5.
  EXPECT_EQ(region_reallocation_penalty(machine, 0, 2, 5, 1000), 10);
  // Growth spanning into the remote region: 4 x 1.0 + 2 x 2.0 = 8 units.
  EXPECT_EQ(region_reallocation_penalty(machine, 0, 6, 5, 1000), 40);
  // Shrink pays the same as the growth that mirrors it.
  EXPECT_EQ(region_reallocation_penalty(machine, 6, 0, 5, 1000), 40);
  // The penalty is capped at the quantum length.
  EXPECT_EQ(region_reallocation_penalty(machine, 0, 8, 5, 30), 30);
  // No change or zero cost: no penalty.
  EXPECT_EQ(region_reallocation_penalty(machine, 4, 4, 5, 1000), 0);
  EXPECT_EQ(region_reallocation_penalty(machine, 0, 8, 0, 1000), 0);
}

// --- Routers ---------------------------------------------------------------

TEST(Router, EquilibriumDesireIsAverageParallelism) {
  EXPECT_EQ(equilibrium_desire(1000, 100), 10);
  EXPECT_EQ(equilibrium_desire(1001, 100), 11);  // ceiling
  EXPECT_EQ(equilibrium_desire(10, 100), 1);     // at least 1
  EXPECT_EQ(equilibrium_desire(0, 0), 1);
}

TEST(Router, MakeRouterRejectsUnknownPolicies) {
  EXPECT_THROW(make_router("warp"), std::invalid_argument);
  EXPECT_EQ(router_names().size(), 4u);
  for (const std::string& name : router_names()) {
    const std::unique_ptr<Router> router = make_router(name);
    ASSERT_NE(router, nullptr);
    EXPECT_EQ(router->name(), name);
  }
  // Empty selects the default least-loaded policy.
  EXPECT_EQ(make_router("")->name(), "least-loaded");
}

std::vector<MachineLoad> four_machines() {
  std::vector<MachineLoad> loads(4);
  for (std::size_t m = 0; m < loads.size(); ++m) {
    loads[m].processors = 16;
  }
  return loads;
}

RouteRequest request_of(std::size_t index, dag::TaskCount work,
                        dag::Steps span, std::string_view job_class = {}) {
  RouteRequest r;
  r.submission_index = index;
  r.work = work;
  r.critical_path = span;
  r.job_class = job_class;
  return r;
}

TEST(Router, IdenticalInputsProduceIdenticalPlacements) {
  // Routers are pure choosers over (request, ledger): two fresh instances
  // fed the same sequence must agree placement for placement.
  for (const std::string& name : router_names()) {
    const std::unique_ptr<Router> a = make_router(name);
    const std::unique_ptr<Router> b = make_router(name);
    std::vector<MachineLoad> loads_a = four_machines();
    std::vector<MachineLoad> loads_b = four_machines();
    for (std::size_t i = 0; i < 32; ++i) {
      const RouteRequest request = request_of(
          i, 100 * (i % 7 + 1), 10 * (i % 3 + 1),
          i % 2 == 0 ? "alpha" : "beta");
      const std::size_t ma = a->route(request, loads_a);
      const std::size_t mb = b->route(request, loads_b);
      ASSERT_LT(ma, loads_a.size());
      EXPECT_EQ(ma, mb) << name << " diverged at job " << i;
      loads_a[ma].assigned_work += request.work;
      loads_a[ma].assigned_jobs += 1;
      loads_b[mb].assigned_work += request.work;
      loads_b[mb].assigned_jobs += 1;
    }
  }
}

TEST(Router, LeastLoadedPicksLowestDensityTiesLowestIndex) {
  const std::unique_ptr<Router> router = make_router("least-loaded");
  std::vector<MachineLoad> loads = four_machines();
  // All empty: ties resolve to machine 0.
  EXPECT_EQ(router->route(request_of(0, 100, 10), loads), 0u);
  loads[0].assigned_work = 100;
  // 1..3 still empty: the tie among them goes to machine 1.
  EXPECT_EQ(router->route(request_of(1, 100, 10), loads), 1u);
  loads[1].assigned_work = 50;
  loads[2].assigned_work = 200;
  loads[3].assigned_work = 300;
  // Lowest density wins outright.
  EXPECT_EQ(router->route(request_of(2, 100, 10), loads), 1u);
  // Density is per processor: a bigger machine absorbs more work.
  loads[1].assigned_work = 400;
  loads[3].processors = 64;  // 300/64 is now the lowest density
  EXPECT_EQ(router->route(request_of(3, 100, 10), loads), 3u);
}

TEST(Router, RoundRobinCycles) {
  const std::unique_ptr<Router> router = make_router("round-robin");
  std::vector<MachineLoad> loads = four_machines();
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(router->route(request_of(i, 100, 10), loads), i % 4);
  }
}

TEST(Router, ClassAffinityCoLocatesClasses) {
  const std::unique_ptr<Router> router = make_router("class-affinity");
  std::vector<MachineLoad> loads = four_machines();
  const std::size_t alpha = router->route(request_of(0, 100, 10, "alpha"),
                                          loads);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(router->route(request_of(i, 50 * i, 10, "alpha"), loads),
              alpha);
  }
}

// --- Cluster engine --------------------------------------------------------

TEST(ClusterEngine, OneMachineMatchesFlatRunSet) {
  // The golden-fixture contract in unit-test form: a 1-machine cluster
  // reproduces the flat sync engine trace for trace, with and without
  // reallocation cost, under DEQ and under the size-aware heSRPT
  // allocator.  heSRPT's input is seed 12: five jobs of distinct sizes
  // whose size order differs from their index order, so a machine loop
  // that withheld remaining work would rank them differently.
  for (const bool hesrpt : {false, true}) {
    const std::uint64_t seed = hesrpt ? 12 : 11;
    std::set<dag::TaskCount> sizes;
    for (const sim::JobSubmission& s : make_submissions(seed)) {
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
      sim::SimConfig flat{.processors = 16, .quantum_length = 50};
      flat.reallocation_cost_per_proc = cost;
      sim::SimConfig one_machine = cluster_config(1, 2);
      one_machine.reallocation_cost_per_proc = cost;
      const sim::SimResult flat_result = core::run_set(
          core::abg_spec(), make_submissions(seed), flat, allocator.get());
      const sim::SimResult cluster_result = core::run_set(
          core::abg_spec(), make_submissions(seed), one_machine,
          allocator.get());
      expect_results_identical(flat_result, cluster_result);
    }
  }
}

TEST(ClusterEngine, IdenticalAtAnyThreadCount) {
  const sim::SimResult one = run_cluster(cluster_config(4, 1));
  const sim::SimResult two = run_cluster(cluster_config(4, 2));
  const sim::SimResult four = run_cluster(cluster_config(4, 4));
  expect_results_identical(one, two);
  expect_results_identical(one, four);
}

TEST(ClusterEngine, IdenticalOnRepeatedRuns) {
  const sim::SimResult first = run_cluster(cluster_config(3, 2, 4));
  const sim::SimResult second = run_cluster(cluster_config(3, 2, 4));
  expect_results_identical(first, second);
}

TEST(ClusterEngine, MigrationStaysDeterministicAcrossThreads) {
  const sim::SimResult serial = run_cluster(cluster_config(4, 1, 2));
  const sim::SimResult pooled = run_cluster(cluster_config(4, 4, 2));
  expect_results_identical(serial, pooled);
  EXPECT_GT(serial.makespan, 0);
}

TEST(ClusterEngine, EveryRouterRunsDeterministically) {
  for (const std::string& name : router_names()) {
    sim::SimConfig config = cluster_config(4, 1, 4);
    config.cluster.router = name;
    const sim::SimResult serial = run_cluster(config);
    config.cluster.threads = 4;
    const sim::SimResult pooled = run_cluster(config);
    expect_results_identical(serial, pooled);
  }
}

TEST(ClusterEngine, HeterogeneousShapesRunDeterministically) {
  sim::SimConfig config = cluster_config(3, 1, 4);
  config.cluster.shapes.resize(3);
  config.cluster.shapes[0].processors = 8;
  config.cluster.shapes[1].processors = 16;
  config.cluster.shapes[1].regions = {{8, 1.0}, {8, 2.5}};
  config.cluster.shapes[2].processors = 4;
  config.reallocation_cost_per_proc = 2;
  const sim::SimResult serial = run_cluster(config);
  config.cluster.threads = 4;
  const sim::SimResult pooled = run_cluster(config);
  expect_results_identical(serial, pooled);
}

TEST(ClusterEngine, AllJobsCompleteAndConserveWork) {
  const sim::SimResult result = run_cluster(cluster_config(4, 2, 2));
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

/// Captures the cluster events the driver publishes.
struct ClusterEventProbe final : obs::Sink {
  std::int64_t routes = 0;
  std::int64_t migrations = 0;
  dag::Steps debt_steps = 0;
  std::int64_t summaries = 0;
  std::int64_t summarized_jobs = 0;

  void on_event(const obs::Event& event) override {
    switch (event.kind) {
      case obs::EventKind::kClusterRoute:
        ++routes;
        break;
      case obs::EventKind::kClusterMigrate:
        ++migrations;
        debt_steps += event.debt_steps;
        break;
      case obs::EventKind::kClusterMachineSummary:
        ++summaries;
        summarized_jobs += event.active_jobs;
        break;
      default:
        break;
    }
  }
};

TEST(ClusterEngine, MigrationDebtIsOneQuantumPerMove) {
  // Overload one machine via class-affinity (every job hashes one way when
  // all share a class) with more jobs than it can admit, then let the
  // imbalance pass spread the queue; each move charges exactly one quantum
  // of transfer debt.  Only queued jobs migrate, so the set must exceed
  // the machine's admission cap (16 = its processors).
  std::vector<sim::JobSubmission> subs;
  for (int i = 0; i < 24; ++i) {
    sim::JobSubmission sub;
    sub.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
        workload::square_wave_profile(4, 150, 4, 150, 1)));
    sub.name = "hot";
    subs.push_back(std::move(sub));
  }
  sim::SimConfig config = cluster_config(4, 2, 1);
  config.cluster.router = "class-affinity";
  obs::EventBus bus;
  ClusterEventProbe probe;
  bus.subscribe(&probe);
  config.obs.event_bus = &bus;
  const sim::SimResult result =
      core::run_set(core::abg_spec(), std::move(subs), config);
  EXPECT_EQ(probe.routes, static_cast<std::int64_t>(result.jobs.size()));
  EXPECT_GT(probe.migrations, 0);
  EXPECT_EQ(probe.debt_steps, probe.migrations * config.quantum_length);
  EXPECT_EQ(probe.summaries, 4);
  // Every job finishes on exactly one machine, tombstones notwithstanding.
  EXPECT_EQ(probe.summarized_jobs,
            static_cast<std::int64_t>(result.jobs.size()));
}

TEST(ClusterEngine, ObserversDoNotPerturbResults) {
  sim::SimConfig config = cluster_config(4, 2, 2);
  const sim::SimResult bare = run_cluster(config);
  obs::EventBus bus;
  ClusterEventProbe probe;
  bus.subscribe(&probe);
  config.obs.event_bus = &bus;
  const sim::SimResult observed = run_cluster(config);
  expect_results_identical(bare, observed);
}

TEST(ClusterEngine, RejectsUnsupportedFeatures) {
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::EquiPartition deq;

  {
    // machines < 1 is a contract violation of the direct entry point (via
    // core::run_set, 0 machines selects the flat path instead).
    sim::SimConfig config = cluster_config(0, 1);
    EXPECT_THROW(simulate_job_set_cluster(make_submissions(5), exec,
                                          request, deq, config),
                 std::invalid_argument);
  }
  {
    sim::SimConfig config = cluster_config(2, 1);
    const fault::FaultPlan plan = fault::periodic_crash_plan(0, 65, 90, 2);
    config.faults = &plan;
    EXPECT_THROW(simulate_job_set_cluster(make_submissions(5), exec,
                                          request, deq, config),
                 std::invalid_argument);
  }
  {
    sim::SimConfig config = cluster_config(2, 1);
    config.engine = sim::EngineKind::kAsync;
    EXPECT_THROW(simulate_job_set_cluster(make_submissions(5), exec,
                                          request, deq, config),
                 std::invalid_argument);
  }
  {
    sim::SimConfig config = cluster_config(2, 1);
    sched::AdaptiveQuantumLength policy{sched::AdaptiveQuantumConfig{}};
    config.quantum_length_policy = &policy;
    EXPECT_THROW(simulate_job_set_cluster(make_submissions(5), exec,
                                          request, deq, config),
                 std::invalid_argument);
  }
  {
    sim::SimConfig config = cluster_config(2, 1);
    config.hier.groups = 2;
    EXPECT_THROW(simulate_job_set_cluster(make_submissions(5), exec,
                                          request, deq, config),
                 std::invalid_argument);
  }
}

// --- Sweep layer -----------------------------------------------------------

/// Sweep grid with a cluster axis: the same workload flat, at 2 machines
/// and at 4 machines under desire-aware routing.
std::vector<exp::RunSpec> cluster_grid() {
  std::vector<exp::RunSpec> specs;
  for (const int machines : {0, 2, 4}) {
    exp::RunSpec spec;
    spec.scheduler = exp::SchedulerKind::kAbg;
    spec.workload.kind = exp::WorkloadKind::kSquareWave;
    spec.workload.jobs = 3;
    spec.workload.levels = 150;
    spec.machine = {.processors = 16, .quantum_length = 50};
    spec.cluster_machines = machines;
    if (machines > 0) {
      spec.router = "desire-aware";
      spec.migration_period = 2;
    }
    spec.group = "machines=" + std::to_string(machines);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string jsonl_of(const std::vector<exp::RunRecord>& records) {
  exp::ResultSink sink("cluster_test", 2008);
  sink.add_all(records);
  std::ostringstream os;
  sink.write_jsonl(os);
  return os.str();
}

TEST(ClusterSweep, JsonlByteIdenticalAcrossWorkerCounts) {
  const std::vector<exp::RunSpec> specs = cluster_grid();
  std::string baseline;
  for (const int jobs : {1, 4}) {
    exp::SweepConfig config;
    config.threads = jobs;
    const std::string jsonl = jsonl_of(exp::SweepRunner(config).run(specs));
    if (baseline.empty()) {
      baseline = jsonl;
    } else {
      EXPECT_EQ(jsonl, baseline) << "diverged at --jobs " << jobs;
    }
  }
  EXPECT_FALSE(baseline.empty());
}

TEST(ClusterSweep, JsonlCarriesClusterFieldsOnlyWhenSet) {
  exp::SweepConfig config;
  config.threads = 2;
  const std::vector<exp::RunRecord> records =
      exp::SweepRunner(config).run(cluster_grid());
  ASSERT_EQ(records.size(), 3u);
  const std::string jsonl = jsonl_of(records);
  std::istringstream lines(jsonl);
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) {
    rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), 3u);
  // Flat record: the cluster fields are omitted so pre-cluster artifacts
  // stay byte-identical.
  EXPECT_EQ(rows[0].find("cluster_machines"), std::string::npos);
  EXPECT_EQ(rows[0].find("router"), std::string::npos);
  EXPECT_NE(rows[1].find("\"cluster_machines\":2"), std::string::npos);
  EXPECT_NE(rows[1].find("\"router\":\"desire-aware\""), std::string::npos);
  EXPECT_NE(rows[2].find("\"cluster_machines\":4"), std::string::npos);
}

TEST(ClusterSweep, RunnerRejectsContradictoryCompositions) {
  exp::SweepConfig config;
  config.threads = 1;
  {
    std::vector<exp::RunSpec> specs = cluster_grid();
    specs[1].hier_groups = 2;
    specs[1].hier_alloc = "deq";
    EXPECT_THROW(exp::SweepRunner(config).run(specs),
                 std::invalid_argument);
  }
  {
    std::vector<exp::RunSpec> specs = cluster_grid();
    specs[2].engine = sim::EngineKind::kAsync;
    EXPECT_THROW(exp::SweepRunner(config).run(specs),
                 std::invalid_argument);
  }
  {
    // The monitored path quarantines the contradictory cell instead of
    // tearing down the sweep.
    std::vector<exp::RunSpec> specs = cluster_grid();
    specs[1].hier_groups = 2;
    specs[1].hier_alloc = "deq";
    const exp::SweepOutcome outcome =
        exp::SweepRunner(config).run_monitored(specs);
    ASSERT_EQ(outcome.records.size(), 3u);
    EXPECT_FALSE(outcome.records[1].failure.empty());
    EXPECT_TRUE(outcome.records[0].failure.empty());
  }
}

}  // namespace
}  // namespace abg::cluster
