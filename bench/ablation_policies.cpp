// Ablations over ABG's two design choices and its single parameter:
//
//   1. Execution policy x request policy grid: is the win from B-Greedy's
//      breadth-first measurement, from A-Control, or both?  (On barrier
//      fork-join jobs the execution orders coincide; the request policy is
//      what differentiates.  A static allocation brackets from below.)
//   2. Convergence-rate sweep (paper footnote 3: results stable for
//      r < 0.6).
//   3. Quantum-length sweep (paper Section 9 names dynamic quantum
//      adjustment as future work; this shows the sensitivity that
//      motivates it).
//
//   ./ablation_policies [--seed=S] [--jobs=N] [--csv]
#include <iostream>
#include <memory>

#include "alloc/equipartition.hpp"
#include "alloc/unconstrained.hpp"
#include "bench_util.hpp"
#include "sched/a_control.hpp"
#include "sched/a_greedy_request.hpp"
#include "sched/quantum_length.hpp"
#include "sim/async_simulator.hpp"
#include "workload/fork_join.hpp"
#include "workload/job_set.hpp"

namespace {

struct GridCell {
  const char* name;
  abg::core::SchedulerSpec (*make)();
};

abg::core::SchedulerSpec bgreedy_acontrol() { return abg::core::abg_spec(); }
abg::core::SchedulerSpec greedy_agreedy() {
  return abg::core::a_greedy_spec();
}
abg::core::SchedulerSpec greedy_acontrol() {
  return abg::core::SchedulerSpec{
      "greedy+a-control", std::make_unique<abg::sched::GreedyExecution>(),
      std::make_unique<abg::sched::AControlRequest>()};
}
abg::core::SchedulerSpec bgreedy_agreedy() {
  return abg::core::SchedulerSpec{
      "b-greedy+a-greedy", std::make_unique<abg::sched::BGreedyExecution>(),
      std::make_unique<abg::sched::AGreedyRequest>()};
}
abg::core::SchedulerSpec static_full() {
  return abg::core::static_spec(128);
}
abg::core::SchedulerSpec abg_auto() { return abg::core::abg_auto_spec(); }

}  // namespace

int main(int argc, char** argv) {
  const abg::util::Cli cli(argc, argv);
  const abg::bench::StandardFlags flags(cli, 99);
  const auto jobs = static_cast<int>(cli.get_int("jobs", 6));
  const abg::bench::Machine machine{.processors = 128,
                                    .quantum_length = 500};
  const double target_transition = 20.0;

  const GridCell grid[] = {
      {"ABG (b-greedy + a-control)", &bgreedy_acontrol},
      {"ABG auto-rate (r from C_est)", &abg_auto},
      {"greedy + a-control", &greedy_acontrol},
      {"b-greedy + a-greedy-request", &bgreedy_agreedy},
      {"A-Greedy (greedy + MIMD)", &greedy_agreedy},
      {"static 128 procs", &static_full},
  };

  std::cout << "Ablation 1: execution x request policy grid ("
            << jobs << " fork-join jobs, target C_L = " << target_transition
            << ")\n\n";
  abg::util::Table grid_table(
      {"scheduler", "time/Tinf", "waste/T1", "quanta"});
  for (const GridCell& cell : grid) {
    abg::util::RunningStats time_norm;
    abg::util::RunningStats waste_norm;
    abg::util::RunningStats quanta;
    abg::util::Rng root(flags.seed);
    for (int j = 0; j < jobs; ++j) {
      abg::util::Rng rng = root.split();
      const auto job = abg::workload::make_fork_join_job(
          rng, abg::workload::figure5_spec(target_transition,
                                           machine.quantum_length));
      const auto spec = cell.make();
      const abg::sim::JobTrace trace = abg::core::run_single(
          spec, *job,
          abg::sim::SingleJobConfig{.processors = machine.processors,
                                    .quantum_length =
                                        machine.quantum_length});
      time_norm.add(static_cast<double>(trace.response_time()) /
                    static_cast<double>(trace.critical_path));
      waste_norm.add(static_cast<double>(trace.total_waste()) /
                     static_cast<double>(trace.work));
      quanta.add(static_cast<double>(trace.quanta.size()));
    }
    grid_table.add_row({cell.name,
                        abg::util::format_double(time_norm.mean(), 3),
                        abg::util::format_double(waste_norm.mean(), 3),
                        abg::util::format_double(quanta.mean(), 1)});
  }
  abg::bench::emit(grid_table, flags);

  std::cout << "\nAblation 2: convergence rate sweep (same jobs)\n\n";
  abg::util::Table rate_table({"r", "time/Tinf", "waste/T1"});
  for (const double rate :
       {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    abg::util::RunningStats time_norm;
    abg::util::RunningStats waste_norm;
    abg::util::Rng root(flags.seed);
    for (int j = 0; j < jobs; ++j) {
      abg::util::Rng rng = root.split();
      const auto job = abg::workload::make_fork_join_job(
          rng, abg::workload::figure5_spec(target_transition,
                                           machine.quantum_length));
      const abg::sim::JobTrace trace = abg::core::run_single(
          abg::core::abg_spec(
              abg::core::AbgConfig{.convergence_rate = rate}),
          *job,
          abg::sim::SingleJobConfig{.processors = machine.processors,
                                    .quantum_length =
                                        machine.quantum_length});
      time_norm.add(static_cast<double>(trace.response_time()) /
                    static_cast<double>(trace.critical_path));
      waste_norm.add(static_cast<double>(trace.total_waste()) /
                     static_cast<double>(trace.work));
    }
    rate_table.add_numeric_row({rate, time_norm.mean(), waste_norm.mean()},
                               3);
  }
  abg::bench::emit(rate_table, flags);

  std::cout << "\nAblation 3: quantum length sweep (ABG, r = 0.2)\n\n";
  abg::util::Table quantum_table({"L", "time/Tinf", "waste/T1", "quanta"});
  for (const abg::dag::Steps quantum : {100, 250, 500, 1000, 2000, 4000}) {
    abg::util::RunningStats time_norm;
    abg::util::RunningStats waste_norm;
    abg::util::RunningStats quanta;
    abg::util::Rng root(flags.seed);
    for (int j = 0; j < jobs; ++j) {
      abg::util::Rng rng = root.split();
      // Job shape held fixed (defined in levels of the 500-step reference
      // quantum) while L varies.
      const auto job = abg::workload::make_fork_join_job(
          rng, abg::workload::figure5_spec(target_transition, 500));
      const abg::sim::JobTrace trace = abg::core::run_single(
          abg::core::abg_spec(), *job,
          abg::sim::SingleJobConfig{.processors = machine.processors,
                                    .quantum_length = quantum});
      time_norm.add(static_cast<double>(trace.response_time()) /
                    static_cast<double>(trace.critical_path));
      waste_norm.add(static_cast<double>(trace.total_waste()) /
                     static_cast<double>(trace.work));
      quanta.add(static_cast<double>(trace.quanta.size()));
    }
    quantum_table.add_numeric_row(
        {static_cast<double>(quantum), time_norm.mean(), waste_norm.mean(),
         quanta.mean()},
        3);
  }
  abg::bench::emit(quantum_table, flags);
  std::cout << "\nLong quanta amortize reallocation but react slowly; "
            << "short quanta track parallelism closely at the cost of "
            << "convergence transients each phase change.\n";

  std::cout << "\nAblation 4: dynamic quantum length (Section 9 future "
            << "work) — fixed L vs stability-adaptive L in [250, 4000]\n\n";
  abg::util::Table dynamic_table(
      {"policy", "time/Tinf", "waste/T1", "quanta"});
  for (const bool adaptive : {false, true}) {
    abg::util::RunningStats time_norm;
    abg::util::RunningStats waste_norm;
    abg::util::RunningStats quanta;
    abg::util::Rng root(flags.seed);
    for (int j = 0; j < jobs; ++j) {
      abg::util::Rng rng = root.split();
      const auto job = abg::workload::make_fork_join_job(
          rng, abg::workload::figure5_spec(target_transition, 500));
      abg::sched::BGreedyExecution exec;
      abg::sched::AControlRequest request;
      abg::alloc::Unconstrained allocator;
      std::unique_ptr<abg::sched::QuantumLengthPolicy> length_policy;
      if (adaptive) {
        length_policy = std::make_unique<abg::sched::AdaptiveQuantumLength>(
            abg::sched::AdaptiveQuantumConfig{250, 4000, 0.2, 2});
      } else {
        length_policy =
            std::make_unique<abg::sched::FixedQuantumLength>(1000);
      }
      const abg::sim::JobTrace trace = abg::sim::run_single_job(
          *job, exec, request, *length_policy, allocator,
          abg::sim::SingleJobConfig{.processors = machine.processors,
                                    .quantum_length = 1000});
      time_norm.add(static_cast<double>(trace.response_time()) /
                    static_cast<double>(trace.critical_path));
      waste_norm.add(static_cast<double>(trace.total_waste()) /
                     static_cast<double>(trace.work));
      quanta.add(static_cast<double>(trace.quanta.size()));
    }
    dynamic_table.add_row(
        {adaptive ? "adaptive [250,4000]" : "fixed 1000",
         abg::util::format_double(time_norm.mean(), 3),
         abg::util::format_double(waste_norm.mean(), 3),
         abg::util::format_double(quanta.mean(), 1)});
  }
  abg::bench::emit(dynamic_table, flags);
  std::cout << "\nThe adaptive policy shortens quanta through parallelism "
            << "transitions (less stale-allotment waste) and lengthens "
            << "them during stable phases (fewer reallocations).\n";

  std::cout << "\nAblation 5: synchronous vs per-job (asynchronous) "
            << "quantum boundaries under DEQ\n\n";
  abg::util::Table sync_table(
      {"boundaries", "scheduler", "makespan", "mean response",
       "waste/work"});
  {
    abg::util::Rng rng(flags.seed);
    abg::workload::JobSetSpec set_spec;
    set_spec.load = 1.0;
    set_spec.processors = machine.processors;
    set_spec.min_phase_levels = 250;
    set_spec.max_phase_levels = 1000;
    const auto generated = abg::workload::make_job_set(rng, set_spec);
    double total_work = 0.0;
    for (const auto& g : generated) {
      total_work += static_cast<double>(g.job->total_work());
    }
    auto subs_for = [&generated] {
      std::vector<abg::sim::JobSubmission> subs;
      for (const auto& g : generated) {
        abg::sim::JobSubmission s;
        s.job = g.job->fresh_clone();
        subs.push_back(std::move(s));
      }
      return subs;
    };
    const abg::sim::SimConfig config{.processors = machine.processors,
                                     .quantum_length = 500};
    for (const bool is_abg : {true, false}) {
      const auto spec =
          is_abg ? abg::core::abg_spec() : abg::core::a_greedy_spec();
      abg::alloc::EquiPartition deq;
      const auto sync = abg::sim::simulate_job_set(
          subs_for(), *spec.execution, *spec.request, deq, config);
      const auto async = abg::sim::simulate_job_set_async(
          subs_for(), *spec.execution, *spec.request, config);
      sync_table.add_row(
          {"global", spec.name, std::to_string(sync.makespan),
           abg::util::format_double(sync.mean_response_time, 0),
           abg::util::format_double(
               static_cast<double>(sync.total_waste) / total_work, 3)});
      sync_table.add_row(
          {"per-job", spec.name, std::to_string(async.makespan),
           abg::util::format_double(async.mean_response_time, 0),
           abg::util::format_double(
               static_cast<double>(async.total_waste) / total_work, 3)});
    }
  }
  abg::bench::emit(sync_table, flags);
  std::cout << "\nAsynchrony is a modeling detail: both schedulers keep "
            << "their relative ordering whether quanta share global "
            << "boundaries or drift per job.\n";
  return 0;
}
