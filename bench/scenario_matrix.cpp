// Cross-scenario policy matrix: every scenario in the library against a
// panel of scheduling policies, on common random numbers.
//
// The policy panel pairs a request policy with an OS allocator:
//
//   * abg+deq      — ABG desires under dynamic equi-partitioning (the
//                    paper's setup),
//   * a-greedy+deq — A-Greedy desires under the same allocator (the
//                    paper's baseline),
//   * a-greedy+hesrpt — greedy desires under the size-aware heSRPT-style
//                    allocator (Berg et al.): the machine is split along
//                    (k/n)^(1/(1-p)) boundaries ranked by remaining work, so
//                    small jobs finish first.
//
// Scenarios are discovered as the checked-in library files (the fixed
// list below, resolved against --scenarios-dir); each (scenario, rep)
// pair shares a seed index across policies, so every policy faces the
// byte-identical workload.  A scenario whose file carries an arrival
// block streams through the open engine; closed scenarios run the
// standard closed set simulation.  Both paths report makespan, mean
// response and waste, which is what the matrix table compares.
//
//   ./scenario_matrix [--seed=S] [--reps=N] [--csv] [--jobs=N]
//                     [--scenarios-dir=DIR] [--jsonl=PATH] [--json=PATH]
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exp/result_sink.hpp"
#include "exp/runner.hpp"
#include "scenario/library.hpp"
#include "util/table.hpp"

namespace {

struct Policy {
  const char* label;
  abg::exp::SchedulerKind scheduler;
  abg::exp::AllocatorKind allocator;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const abg::util::Cli cli(argc, argv);
    const abg::bench::StandardFlags flags(cli, 91);
    const auto reps = static_cast<int>(cli.get_positive_int("reps", 3));
    const int threads = abg::bench::thread_count_flag(cli);
    const std::string dir = cli.get("scenarios-dir", "scenarios");
    const std::string summary_path =
        cli.get("json", "BENCH_scenario_matrix.json");

    // The checked-in library (scenarios/): one file per generator family
    // plus the imported-trace example and the streaming variant.
    const std::vector<std::string> scenario_files = {
        "multiphase_mix.json",     "sublinear_classes.json",
        "mapreduce_shuffle.json",  "oscillator_adversary.json",
        "explicit_tiny.json",      "imported_cluster_sample.json",
        "open_poisson_mix.json",
    };
    const std::vector<Policy> policies = {
        {"abg+deq", abg::exp::SchedulerKind::kAbg,
         abg::exp::AllocatorKind::kDefault},
        {"a-greedy+deq", abg::exp::SchedulerKind::kAGreedy,
         abg::exp::AllocatorKind::kDefault},
        {"a-greedy+hesrpt", abg::exp::SchedulerKind::kAGreedy,
         abg::exp::AllocatorKind::kHesrpt},
    };

    std::cout << "Scenario x policy matrix: " << scenario_files.size()
              << " library scenarios, " << policies.size()
              << " policies, " << reps << " rep(s), " << threads
              << " worker thread(s)\n\n";

    // Grid: scenario x rep x policy, policy last so adjacent records
    // compare on the identical workload (shared seed index).
    std::vector<abg::exp::RunSpec> specs;
    std::uint64_t workload_index = 0;
    for (const std::string& file : scenario_files) {
      const std::string path = dir + "/" + file;
      // Loading up front surfaces a missing/invalid library file as a
      // startup error instead of a quarantined cell.
      const abg::scenario::ScenarioSpec& scenario =
          abg::scenario::load_cached(path);
      for (int rep = 0; rep < reps; ++rep) {
        for (const Policy& policy : policies) {
          abg::exp::RunSpec spec;
          spec.scheduler = policy.scheduler;
          spec.allocator = policy.allocator;
          spec.workload.kind = abg::exp::WorkloadKind::kScenario;
          spec.workload.scenario_path = path;
          if (scenario.machine.processors > 0) {
            spec.machine.processors = scenario.machine.processors;
          }
          if (scenario.machine.quantum > 0) {
            spec.machine.quantum_length = scenario.machine.quantum;
          }
          if (scenario.arrival.kind != abg::open::ArrivalKind::kNone) {
            spec.open.arrival = scenario.arrival.kind;
            if (scenario.arrival.jobs_total > 0) {
              spec.open.jobs_total = scenario.arrival.jobs_total;
            }
            if (scenario.arrival.load > 0.0) {
              spec.workload.load = scenario.arrival.load;
            }
          }
          spec.seed_index = workload_index;
          spec.group = "scenario=" + scenario.name;
          specs.push_back(std::move(spec));
        }
        ++workload_index;
      }
    }

    abg::exp::SweepConfig sweep;
    sweep.threads = threads;
    sweep.base_seed = flags.seed;
    if (threads != 1) {
      sweep.on_progress = abg::exp::stderr_progress();
    }
    const std::vector<abg::exp::RunRecord> records =
        abg::exp::SweepRunner(sweep).run(specs);

    // Records come back in grid order: one policy tuple per rep.
    abg::util::Table table({"scenario", "policy", "makespan", "M vs abg+deq",
                            "mean resp", "waste"});
    std::size_t r = 0;
    for (const std::string& file : scenario_files) {
      const abg::scenario::ScenarioSpec& scenario =
          abg::scenario::load_cached(dir + "/" + file);
      std::vector<abg::util::RunningStats> makespan(policies.size());
      std::vector<abg::util::RunningStats> response(policies.size());
      std::vector<abg::util::RunningStats> waste(policies.size());
      std::vector<abg::util::RunningStats> ratio(policies.size());
      for (int rep = 0; rep < reps; ++rep) {
        const std::size_t base = r;
        for (std::size_t p = 0; p < policies.size(); ++p) {
          const abg::exp::RunRecord& rec = records[base + p];
          makespan[p].add(rec.metric("makespan"));
          response[p].add(rec.metric("mean_response_time"));
          waste[p].add(rec.metric("total_waste"));
          ratio[p].add(rec.metric("makespan") /
                       records[base].metric("makespan"));
        }
        r += policies.size();
      }
      for (std::size_t p = 0; p < policies.size(); ++p) {
        table.add_row({scenario.name, policies[p].label,
                       abg::util::format_double(makespan[p].mean(), 0),
                       abg::util::format_double(ratio[p].mean(), 3),
                       abg::util::format_double(response[p].mean(), 1),
                       abg::util::format_double(waste[p].mean(), 0)});
      }
    }
    abg::bench::emit(table, flags);
    std::cout << "\nExpected shape: ABG leads on the adversarial and "
              << "multi-phase scenarios (desire feedback tracks the "
              << "parallelism swings); the size-aware heSRPT-style "
              << "allocator wins mean response on the sublinear class mix "
              << "by draining small jobs first.\n";

    // Machine-readable artifacts, written atomically (temp + rename).
    abg::exp::ResultSink sink("scenario_matrix", flags.seed);
    sink.add_all(records);
    if (cli.has("jsonl")) {
      sink.write_jsonl_file(cli.get("jsonl", ""));
    }
    if (summary_path != "none") {
      sink.write_summary_file(summary_path);
      std::cout << "\nwrote summary to " << summary_path << "\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "scenario_matrix: " << error.what() << "\n";
    return 2;
  }
}
