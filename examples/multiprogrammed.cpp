// Multiprogrammed scheduling: a set of malleable jobs space-sharing one
// machine under dynamic equi-partitioning, with ABG and A-Greedy compared
// head-to-head on the identical job set.
//
//   ./multiprogrammed [--seed=N] [--load=X] [--processors=P] [--quantum=L]
//
// This is the paper's second simulation scenario (Figure 6): the OS-level
// allocator divides the machine fairly among the jobs' requests each
// quantum; global performance is measured as makespan and mean response
// time against their theoretical lower bounds.
#include <iostream>
#include <vector>

#include "core/run.hpp"
#include "metrics/lower_bounds.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/job_set.hpp"

namespace {

std::vector<abg::sim::JobSubmission> submissions_of(
    const std::vector<abg::workload::GeneratedJob>& jobs) {
  std::vector<abg::sim::JobSubmission> subs;
  subs.reserve(jobs.size());
  for (const auto& g : jobs) {
    abg::sim::JobSubmission s;
    s.job = g.job->fresh_clone();
    subs.push_back(std::move(s));
  }
  return subs;
}

}  // namespace

int main(int argc, char** argv) {
  const abg::util::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const double load = cli.get_double("load", 1.0);
  const int processors = static_cast<int>(cli.get_int("processors", 128));
  const auto quantum = cli.get_int("quantum", 500);

  abg::util::Rng rng(seed);
  abg::workload::JobSetSpec spec;
  spec.load = load;
  spec.processors = processors;
  spec.min_phase_levels = quantum / 2;
  spec.max_phase_levels = 2 * quantum;
  const auto jobs = abg::workload::make_job_set(rng, spec);

  std::vector<abg::metrics::JobSummary> summaries;
  for (const auto& g : jobs) {
    summaries.push_back(abg::metrics::JobSummary{
        g.job->total_work(), g.job->critical_path(), 0});
  }
  std::cout << "Job set: " << jobs.size() << " fork-join jobs, realized load "
            << abg::util::format_double(
                   abg::workload::realized_load(jobs, processors), 2)
            << " on P = " << processors << "\n\n";

  const double makespan_star =
      abg::metrics::makespan_lower_bound(summaries, processors);
  const double response_star =
      abg::metrics::response_lower_bound(summaries, processors);

  const abg::sim::SimConfig config{.processors = processors,
                                   .quantum_length = quantum};
  abg::util::Table table({"scheduler", "makespan", "makespan/LB",
                          "mean response", "response/LB", "total waste"});
  for (const auto& sched :
       {abg::core::abg_spec(), abg::core::a_greedy_spec()}) {
    // Both schedulers run the byte-identical job set under DEQ.
    const abg::sim::SimResult result =
        abg::core::run_set(sched, submissions_of(jobs), config);
    table.add_row(
        {sched.name, std::to_string(result.makespan),
         abg::util::format_double(
             static_cast<double>(result.makespan) / makespan_star, 3),
         abg::util::format_double(result.mean_response_time, 1),
         abg::util::format_double(result.mean_response_time / response_star,
                                  3),
         std::to_string(result.total_waste)});
  }
  table.print(std::cout);
  std::cout << "\nLower bounds: makespan >= "
            << abg::util::format_double(makespan_star, 1)
            << ", mean response time >= "
            << abg::util::format_double(response_star, 1) << "\n";
  return 0;
}
