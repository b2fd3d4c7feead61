// Figure 6: makespan and mean response time of ABG and A-Greedy on job
// sets space-sharing the machine under dynamic equi-partitioning.
//
// Paper setup (Section 7.2): job sets of varying load (average parallelism
// of the set / P), each set run under both schedulers coupled with DEQ;
// 5000 job sets total.  Panels:
//   (a) makespan / theoretical lower bound vs load,
//   (b) makespan ratio A-Greedy / ABG        (paper: 1.10-1.15 at light
//       load, converging to ~1 under heavy load),
//   (c) mean response time / lower bound vs load,
//   (d) response-time ratio A-Greedy / ABG.
//
// The sweep executes on the exp::SweepRunner thread pool: every (load,
// set, scheduler) triple is an independent RunSpec, schedulers share a
// seed index so both face identical job sets, and results are identical
// at any --jobs level.
//
//   ./fig6_job_sets [--full] [--sets=N] [--seed=S] [--csv] [--jobs=N]
//                   [--allocator=deq|rr|hesrpt] [--jsonl=PATH] [--json=PATH]
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "exp/result_sink.hpp"
#include "exp/runner.hpp"
#include "util/bootstrap.hpp"

int main(int argc, char** argv) {
  const abg::util::Cli cli(argc, argv);
  const abg::bench::StandardFlags flags(cli, 2008);
  const auto sets_per_load =
      static_cast<int>(cli.get_int("sets", flags.full ? 500 : 30));
  // --allocator swaps dynamic equi-partitioning for round-robin (the other
  // fair allocator He et al. couple the schedulers with) or heSRPT.  The
  // name goes through the library's allocator table, which rejects an
  // unknown name.
  abg::exp::AllocatorKind allocator = abg::exp::AllocatorKind::kDefault;
  try {
    allocator =
        abg::exp::allocator_kind_from_name(cli.get("allocator", "deq"));
  } catch (const std::invalid_argument& error) {
    std::cerr << "fig6_job_sets: " << error.what() << "\n";
    return 2;
  }
  const int threads = abg::bench::thread_count_flag(cli);
  const abg::bench::Machine machine;
  const std::vector<double> loads{0.25, 0.5, 1.0, 1.5, 2.0,
                                  3.0,  4.0, 5.0, 6.0};

  const char* allocator_label = "dynamic equi-partitioning";
  if (allocator == abg::exp::AllocatorKind::kRoundRobin) {
    allocator_label = "round-robin";
  } else if (allocator == abg::exp::AllocatorKind::kHesrpt) {
    allocator_label = "heSRPT";
  }
  std::cout << "Figure 6: job sets under " << allocator_label << ", P = "
            << machine.processors << ", L = " << machine.quantum_length
            << ", " << sets_per_load << " sets per load, " << threads
            << " worker thread(s)\n\n";

  // Grid: loads x sets x {ABG, A-Greedy}.  Scheduler variants of the same
  // (load, set) share a seed index and therefore the exact job set.
  const std::vector<abg::exp::SchedulerKind> schedulers = {
      abg::exp::SchedulerKind::kAbg, abg::exp::SchedulerKind::kAGreedy};
  std::vector<abg::exp::RunSpec> specs;
  specs.reserve(loads.size() * static_cast<std::size_t>(sets_per_load) *
                schedulers.size());
  for (std::size_t li = 0; li < loads.size(); ++li) {
    for (int s = 0; s < sets_per_load; ++s) {
      for (const abg::exp::SchedulerKind scheduler : schedulers) {
        abg::exp::RunSpec spec;
        spec.scheduler = scheduler;
        spec.workload.kind = abg::exp::WorkloadKind::kJobSet;
        spec.workload.load = loads[li];
        spec.machine = {.processors = machine.processors,
                        .quantum_length = machine.quantum_length};
        spec.allocator = allocator;
        spec.seed_index =
            li * static_cast<std::uint64_t>(sets_per_load) +
            static_cast<std::uint64_t>(s);
        spec.group = "load=" + abg::util::format_double(loads[li], 2);
        specs.push_back(std::move(spec));
      }
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

  abg::util::Table table(
      {"load", "jobs", "M/LB ABG", "M/LB A-Greedy", "M ratio", "R/LB ABG",
       "R/LB A-Greedy", "R ratio"});
  std::vector<double> light_makespan_ratio;
  std::vector<double> light_response_ratio;
  std::vector<double> heavy_makespan_ratio;
  std::vector<double> heavy_response_ratio;

  // Records come back in grid order: (abg, a-greedy) pairs per set.
  std::size_t r = 0;
  for (const double load : loads) {
    abg::util::RunningStats m_abg;
    abg::util::RunningStats m_ag;
    abg::util::RunningStats r_abg;
    abg::util::RunningStats r_ag;
    abg::util::RunningStats m_ratio;
    abg::util::RunningStats r_ratio;
    abg::util::RunningStats set_size;
    for (int s = 0; s < sets_per_load; ++s) {
      const abg::exp::RunRecord& abg_rec = records[r++];
      const abg::exp::RunRecord& ag_rec = records[r++];
      set_size.add(abg_rec.metric("jobs"));
      m_abg.add(abg_rec.metric("makespan_over_lb"));
      m_ag.add(ag_rec.metric("makespan_over_lb"));
      r_abg.add(abg_rec.metric("response_over_lb"));
      r_ag.add(ag_rec.metric("response_over_lb"));
      const double mr = ag_rec.metric("makespan") / abg_rec.metric("makespan");
      const double rr = ag_rec.metric("mean_response_time") /
                        abg_rec.metric("mean_response_time");
      m_ratio.add(mr);
      r_ratio.add(rr);
      if (load <= 1.5) {
        light_makespan_ratio.push_back(mr);
        light_response_ratio.push_back(rr);
      }
      if (load >= 4.0) {
        heavy_makespan_ratio.push_back(mr);
        heavy_response_ratio.push_back(rr);
      }
    }
    table.add_numeric_row({load, set_size.mean(), m_abg.mean(), m_ag.mean(),
                           m_ratio.mean(), r_abg.mean(), r_ag.mean(),
                           r_ratio.mean()},
                          3);
  }
  abg::bench::emit(table, flags);

  auto ci_text = [&](const std::vector<double>& samples,
                     std::uint64_t salt) {
    const abg::util::ConfidenceInterval ci = abg::util::bootstrap_mean(
        samples, abg::util::Rng::derive_seed(flags.seed, salt));
    return abg::util::format_double(ci.point, 3) + " [" +
           abg::util::format_double(ci.lower, 3) + ", " +
           abg::util::format_double(ci.upper, 3) + "]";
  };
  std::cout << "\nSummary (paper: ABG better by 10-15% at light load; "
            << "comparable under heavy load; 95% bootstrap CIs):\n"
            << "  light-load (<= 1.5) makespan ratio A-Greedy/ABG = "
            << ci_text(light_makespan_ratio, 0xA1)
            << ", response ratio = "
            << ci_text(light_response_ratio, 0xA2)
            << "\n  heavy-load (>= 4.0) makespan ratio = "
            << ci_text(heavy_makespan_ratio, 0xA3)
            << ", response ratio = "
            << ci_text(heavy_response_ratio, 0xA4) << "\n";

  // Machine-readable trajectory: per-run JSONL and the aggregated summary.
  abg::exp::ResultSink sink("fig6_job_sets", flags.seed);
  sink.add_all(records);
  if (cli.has("jsonl")) {
    std::ofstream out(cli.get("jsonl", ""));
    sink.write_jsonl(out);
  }
  if (cli.has("json")) {
    std::ofstream out(cli.get("json", ""));
    sink.write_summary(out);
  }
  return 0;
}
