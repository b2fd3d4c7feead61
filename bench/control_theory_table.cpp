// Theorem 1 as a table: for each convergence rate r and job parallelism A,
// the closed-loop pole, BIBO stability and steady-state error computed
// symbolically from T(z) = (K/A)/(z - (1 - K/A)) with K = (1 - r)A, next
// to the same quantities measured from the actual ABG scheduler driving an
// actual constant-parallelism job.
//
//   ./control_theory_table [--csv]
#include <iostream>

#include "bench_util.hpp"
#include "control/analysis.hpp"
#include "control/closed_loop.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  const abg::util::Cli cli(argc, argv);
  const abg::bench::StandardFlags flags(cli);
  const abg::bench::Machine machine{.processors = 512,
                                    .quantum_length = 200};

  std::cout << "Theorem 1: symbolic closed-loop analysis vs measured "
            << "scheduler behaviour\n\n";
  abg::util::Table table({"r", "A", "pole", "BIBO", "ss-error (sym)",
                          "ss-error (meas)", "overshoot (meas)",
                          "rate (meas)", "settled"});
  for (const double rate : {0.0, 0.2, 0.5, 0.8}) {
    for (const int parallelism : {10, 100}) {
      const double a = static_cast<double>(parallelism);
      const auto loop = abg::control::abg_closed_loop(
          abg::control::theorem1_gain(rate, a), a);
      const double pole =
          abg::control::abg_closed_loop_pole(
              abg::control::theorem1_gain(rate, a), a);
      const bool stable = abg::control::is_bibo_stable(loop);
      const double sym_error = abg::control::steady_state_error(loop);

      auto job = abg::dag::ProfileJob::from_runs(
          abg::workload::constant_profile(parallelism,
                                          60 * machine.quantum_length));
      const abg::sim::JobTrace trace = abg::core::run_single(
          abg::core::abg_spec(
              abg::core::AbgConfig{.convergence_rate = rate}),
          job,
          abg::sim::SingleJobConfig{
              .processors = machine.processors,
              .quantum_length = machine.quantum_length});
      std::vector<double> requests = trace.request_series();
      if (requests.size() > 1) {
        requests.pop_back();
      }
      const auto measured =
          abg::control::analyze_series(requests, a, 0.02, /*rate_floor=*/4.0);

      table.add_row({abg::util::format_double(rate, 1),
                     std::to_string(parallelism),
                     abg::util::format_double(pole, 2),
                     stable ? "yes" : "NO",
                     abg::util::format_double(sym_error, 4),
                     abg::util::format_double(measured.steady_state_error, 2),
                     abg::util::format_double(measured.max_overshoot, 2),
                     abg::util::format_double(measured.convergence_rate, 2),
                     measured.settled ? "yes" : "NO"});
    }
  }
  abg::bench::emit(table, flags);
  std::cout << "\nExpected: pole = r, BIBO stable, zero steady-state error "
            << "and zero overshoot for every r in [0, 1); the measured "
            << "contraction rate tracks r up to integer rounding of "
            << "requests.\n";
  return 0;
}
