// Hierarchical scheduling scalability: wall-clock of the sharded set
// engine across job count x group count x worker threads.
//
// Each point simulates the identical job set (byte-identical results at
// every thread count — only the wall-clock moves), so the table reads
// directly as a scaling study: within one (njobs, groups) block the
// speedup column is wall-clock(threads=1) / wall-clock(threads=T), and
// the groups axis shows what desire aggregation buys over the flat
// 1-group tree.  The `rebalance_ms` column is the coordinator's
// aggregation latency (the "hier.rebalance" self-profile span).
//
// Defaults run a small sweep in seconds; --full runs the paper-scale
// >= 50k-job set.  Every run is recorded through exp::ResultSink into
// BENCH_hier_scalability.json (--sink-out=PATH to move, =none to
// disable), so CI tracks a scaling trajectory per change.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dag/profile_job.hpp"
#include "exp/result_sink.hpp"
#include "obs/profile.hpp"
#include "workload/profiles.hpp"

namespace abg::bench {
namespace {

/// `njobs` small square-wave jobs with per-job width variation so the
/// per-group desires actually differ.
std::vector<sim::JobSubmission> make_submissions(int njobs,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<sim::JobSubmission> subs;
  subs.reserve(static_cast<std::size_t>(njobs));
  for (int i = 0; i < njobs; ++i) {
    const auto high = static_cast<dag::TaskCount>(2 + rng.uniform_int(0, 10));
    sim::JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
        workload::square_wave_profile(1, 25, high, 25, 2)));
    subs.push_back(std::move(s));
  }
  return subs;
}

struct Point {
  int njobs = 0;
  int groups = 0;
  int threads = 0;
  double wall_ms = 0.0;
  double rebalance_ms = 0.0;
  double makespan = 0.0;
  double quanta = 0.0;
  /// Fraction of the run's wall-clock each pool worker spent executing
  /// group tasks (min / mean / max over workers).  A low min with a high
  /// max reads as packing imbalance, not barrier overhead.
  double busy_min = 0.0;
  double busy_mean = 0.0;
  double busy_max = 0.0;
};

Point run_point(int njobs, int groups, int threads, int processors,
                dag::Steps rebalance, std::uint64_t seed) {
  auto subs = make_submissions(njobs, seed);
  obs::Profiler profiler;
  std::vector<double> busy_seconds;
  sim::SimConfig config{.processors = processors, .quantum_length = 50};
  config.hier.groups = groups;
  config.hier.threads = threads;
  config.hier.rebalance_quanta = rebalance;
  config.hier.profiler = &profiler;
  config.hier.worker_busy_seconds = &busy_seconds;

  const auto start = std::chrono::steady_clock::now();
  const sim::SimResult result =
      core::run_set(core::abg_spec(), std::move(subs), config);
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - start;

  Point point;
  point.njobs = njobs;
  point.groups = groups;
  point.threads = threads;
  point.wall_ms = wall.count();
  point.rebalance_ms = profiler.span("hier.rebalance").seconds * 1000.0;
  point.makespan = static_cast<double>(result.makespan);
  point.quanta = static_cast<double>(result.quanta);
  if (!busy_seconds.empty() && wall.count() > 0.0) {
    const double wall_seconds = wall.count() / 1000.0;
    double sum = 0.0;
    point.busy_min = busy_seconds.front() / wall_seconds;
    for (const double seconds : busy_seconds) {
      const double fraction = seconds / wall_seconds;
      point.busy_min = std::min(point.busy_min, fraction);
      point.busy_max = std::max(point.busy_max, fraction);
      sum += fraction;
    }
    point.busy_mean = sum / static_cast<double>(busy_seconds.size());
  }
  return point;
}

}  // namespace
}  // namespace abg::bench

int main(int argc, char** argv) {
  using namespace abg;
  try {
    const util::Cli cli(argc, argv);
    const bench::StandardFlags flags(cli);
    const std::string sink_out =
        cli.get("sink-out", "BENCH_hier_scalability.json");

    // Epoch length between tree rebalances.  Coarser epochs amortise the
    // per-epoch barrier, which is what lets the group loops actually
    // scale with threads; 1 re-splits the machine every quantum.
    const auto rebalance =
        static_cast<dag::Steps>(cli.get_positive_int("rebalance", 8));

    // --jobs caps the thread axis (the CI smoke passes --jobs=2); <= 0
    // selects hardware concurrency.
    int max_threads = static_cast<int>(cli.get_int("jobs", 4));
    if (max_threads <= 0) {
      max_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    std::vector<int> thread_axis;
    for (int t = 1; t <= max_threads; t *= 2) {
      thread_axis.push_back(t);
    }
    if (thread_axis.back() != max_threads) {
      thread_axis.push_back(max_threads);
    }

    const std::vector<int> njobs_axis =
        flags.full ? std::vector<int>{50000} : std::vector<int>{512};
    const std::vector<int> groups_axis =
        flags.full ? std::vector<int>{1, 8, 64} : std::vector<int>{1, 4, 16};
    const int processors = flags.full ? 256 : 64;

    util::Table table(
        {"njobs", "groups", "threads", "epoch", "wall_ms", "speedup",
         "efficiency", "busy_min", "busy_mean", "busy_max", "rebalance_ms",
         "makespan", "quanta"});
    exp::ResultSink sink("hier_scalability", flags.seed);
    std::int64_t run_id = 0;

    for (const int njobs : njobs_axis) {
      for (const int groups : groups_axis) {
        double serial_ms = 0.0;
        for (const int threads : thread_axis) {
          const bench::Point p = bench::run_point(
              njobs, groups, threads, processors, rebalance, flags.seed);
          if (threads == 1) {
            serial_ms = p.wall_ms;
          }
          const double speedup =
              p.wall_ms > 0.0 && serial_ms > 0.0 ? serial_ms / p.wall_ms
                                                 : 1.0;
          // Scaling efficiency: fraction of ideal linear speedup realised
          // at this thread count (1.0 = perfectly parallel).
          const double efficiency = speedup / static_cast<double>(threads);
          table.add_row({std::to_string(p.njobs), std::to_string(p.groups),
                         std::to_string(p.threads),
                         std::to_string(static_cast<long long>(rebalance)),
                         util::format_double(p.wall_ms, 2),
                         util::format_double(speedup, 2),
                         util::format_double(efficiency, 2),
                         util::format_double(p.busy_min, 2),
                         util::format_double(p.busy_mean, 2),
                         util::format_double(p.busy_max, 2),
                         util::format_double(p.rebalance_ms, 2),
                         util::format_double(p.makespan, 0),
                         util::format_double(p.quanta, 0)});

          exp::RunRecord record;
          record.run_id = run_id++;
          record.group = "njobs=" + std::to_string(njobs) +
                         "/groups=" + std::to_string(groups);
          record.workload = "hier-scalability";
          record.fault = "none";
          record.hier_groups = groups;
          record.seed = flags.seed;
          record.metrics.emplace_back("threads",
                                      static_cast<double>(threads));
          record.metrics.emplace_back("rebalance_quanta",
                                      static_cast<double>(rebalance));
          // Thread speedup is bounded by the host; on a 1-core box the
          // column only proves the barrier costs nothing.  Record the
          // regime the measurement was taken in.
          record.metrics.emplace_back(
              "host_cores", static_cast<double>(std::max(
                                1u, std::thread::hardware_concurrency())));
          record.metrics.emplace_back("wall_ms", p.wall_ms);
          record.metrics.emplace_back("speedup", speedup);
          record.metrics.emplace_back("efficiency", efficiency);
          record.metrics.emplace_back("busy_min", p.busy_min);
          record.metrics.emplace_back("busy_mean", p.busy_mean);
          record.metrics.emplace_back("busy_max", p.busy_max);
          record.metrics.emplace_back("rebalance_ms", p.rebalance_ms);
          record.metrics.emplace_back("makespan", p.makespan);
          record.metrics.emplace_back("quanta", p.quanta);
          sink.add(std::move(record));
        }
      }
    }

    bench::emit(table, flags);
    if (sink_out != "none") {
      std::ofstream out(sink_out);
      sink.write_summary(out);
      std::cout << "wrote " << sink_out << "\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "hier_scalability: " << error.what() << "\n";
    return 1;
  }
}
