// Cluster scheduling study: makespan and machine-utilization spread
// across router policies x machine counts, ABG vs A-Greedy per machine.
//
// Each point routes the identical labeled job set onto an M-machine
// cluster (uniform machines; processors per machine fixed, so the total
// capacity grows with M) and simulates every machine through the unified
// engine core.  The utilization columns come from the driver's
// kClusterMachineSummary events: per machine, executed cycles over
// (processors x makespan); the spread (max - min) is the imbalance the
// router left behind after migration had its say.  A good router keeps
// the spread flat as M grows; a bad one strands capacity on idle
// machines and the makespan column pays for it.
//
// Defaults run the full >= 8-machine x 4-router matrix in seconds;
// --full widens the machine axis.  Every run is recorded through
// exp::ResultSink into BENCH_cluster_scalability.json (--sink-out=PATH
// to move, =none to disable).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/router.hpp"
#include "dag/profile_job.hpp"
#include "exp/result_sink.hpp"
#include "obs/event_bus.hpp"
#include "workload/profiles.hpp"

namespace abg::bench {
namespace {

/// `njobs` square-wave jobs over four width classes, labeled so the
/// class-affinity router has real classes to key on (class = width
/// bucket, exactly what co-locating by shape should group).
std::vector<sim::JobSubmission> make_submissions(int njobs,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<sim::JobSubmission> subs;
  subs.reserve(static_cast<std::size_t>(njobs));
  for (int i = 0; i < njobs; ++i) {
    const int klass = i % 4;
    const auto high = static_cast<dag::TaskCount>(
        2 + 4 * klass + rng.uniform_int(0, 3));
    sim::JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
        workload::square_wave_profile(1, 20, high, 20, 3)));
    s.name = "class" + std::to_string(klass);
    subs.push_back(std::move(s));
  }
  return subs;
}

/// Captures the per-machine summaries the cluster driver publishes right
/// before kRunEnd.
struct MachineSummarySink final : obs::Sink {
  struct Summary {
    int processors = 0;
    dag::TaskCount executed = 0;
  };
  std::vector<Summary> machines;

  void on_event(const obs::Event& event) override {
    if (event.kind == obs::EventKind::kClusterMachineSummary) {
      machines.push_back(Summary{event.processors, event.work});
    }
  }
};

struct Point {
  double wall_ms = 0.0;
  double makespan = 0.0;
  double quanta = 0.0;
  /// Per-machine utilization = executed cycles / (processors x makespan);
  /// spread = max - min over the machines.
  double util_min = 0.0;
  double util_mean = 0.0;
  double util_max = 0.0;
  double util_spread = 0.0;
};

Point run_point(const core::SchedulerSpec& spec, int njobs, int machines,
                const std::string& router, int per_machine_processors,
                dag::Steps migration_period, int threads,
                std::uint64_t seed) {
  auto subs = make_submissions(njobs, seed);

  obs::EventBus bus;
  MachineSummarySink summaries;
  bus.subscribe(&summaries);

  sim::SimConfig config{.processors = per_machine_processors,
                        .quantum_length = 50};
  config.cluster.machines = machines;
  config.cluster.router = router;
  config.cluster.migration_period = migration_period;
  config.cluster.threads = threads;
  config.obs.event_bus = &bus;

  const auto start = std::chrono::steady_clock::now();
  const sim::SimResult result = core::run_set(spec, std::move(subs), config);
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - start;

  Point point;
  point.wall_ms = wall.count();
  point.makespan = static_cast<double>(result.makespan);
  point.quanta = static_cast<double>(result.quanta);
  if (!summaries.machines.empty() && result.makespan > 0) {
    double sum = 0.0;
    point.util_min = 2.0;  // above any utilization; first machine lowers it
    for (const MachineSummarySink::Summary& m : summaries.machines) {
      const double capacity = static_cast<double>(m.processors) *
                              static_cast<double>(result.makespan);
      const double util =
          capacity > 0.0 ? static_cast<double>(m.executed) / capacity : 0.0;
      point.util_min = std::min(point.util_min, util);
      point.util_max = std::max(point.util_max, util);
      sum += util;
    }
    point.util_mean = sum / static_cast<double>(summaries.machines.size());
    point.util_spread = point.util_max - point.util_min;
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
        cli.get("sink-out", "BENCH_cluster_scalability.json");
    const int threads = std::max(1, bench::thread_count_flag(cli));
    const auto migration_period = static_cast<dag::Steps>(
        cli.get_non_negative_int("migration-period", 8));
    const int njobs =
        static_cast<int>(cli.get_positive_int("njobs", flags.full ? 512 : 96));
    const int per_machine =
        static_cast<int>(cli.get_positive_int("machine-procs", 32));

    const std::vector<int> machines_axis =
        flags.full ? std::vector<int>{1, 2, 4, 8, 16, 32}
                   : std::vector<int>{1, 2, 4, 8};
    const std::vector<std::string>& routers = cluster::router_names();

    const std::vector<std::string> scheduler_names = {"abg", "a-greedy"};

    util::Table table({"sched", "router", "machines", "wall_ms", "makespan",
                       "quanta", "util_min", "util_mean", "util_max",
                       "util_spread"});
    exp::ResultSink sink("cluster_scalability", flags.seed);
    std::int64_t run_id = 0;

    for (const std::string& sched_name : scheduler_names) {
      const core::SchedulerSpec spec = sched_name == "abg"
                                           ? core::abg_spec()
                                           : core::a_greedy_spec();
      for (const std::string& router : routers) {
        for (const int machines : machines_axis) {
          const bench::Point p = bench::run_point(
              spec, njobs, machines, router, per_machine, migration_period,
              threads, flags.seed);
          table.add_row({sched_name, router, std::to_string(machines),
                         util::format_double(p.wall_ms, 2),
                         util::format_double(p.makespan, 0),
                         util::format_double(p.quanta, 0),
                         util::format_double(p.util_min, 3),
                         util::format_double(p.util_mean, 3),
                         util::format_double(p.util_max, 3),
                         util::format_double(p.util_spread, 3)});

          exp::RunRecord record;
          record.run_id = run_id++;
          record.group = "sched=" + sched_name + "/router=" + router;
          record.scheduler = sched_name;
          record.workload = "cluster-scalability";
          record.fault = "none";
          record.cluster_machines = machines;
          record.router = router;
          record.seed = flags.seed;
          record.metrics.emplace_back("machines",
                                      static_cast<double>(machines));
          record.metrics.emplace_back("machine_procs",
                                      static_cast<double>(per_machine));
          record.metrics.emplace_back("migration_period",
                                      static_cast<double>(migration_period));
          record.metrics.emplace_back("wall_ms", p.wall_ms);
          record.metrics.emplace_back("makespan", p.makespan);
          record.metrics.emplace_back("quanta", p.quanta);
          record.metrics.emplace_back("util_min", p.util_min);
          record.metrics.emplace_back("util_mean", p.util_mean);
          record.metrics.emplace_back("util_max", p.util_max);
          record.metrics.emplace_back("util_spread", p.util_spread);
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
    std::cerr << "cluster_scalability: " << error.what() << "\n";
    return 1;
  }
}
