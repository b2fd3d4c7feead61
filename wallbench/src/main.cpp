// wallbench: wall-clock benchmark of the ABG simulator.
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing attached:
// inputs are generated several times (setup_s is the median), then the
// workload's passes repeat until S seconds of passes have run.
// --trace 1 alternates untraced and traced passes for S seconds and
// reports the per-layer metrics of the traced ones; the traced passes'
// per-call records go to DIR/<workload>-calls.csv.
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.  Every
// cell's result is checked; any failed check makes the exit code 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace wallbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Setups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "wallbench: " << error << "\nusage: wallbench --workload {";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    std::cerr << (i > 0 ? "|" : "") << workload_names()[i];
  }
  std::cerr << "} --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  return options;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

/// Pins the process, and the pool workers it starts later, to the CPU it
/// is running on.  A pool worker and the coordinator then hand off on
/// one CPU instead of waking each other across CPUs, whose latency in a
/// virtual machine varies with the host's load; single-threaded
/// workloads stop migrating between CPUs.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::cerr << "wallbench: could not pin to CPU " << cpu << "\n";
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Generates the inputs kSetups times; returns the setup times and the
/// generator counters of the last setup.
std::vector<double> run_setups(Workload& workload, std::uint64_t seed,
                               SetupStats& stats) {
  std::vector<double> times;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point start = Clock::now();
    stats = workload.setup(seed);
    times.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return times;
}

/// Counts a pass's cells into the run totals and checks its digest
/// against the run's reference (the first digest seen).
void fold(const Pass& pass, std::optional<Digest>& reference,
          std::int64_t& attempted, std::int64_t& failed,
          std::string_view what) {
  attempted += pass.attempted;
  failed += pass.failed;
  if (!reference) {
    reference = pass.digest;
  } else if (!(pass.digest == *reference)) {
    failed += pass.attempted - pass.failed;  // cells not already counted
    std::cerr << "wallbench: FAILED " << what << " digest "
              << pass.digest.to_string() << " != reference "
              << reference->to_string() << "\n";
  }
}

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::optional<Digest> digest;
  std::vector<Metric> metrics;
};

Outcome measure_end_to_end(Workload& workload, const Options& options) {
  Outcome out;
  SetupStats stats;
  const std::vector<double> setup_times =
      run_setups(workload, options.seed, stats);
  Pass checks;
  std::optional<Digest> reference = workload.prepare(checks);
  out.attempted += checks.attempted;
  out.failed += checks.failed;

  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(workload.run_pass(nullptr));
    fold(passes.back(), reference, out.attempted, out.failed, "pass");
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           options.seconds);
  out.digest = reference;

  std::vector<double> jobs_rate;
  std::vector<double> quanta_rate;
  std::vector<double> cell_ms;
  for (const Pass& pass : passes) {
    jobs_rate.push_back(ratio(static_cast<double>(pass.jobs), pass.seconds));
    quanta_rate.push_back(
        ratio(static_cast<double>(pass.job_quanta), pass.seconds));
    for (const double s : pass.cell_seconds) {
      cell_ms.push_back(s * 1e3);
    }
  }
  std::cout << "passes " << passes.size() << ", jobs per pass "
            << passes.front().jobs << ", job quanta per pass "
            << passes.front().job_quanta << ", cells " << cell_ms.size()
            << (cell_ms.size() < 200 ? " (fewer than 200: cell_ms_p95 has "
                                       "fewer than 10 cells beyond it)"
                                     : "")
            << "\n";
  out.metrics = {
      {"setup_s", median(setup_times), "s"},
      {"jobs_per_s", median(jobs_rate), "jobs/s"},
      {"job_quanta_per_s", median(quanta_rate), "1/s"},
      {"cell_ms_p50", percentile(cell_ms, 0.50), "ms"},
      {"cell_ms_p95", percentile(cell_ms, 0.95), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return out;
}

Outcome measure_layers(Workload& workload, const Options& options) {
  Outcome out;
  SetupStats stats;
  run_setups(workload, options.seed, stats);
  Pass checks;
  std::optional<Digest> reference = workload.prepare(checks);
  out.attempted += checks.attempted;
  out.failed += checks.failed;

  Recorder recorder;
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  const Clock::time_point start = Clock::now();
  do {
    untraced.push_back(workload.run_pass(nullptr));
    fold(untraced.back(), reference, out.attempted, out.failed,
         "untraced pass");
    // Only the first traced pass keeps per-call records.
    recorder.set_record_calls(traced.empty());
    traced.push_back(workload.run_pass(&recorder));
    fold(traced.back(), reference, out.attempted, out.failed, "traced pass");
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           options.seconds);
  recorder.set_record_calls(false);
  out.digest = reference;

  const std::filesystem::path path =
      std::filesystem::path(options.out_dir) /
      (options.workload + "-calls.csv");
  std::filesystem::create_directories(path.parent_path());
  std::ofstream csv(path);
  const std::size_t rows = recorder.write_calls(csv);
  std::cout << "passes " << untraced.size() << " untraced + "
            << traced.size() << " traced; " << rows
            << " call records of the first traced pass in " << path.string()
            << "\n";

  // Per traced pass.
  const auto n = static_cast<double>(traced.size());
  const LayerTotals t = recorder.totals();
  double busy = 0.0;
  double job_quanta = 0.0;
  double rebalances = 0.0;
  double rebalance_s = 0.0;
  double pool_busy = 0.0;
  double pool_capacity = 0.0;
  std::vector<double> traced_seconds;
  std::vector<double> untraced_seconds;
  for (const Pass& pass : traced) {
    busy += pass.busy_seconds;
    job_quanta += static_cast<double>(pass.job_quanta);
    rebalances += static_cast<double>(pass.rebalances);
    rebalance_s += pass.rebalance_seconds;
    pool_busy += pass.pool_busy_seconds;
    pool_capacity += pass.pool_capacity_seconds;
    traced_seconds.push_back(pass.seconds);
  }
  for (const Pass& pass : untraced) {
    untraced_seconds.push_back(pass.seconds);
  }
  job_quanta /= n;
  // The root's self time excludes every child layer and the tracer's own
  // request counting.
  double children = static_cast<double>(t.bookkeeping_ns) * 1e-9;
  for (std::size_t l = 1; l < kLayerCount; ++l) {
    children += t.seconds(static_cast<Layer>(l));
  }
  const double root_self = (busy - children) / n;
  const bool open = workload.open_driver();
  const double sim_self = open ? 0.0 : root_self;

  auto calls = [&](Layer layer) {
    return static_cast<double>(t.count(layer)) / n;
  };
  auto secs = [&](Layer layer) { return t.seconds(layer) / n; };
  auto ns_per_call = [&](Layer layer) {
    return ratio(static_cast<double>(
                     t.span_ns[static_cast<std::size_t>(layer)]),
                 static_cast<double>(t.count(layer)));
  };
  const double events = calls(Layer::kSink);
  out.metrics = {
      {"dag.run_quantum_calls", calls(Layer::kDagRunQuantum), "count"},
      {"dag.run_quantum_s", secs(Layer::kDagRunQuantum), "s"},
      {"dag.run_quantum_ns", ns_per_call(Layer::kDagRunQuantum), "ns"},
      {"dag.step_calls", calls(Layer::kDagStep), "count"},
      {"alloc.allocate_calls", calls(Layer::kAllocate), "count"},
      {"alloc.allocate_s", secs(Layer::kAllocate), "s"},
      {"alloc.allocate_ns", ns_per_call(Layer::kAllocate), "ns"},
      {"alloc.request_slots",
       ratio(static_cast<double>(t.request_slots),
             static_cast<double>(t.count(Layer::kAllocate))),
       "slots"},
      {"alloc.active_ratio",
       ratio(static_cast<double>(t.nonzero_requests),
             static_cast<double>(t.request_slots)),
       "ratio"},
      {"sim.self_s", sim_self, "s"},
      {"sim.self_ns_per_job_quantum", ratio(sim_self * 1e9, job_quanta),
       "ns"},
      {"sched.next_request_calls", calls(Layer::kNextRequest), "count"},
      {"sched.next_request_s", secs(Layer::kNextRequest), "s"},
      {"workload.factory_calls",
       open ? calls(Layer::kFactory)
            : static_cast<double>(stats.generator_calls),
       "count"},
      {"workload.factory_s",
       open ? secs(Layer::kFactory) : stats.generator_seconds, "s"},
      {"workload.levels_stored",
       open ? static_cast<double>(t.factory_levels) / n
            : static_cast<double>(stats.levels),
       "count"},
      {"open.self_s", open ? root_self : 0.0, "s"},
      {"hier.rebalances", rebalances / n, "count"},
      {"hier.rebalance_s", rebalance_s / n, "s"},
      {"pool.busy_s", pool_busy / n, "s"},
      {"pool.idle_frac",
       pool_capacity > 0.0 ? 1.0 - pool_busy / pool_capacity : 0.0, "ratio"},
      {"obs.events", events, "count"},
      {"obs.events_per_job_quantum", ratio(events, job_quanta),
       "events/quantum"},
      {"obs.sink_s", secs(Layer::kSink), "s"},
      {"trace.overhead_frac",
       ratio(median(traced_seconds), median(untraced_seconds)) - 1.0,
       "ratio"},
  };
  return out;
}

std::string number(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << (std::isfinite(value) ? value : 0.0);
  return os.str();
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  const Options options = parse(argc, argv);
  const std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (!workload) {
    usage("unknown workload " + options.workload);
  }
  pin_to_current_cpu();
  std::cout << "workload " << options.workload << " seed " << options.seed
            << " trace " << (options.trace ? 1 : 0) << "\n";
  const Outcome out = options.trace ? measure_layers(*workload, options)
                                    : measure_end_to_end(*workload, options);

  std::cout << "digest " << options.workload << " "
            << (out.digest ? out.digest->to_string() : "none") << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " "
              << m.unit << "\n";
  }
  const double failed_ratio = ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted));
  std::cout << "metric failed_ratio " << number(failed_ratio) << " ratio ("
            << out.failed << " of " << out.attempted << " runs failed)\n";

  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i > 0 ? ", " : "") << "\"" << m.name
              << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return out.failed == 0 ? 0 : 1;
}
