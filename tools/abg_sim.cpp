// abg_sim — scenario-driven command-line simulator.
//
// Composes a workload, a scheduler and an allocator from flags, runs the
// simulation, validates the result, and prints (or dumps) the outcome.
//
//   abg_sim --workload=forkjoin --transition=16 --scheduler=abg
//   abg_sim --workload=jobset --load=2 --scheduler=a-greedy --allocator=rr
//   abg_sim --workload=constant --width=10 --scheduler=static:8
//   abg_sim --workload=randomwalk --scheduler=abg-auto --cost=2
//
// Flags (defaults in brackets):
//   --workload   forkjoin | constant | randomwalk | jobset   [forkjoin]
//   --scenario FILE   declarative scenario from the scenario library
//                (mutually exclusive with --workload; supplies machine
//                defaults and, via its arrival block, can engage --open)
//   --scheduler  abg | abg-auto | a-greedy | filtered | static:N   [abg]
//   --allocator  deq | rr | hesrpt | unconstrained           [auto]
//   --engine     sync | async  (boundary model)              [sync]
//   --hier-groups N    hierarchical allocation with N groups on the
//                      sharded engine (sync only, no faults)  [flat]
//   --hier-alloc deq|rr  group/root allocator of the tree    [--allocator]
//   --hier-rebalance N  rebalance epoch in quanta            [1]
//   --hier-threads N    group-loop workers; 0 = hw concurrency [1]
//   --cluster-machines N   simulate a cluster of N machines of P
//                      processors each (sync only, no faults, no hier);
//                      a scenario's cluster block engages this too [flat]
//   --router least-loaded|round-robin|desire-aware|class-affinity
//                      job-placement policy            [least-loaded]
//   --migration-period N   inter-machine migration epoch in quanta;
//                      0 disables migration                   [0]
//   --cluster-threads N    machine-loop workers; 0 = hw concurrency [1]
//   --processors P [128]      --quantum L [1000]   --seed S [1]
//   --rate r [0.2]            --cost c [0]  (reallocation steps/proc)
//   --transition C [16]       (forkjoin)
//   --width W [10] --levels N [20000]  (constant / randomwalk)
//   --load X [1.0]                      (jobset)
//   --jobs-cap N [0]   admission cap of the closed run (not --open)
//   --trace FILE   dump the first job's per-quantum CSV
//   --trace-out FILE    write a Chrome/Perfetto trace of the run (open in
//                       ui.perfetto.dev): per-job quantum slices colored by
//                       the desire-vs-allotment regime, d/a/A counter
//                       tracks, machine utilization
//   --metrics-out FILE  write the run's aggregated metrics registry (JSON)
//   --profile[=FILE]    time the configured workload under BOTH engines and
//                       write simulated-steps/sec spans
//                       [FILE defaults to BENCH_profile.json]
//   --report       print sparkline feedback report per job
//   --gantt        print an ASCII Gantt chart of the whole run
//   --compare      also run A-Greedy on the identical workload
//   --faults SPEC  inject faults: step:STEP:N | impulse:STEP:N:OUTAGE |
//                  poisson:RATE:HORIZON | crash:JOB:FIRST:PERIOD:COUNT
//   --crash-policy checkpoint | scratch    [checkpoint]
//   --policy-restart preserve | reset      [preserve]
//   --restart-delay N [0]
//   --resilience   also run fault-free and print the resilience report
//
// Open-system mode (streams continuously arriving jobs through the
// scheduler instead of simulating a closed job set; composes with
// --scheduler / --allocator / --processors / --quantum / --cost, and
// sim::check_composition rejects the axes it excludes).  A closed-only
// flag under --open, or one of the flags below without it, is an error:
//   --open                switch to the streaming driver
//   --arrival  poisson | mmpp | diurnal | heavytail | trace   [poisson]
//   --jobs-total N        arrivals to stream                  [100000]
//   --load X              offered load rho; calibrates the arrival gap
//                         from a pre-sample of the job factory  [0.8]
//   --arrival-gap G       fix the mean inter-arrival gap instead of
//                         calibrating (use with --load=0)
//   --trace-path FILE     JSONL arrival trace (--arrival=trace)
//   --stats-out FILE      write the online-statistics summary (JSON)
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc/equipartition.hpp"
#include "alloc/hesrpt.hpp"
#include "alloc/round_robin.hpp"
#include "alloc/unconstrained.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/run.hpp"
#include "scenario/generators.hpp"
#include "scenario/library.hpp"
#include "fault/fault_plan.hpp"
#include "hier/desire_aggregator.hpp"
#include "dag/profile_job.hpp"
#include "metrics/lower_bounds.hpp"
#include "metrics/parallelism_stats.hpp"
#include "metrics/scheduler_diagnostics.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"
#include "sim/report.hpp"
#include "sim/trace_io.hpp"
#include "sim/validate.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/fork_join.hpp"
#include "workload/job_set.hpp"
#include "workload/profiles.hpp"

namespace {

using abg::util::Cli;

abg::core::SchedulerSpec make_scheduler(const Cli& cli) {
  const std::string name = cli.get("scheduler", "abg");
  const double rate = cli.get_double("rate", 0.2);
  if (name == "abg") {
    return abg::core::abg_spec(
        abg::core::AbgConfig{.convergence_rate = rate});
  }
  if (name == "abg-auto") {
    return abg::core::abg_auto_spec();
  }
  if (name == "a-greedy") {
    return abg::core::a_greedy_spec();
  }
  if (name == "filtered") {
    return abg::core::SchedulerSpec{
        "ABG-filtered", std::make_unique<abg::sched::BGreedyExecution>(),
        std::make_unique<abg::sched::FilteredAControlRequest>(
            abg::sched::FilteredAControlConfig{rate, 0.5})};
  }
  if (name.rfind("static:", 0) == 0) {
    return abg::core::static_spec(std::stoi(name.substr(7)));
  }
  throw std::invalid_argument("unknown --scheduler '" + name + "'");
}

std::unique_ptr<abg::alloc::Allocator> make_allocator(const Cli& cli) {
  const std::string name = cli.get("allocator", "auto");
  if (name == "deq") {
    return std::make_unique<abg::alloc::EquiPartition>();
  }
  if (name == "rr") {
    return std::make_unique<abg::alloc::RoundRobin>();
  }
  if (name == "hesrpt") {
    return std::make_unique<abg::alloc::HeSrpt>();
  }
  if (name == "unconstrained") {
    return std::make_unique<abg::alloc::Unconstrained>();
  }
  if (name == "auto") {
    return nullptr;  // run drivers pick the conventional default
  }
  throw std::invalid_argument("unknown --allocator '" + name + "'");
}

std::vector<abg::sim::JobSubmission> make_workload(
    const Cli& cli, const abg::scenario::ScenarioSpec* scenario,
    abg::util::Rng& rng, int processors, abg::dag::Steps quantum) {
  if (scenario != nullptr) {
    return abg::scenario::generate_jobs(*scenario, rng, processors, quantum);
  }
  const std::string kind = cli.get("workload", "forkjoin");
  std::vector<abg::sim::JobSubmission> subs;
  if (kind == "forkjoin") {
    abg::sim::JobSubmission s;
    s.job = abg::workload::make_fork_join_job(
        rng, abg::workload::figure5_spec(
                 cli.get_double("transition", 16.0), quantum));
    subs.push_back(std::move(s));
    return subs;
  }
  if (kind == "constant") {
    abg::sim::JobSubmission s;
    s.job = std::make_unique<abg::dag::ProfileJob>(
        abg::dag::ProfileJob::from_runs(abg::workload::constant_profile(
            cli.get_int("width", 10), cli.get_int("levels", 20000))));
    subs.push_back(std::move(s));
    return subs;
  }
  if (kind == "randomwalk") {
    abg::sim::JobSubmission s;
    s.job = std::make_unique<abg::dag::ProfileJob>(
        abg::workload::random_walk_profile(
            rng, cli.get_int("levels", 20000),
            std::max<abg::dag::TaskCount>(1, cli.get_int("width", 64)),
            2.0));
    subs.push_back(std::move(s));
    return subs;
  }
  if (kind == "jobset") {
    abg::workload::JobSetSpec spec;
    spec.load = cli.get_double("load", 1.0);
    spec.processors = processors;
    spec.min_phase_levels = quantum / 2;
    spec.max_phase_levels = 2 * quantum;
    for (auto& g : abg::workload::make_job_set(rng, spec)) {
      abg::sim::JobSubmission s;
      s.job = std::move(g.job);
      subs.push_back(std::move(s));
    }
    return subs;
  }
  throw std::invalid_argument("unknown --workload '" + kind + "'");
}

// Splits "step:500:8" into its ':'-separated fields.
std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> fields;
  std::string::size_type from = 0;
  while (true) {
    const auto colon = spec.find(':', from);
    if (colon == std::string::npos) {
      fields.push_back(spec.substr(from));
      return fields;
    }
    fields.push_back(spec.substr(from, colon - from));
    from = colon + 1;
  }
}

abg::fault::FaultPlan make_fault_plan(const Cli& cli, std::uint64_t seed) {
  abg::fault::FaultPlan plan;
  if (cli.has("faults")) {
    const std::string spec = cli.get("faults", "");
    const std::vector<std::string> f = split_spec(spec);
    try {
      if (f[0] == "step" && f.size() == 3) {
        plan = abg::fault::step_failure_plan(std::stoll(f[1]),
                                             std::stoi(f[2]));
      } else if (f[0] == "impulse" && f.size() == 4) {
        plan = abg::fault::impulse_failure_plan(
            std::stoll(f[1]), std::stoi(f[2]), std::stoll(f[3]));
      } else if (f[0] == "poisson" && f.size() == 3) {
        // Deterministic given --seed; a distinct stream from the
        // workload's so the job set is unchanged by adding faults.
        abg::util::Rng rng = abg::util::Rng::derive(seed, 1);
        plan = abg::fault::poisson_churn_plan(rng, std::stoll(f[2]),
                                              std::stod(f[1]),
                                              /*mean_outage=*/500,
                                              /*max_down=*/8);
      } else if (f[0] == "crash" && f.size() == 5) {
        plan = abg::fault::periodic_crash_plan(
            std::stoi(f[1]), std::stoll(f[2]), std::stoll(f[3]),
            std::stoi(f[4]));
      } else {
        throw std::invalid_argument("unrecognized pattern");
      }
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument(
          "malformed --faults '" + spec +
          "' (expected step:STEP:N, impulse:STEP:N:OUTAGE, "
          "poisson:RATE:HORIZON or crash:JOB:FIRST:PERIOD:COUNT)");
    } catch (const std::out_of_range&) {
      throw std::invalid_argument("--faults '" + spec +
                                  "' has an out-of-range field");
    }
  }
  const std::string crash_policy = cli.get("crash-policy", "checkpoint");
  if (crash_policy == "checkpoint") {
    plan.work_loss = abg::fault::WorkLoss::kCheckpointQuantum;
  } else if (crash_policy == "scratch") {
    plan.work_loss = abg::fault::WorkLoss::kRestartFromScratch;
  } else {
    throw std::invalid_argument("unknown --crash-policy '" + crash_policy +
                                "' (checkpoint | scratch)");
  }
  const std::string restart = cli.get("policy-restart", "preserve");
  if (restart == "preserve") {
    plan.policy_on_restart = abg::fault::PolicyOnRestart::kPreserve;
  } else if (restart == "reset") {
    plan.policy_on_restart = abg::fault::PolicyOnRestart::kReset;
  } else {
    throw std::invalid_argument("unknown --policy-restart '" + restart +
                                "' (preserve | reset)");
  }
  plan.restart_delay = cli.get_non_negative_int("restart-delay", 0);
  plan.normalize();
  return plan;
}

// Flags both paths read, flags only the closed path reads and flags only
// the open path reads.  A flag the chosen path would ignore is an error.
const std::vector<std::string> kCommonFlags = {
    "scenario", "scheduler", "rate", "allocator", "engine", "processors",
    "quantum", "seed", "cost", "load", "trace-out", "metrics-out", "open"};
const std::vector<std::string> kClosedFlags = {
    "workload", "transition", "width", "levels", "jobs-cap", "faults",
    "crash-policy", "policy-restart", "restart-delay", "resilience",
    "hier-groups", "hier-alloc", "hier-rebalance", "hier-threads",
    "cluster-machines", "router", "migration-period", "cluster-threads",
    "trace", "report", "gantt", "compare", "profile"};
const std::vector<std::string> kOpenFlags = {
    "arrival", "jobs-total", "arrival-gap", "trace-path", "stats-out"};

void check_flags(const Cli& cli, bool open) {
  for (const std::string& flag : open ? kClosedFlags : kOpenFlags) {
    if (cli.has(flag)) {
      throw std::invalid_argument(
          "--" + flag +
          (open ? " does not apply to --open runs" : " requires --open"));
    }
  }
  std::vector<std::string> allowed = kCommonFlags;
  const std::vector<std::string>& own = open ? kOpenFlags : kClosedFlags;
  allowed.insert(allowed.end(), own.begin(), own.end());
  cli.reject_unknown(allowed);
}

// The open-system path: streams --jobs-total arrivals through the
// scheduler and prints the constant-memory statistics summary.  Fully
// self-contained (own bus, own outputs) because it shares no SimConfig /
// SimResult machinery with the closed path.
int run_open_mode(const Cli& cli,
                  const abg::scenario::ScenarioSpec* scenario,
                  const abg::core::SchedulerSpec& scheduler,
                  abg::alloc::Allocator* allocator, int processors,
                  abg::dag::Steps quantum, std::uint64_t seed) {
  abg::sim::check_composition(
      abg::sim::RunAxes{
          .async = abg::sim::engine_kind_from_name(cli.get(
                       "engine", "sync")) == abg::sim::EngineKind::kAsync,
          .cluster = scenario != nullptr && scenario->cluster.machines > 0,
          .open = true},
      "--open run");

  // A scenario with an arrival block supplies arrival / jobs-total / load
  // defaults; explicit flags still win.
  const bool scenario_open =
      scenario != nullptr &&
      scenario->arrival.kind != abg::open::ArrivalKind::kNone;
  abg::open::OpenConfig config;
  config.processors = processors;
  config.quantum_length = quantum;
  config.jobs_total = cli.get_positive_int(
      "jobs-total", scenario_open && scenario->arrival.jobs_total > 0
                        ? scenario->arrival.jobs_total
                        : 100000);
  config.arrival =
      cli.has("arrival") || !scenario_open
          ? abg::open::arrival_kind_from_name(cli.get("arrival", "poisson"))
          : scenario->arrival.kind;
  config.trace_path = cli.get("trace-path", "");
  config.load = cli.get_double(
      "load", scenario_open && scenario->arrival.load > 0.0
                  ? scenario->arrival.load
                  : 0.8);
  config.reallocation_cost_per_proc = cli.get_non_negative_int("cost", 0);
  if (cli.has("arrival-gap")) {
    config.arrivals.mean_gap = cli.get_double("arrival-gap", 1000.0);
    if (config.load != 0.0) {
      throw std::invalid_argument(
          "--arrival-gap requires --load=0 (load calibration would "
          "override the fixed gap)");
    }
  }

  abg::obs::EventBus bus;
  abg::obs::PerfettoTrace perfetto;
  abg::obs::SimTraceSink perfetto_sink(perfetto);
  abg::obs::MetricsRegistry registry;
  abg::obs::MetricsSink metrics_sink(registry);
  if (cli.has("trace-out")) {
    bus.subscribe(&perfetto_sink);
  }
  if (cli.has("metrics-out")) {
    bus.subscribe(&metrics_sink);
  }
  if (cli.has("trace-out") || cli.has("metrics-out")) {
    config.bus = &bus;
  }

  abg::open::JobFactory factory;
  if (scenario != nullptr) {
    factory = abg::scenario::make_open_factory(*scenario, processors,
                                               quantum);
  }
  const abg::open::OpenResult result =
      abg::core::run_open(scheduler, config, seed, factory, allocator);

  std::cout << "scheduler " << scheduler.name << ", allocator "
            << (allocator ? allocator->name() : "default") << ", arrival "
            << abg::open::to_string(config.arrival) << ", P = " << processors
            << ", L = " << quantum << "\n\n";
  abg::util::Table table({"metric", "value"});
  const auto row = [&table](const std::string& name,
                            const std::string& value) {
    table.add_row({name, value});
  };
  row("jobs streamed", std::to_string(result.completed));
  row("makespan", std::to_string(result.makespan));
  row("quanta", std::to_string(result.quanta));
  row("in-system high water", std::to_string(result.in_system_high_water));
  if (result.mean_gap > 0.0) {
    row("calibrated mean gap",
        abg::util::format_double(result.mean_gap, 1));
  }
  row("mean response",
      abg::util::format_double(result.stats.response().mean(), 1));
  row("response p50",
      abg::util::format_double(result.stats.response_quantile(0.5), 1));
  row("response p95",
      abg::util::format_double(result.stats.response_quantile(0.95), 1));
  row("response p99",
      abg::util::format_double(result.stats.response_quantile(0.99), 1));
  row("mean slowdown",
      abg::util::format_double(result.stats.slowdown().mean(), 2));
  row("max slowdown",
      abg::util::format_double(result.stats.slowdown().max(), 2));
  row("queue depth mean",
      abg::util::format_double(result.stats.queue_depth().mean(), 2));
  row("queue depth p95",
      abg::util::format_double(result.stats.queue_depth_quantile(0.95), 1));
  row("total work", std::to_string(result.total_work));
  row("total waste", std::to_string(result.total_waste));
  table.print(std::cout);

  if (cli.has("stats-out")) {
    const std::string path = cli.get("stats-out", "");
    const abg::util::Json summary = result.stats.to_json();
    abg::util::write_file_atomic(path, [&summary](std::ostream& out) {
      summary.write(out);
      out << "\n";
    });
    std::cout << "\nwrote statistics to " << path << "\n";
  }
  if (cli.has("trace-out")) {
    const std::string path = cli.get("trace-out", "");
    abg::util::write_file_atomic(
        path, [&perfetto](std::ostream& out) { perfetto.write(out); });
    std::cout << "\nwrote Perfetto trace to " << path << " ("
              << perfetto.event_count()
              << " events; open in ui.perfetto.dev)\n";
  }
  if (cli.has("metrics-out")) {
    const std::string path = cli.get("metrics-out", "");
    abg::util::write_file_atomic(path, [&registry](std::ostream& out) {
      registry.write(out);
      out << "\n";
    });
    std::cout << "\nwrote metrics to " << path << "\n";
  }
  return 0;
}

void print_usage(std::ostream& os) {
  os << "usage: abg_sim [--workload=forkjoin|constant|randomwalk|jobset]\n"
        "               [--scenario=FILE]\n"
        "               [--scheduler=abg|abg-auto|a-greedy|filtered|"
        "static:N]\n"
        "               [--allocator=deq|rr|hesrpt|unconstrained]\n"
        "               [--engine=sync|async]\n"
        "               [--hier-groups=N] [--hier-alloc=deq|rr]\n"
        "               [--hier-rebalance=N] [--hier-threads=N]\n"
        "               [--cluster-machines=N] [--router=least-loaded|"
        "round-robin|desire-aware|class-affinity]\n"
        "               [--migration-period=N] [--cluster-threads=N]\n"
        "               [--processors=P] [--quantum=L] [--seed=S]\n"
        "               [--rate=r] [--cost=c] [--transition=C]\n"
        "               [--width=W] [--levels=N] [--load=X] "
        "[--jobs-cap=N]\n"
        "               [--faults=step:STEP:N|impulse:STEP:N:OUTAGE|"
        "poisson:RATE:HORIZON|crash:JOB:FIRST:PERIOD:COUNT]\n"
        "               [--crash-policy=checkpoint|scratch]\n"
        "               [--policy-restart=preserve|reset] "
        "[--restart-delay=N]\n"
        "               [--resilience] [--trace=FILE] [--report] "
        "[--gantt] [--compare]\n"
        "               [--trace-out=FILE] [--metrics-out=FILE] "
        "[--profile[=FILE]]\n"
        "               [--open] [--arrival=poisson|mmpp|diurnal|"
        "heavytail|trace]\n"
        "               [--jobs-total=N] [--arrival-gap=G] "
        "[--trace-path=FILE]\n"
        "               [--stats-out=FILE]\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    // A --scenario file replaces the --workload axis and may carry machine
    // defaults; explicit --processors / --quantum flags still win.
    const abg::scenario::ScenarioSpec* scenario = nullptr;
    if (cli.has("scenario")) {
      if (cli.has("workload")) {
        throw std::invalid_argument(
            "--scenario and --workload are mutually exclusive");
      }
      scenario = &abg::scenario::load_cached(cli.get("scenario", ""));
    }
    // Count-like flags reject zero / negative / garbage values up front
    // (Cli throws std::invalid_argument, which exits 2 with usage).
    const int processors = static_cast<int>(cli.get_positive_int(
        "processors", scenario != nullptr && scenario->machine.processors > 0
                          ? scenario->machine.processors
                          : 128));
    const abg::dag::Steps quantum = cli.get_positive_int(
        "quantum", scenario != nullptr && scenario->machine.quantum > 0
                       ? scenario->machine.quantum
                       : 1000);
    const auto seed =
        static_cast<std::uint64_t>(cli.get_non_negative_int("seed", 1));

    const abg::core::SchedulerSpec scheduler = make_scheduler(cli);
    const auto allocator = make_allocator(cli);

    // A scenario with an arrival block engages the open driver by itself.
    const bool scenario_open =
        scenario != nullptr &&
        scenario->arrival.kind != abg::open::ArrivalKind::kNone;
    const bool open =
        cli.get_bool("open", false) || cli.has("arrival") || scenario_open;
    check_flags(cli, open);
    if (open) {
      return run_open_mode(cli, scenario, scheduler, allocator.get(),
                           processors, quantum, seed);
    }

    // Workload construction is a pure function of the seed, so the
    // comparison run can rebuild the byte-identical job set.
    auto build_workload = [&] {
      abg::util::Rng rng(seed);
      return make_workload(cli, scenario, rng, processors, quantum);
    };
    auto submissions = build_workload();

    std::vector<abg::metrics::JobSummary> summaries;
    for (const auto& s : submissions) {
      summaries.push_back(abg::metrics::JobSummary{
          s.job->total_work(), s.job->critical_path(), s.release_step});
    }

    const abg::fault::FaultPlan faults = make_fault_plan(cli, seed);
    abg::sim::SimConfig config{
        .processors = processors,
        .quantum_length = quantum,
        .max_active_jobs =
            static_cast<int>(cli.get_non_negative_int("jobs-cap", 0)),
        .reallocation_cost_per_proc = cli.get_non_negative_int("cost", 0),
        .engine =
            abg::sim::engine_kind_from_name(cli.get("engine", "sync"))};
    if (!faults.empty()) {
      config.faults = &faults;
    }

    // Hierarchical allocation: --hier-groups switches run_set onto the
    // sharded engine; the companion flags refine the tree and are
    // contradictions without it.
    config.hier.groups =
        static_cast<int>(cli.get_positive_int("hier-groups", 0));
    config.hier.allocator = cli.get("hier-alloc", "");
    config.hier.rebalance_quanta = cli.get_positive_int("hier-rebalance", 1);
    config.hier.threads =
        static_cast<int>(cli.get_non_negative_int("hier-threads", 1));
    if (config.hier.groups == 0) {
      for (const char* flag : {"hier-alloc", "hier-rebalance",
                               "hier-threads"}) {
        if (cli.has(flag)) {
          throw std::invalid_argument(std::string("--") + flag +
                                      " requires --hier-groups");
        }
      }
    }
    if (!config.hier.allocator.empty()) {
      // The group-allocator table rejects an unknown name up front.
      abg::hier::make_group_allocator(config.hier.allocator);
    }

    // Cluster mode: --cluster-machines switches run_set onto the cluster
    // driver; the companion flags refine it and are contradictions
    // without it.  A scenario with a cluster block engages cluster mode
    // by itself (explicit flags still win).
    config.cluster.machines = static_cast<int>(cli.get_positive_int(
        "cluster-machines",
        scenario != nullptr ? scenario->cluster.machines : 0));
    config.cluster.router = cli.get(
        "router", scenario != nullptr ? scenario->cluster.router : "");
    config.cluster.migration_period = cli.get_non_negative_int(
        "migration-period",
        scenario != nullptr ? scenario->cluster.migration_period : 0);
    config.cluster.threads =
        static_cast<int>(cli.get_non_negative_int("cluster-threads", 1));
    if (config.cluster.machines == 0) {
      for (const char* flag :
           {"router", "migration-period", "cluster-threads"}) {
        if (cli.has(flag)) {
          throw std::invalid_argument(std::string("--") + flag +
                                      " requires --cluster-machines");
        }
      }
    } else if (scenario != nullptr &&
               static_cast<int>(scenario->cluster.shapes.size()) ==
                   config.cluster.machines) {
      // Heterogeneous shapes from the scenario apply when the effective
      // machine count matches the shape list.  The driver checks the
      // router name and the composition before any simulation runs.
      config.cluster.shapes = scenario->cluster.shapes;
    }

    // Observability: the bus stays inactive (and the engine untouched)
    // unless an output flag subscribes a sink.
    abg::obs::EventBus bus;
    abg::obs::PerfettoTrace perfetto;
    abg::obs::SimTraceSink perfetto_sink(perfetto);
    abg::obs::MetricsRegistry registry;
    abg::obs::MetricsSink metrics_sink(registry);
    if (cli.has("trace-out")) {
      bus.subscribe(&perfetto_sink);
    }
    if (cli.has("metrics-out")) {
      bus.subscribe(&metrics_sink);
    }
    config.obs.event_bus = &bus;

    const abg::sim::SimResult result = abg::core::run_set(
        scheduler, std::move(submissions), config, allocator.get());

    // Validate against the run's real capacity: a cluster run schedules
    // over every machine, not the per-machine --processors value.
    const int capacity =
        config.cluster.machines > 0
            ? abg::cluster::ClusterSpec::resolve(config, "abg_sim")
                  .total_processors()
            : processors;
    const abg::sim::ValidationReport validation =
        abg::sim::validate_result_report(result, capacity);
    for (const std::string& issue : validation.issues) {
      std::cerr << "VALIDATION: " << issue << "\n";
    }
    for (const std::string& note : validation.notes) {
      std::cerr << "VALIDATION NOTE: " << note << "\n";
    }

    std::cout << "scheduler " << scheduler.name << ", allocator "
              << (allocator ? allocator->name() : "default");
    if (config.engine != abg::sim::EngineKind::kSync) {
      // The default engine is not printed so historic outputs are stable.
      std::cout << ", engine " << abg::sim::to_string(config.engine);
    }
    if (config.hier.groups > 0) {
      // Flat runs stay byte-identical: the hier clause only appears when
      // the axis is in use.
      std::cout << ", hier groups = " << config.hier.groups << " ("
                << (config.hier.allocator.empty() ? "inherit"
                                                  : config.hier.allocator)
                << ")";
    }
    if (config.cluster.machines > 0) {
      // Same omission rule as the hier clause.
      std::cout << ", cluster machines = " << config.cluster.machines << " ("
                << (config.cluster.router.empty() ? "least-loaded"
                                                  : config.cluster.router)
                << ")";
    }
    std::cout << ", P = " << processors << ", L = " << quantum << ", jobs = "
              << result.jobs.size() << "\n\n";
    abg::util::Table table({"job", "work", "T_inf", "response", "resp/Tinf",
                            "waste/T1", "measured C_L", "quanta"});
    for (std::size_t j = 0; j < result.jobs.size(); ++j) {
      const auto& t = result.jobs[j];
      table.add_row(
          {std::to_string(j), std::to_string(t.work),
           std::to_string(t.critical_path),
           std::to_string(t.response_time()),
           abg::util::format_double(
               static_cast<double>(t.response_time()) /
                   static_cast<double>(std::max<abg::dag::Steps>(
                       1, t.critical_path)), 2),
           abg::util::format_double(
               static_cast<double>(t.total_waste()) /
                   static_cast<double>(std::max<abg::dag::TaskCount>(
                       1, t.work)), 3),
           abg::util::format_double(
               abg::metrics::empirical_transition_factor(t), 2),
           std::to_string(t.quanta.size())});
    }
    table.print(std::cout);
    std::cout << "\nmakespan " << result.makespan << " (lower bound "
              << abg::util::format_double(
                     abg::metrics::makespan_lower_bound(summaries,
                                                        capacity), 1)
              << "), mean response "
              << abg::util::format_double(result.mean_response_time, 1)
              << ", total waste " << result.total_waste
              << ", machine utilization "
              << abg::util::format_double(
                     abg::sim::machine_utilization(result, capacity), 3)
              << "\n";

    if (result.jobs.size() > 1) {
      std::cout << "slowdown fairness (Jain) = "
                << abg::util::format_double(
                       abg::metrics::jain_slowdown_fairness(result), 3)
                << "\n";
    }

    if (cli.get_bool("report", false)) {
      for (std::size_t j = 0; j < result.jobs.size(); ++j) {
        std::cout << "\njob " << j << ":\n"
                  << abg::sim::feedback_report(result.jobs[j]);
      }
    }
    if (cli.get_bool("gantt", false)) {
      std::cout << "\n" << abg::sim::gantt_chart(result, processors);
    }
    if (cli.get_bool("compare", false)) {
      const auto baseline_alloc = make_allocator(cli);
      // The comparison run is not part of the observed run: detach the bus
      // so --trace-out / --metrics-out describe the primary result only.
      abg::sim::SimConfig baseline_config = config;
      baseline_config.obs = {};
      const abg::sim::SimResult baseline = abg::core::run_set(
          abg::core::a_greedy_spec(), build_workload(), baseline_config,
          baseline_alloc.get());
      std::cout << "\nA-Greedy on the identical workload: makespan "
                << baseline.makespan << " ("
                << abg::util::format_double(
                       static_cast<double>(baseline.makespan) /
                           static_cast<double>(result.makespan), 3)
                << "x " << scheduler.name << "), mean response "
                << abg::util::format_double(baseline.mean_response_time, 1)
                << ", total waste " << baseline.total_waste << "\n";
    }
    if (cli.get_bool("resilience", false)) {
      // Fault-free reference on the byte-identical workload.
      abg::sim::SimConfig reference_config = config;
      reference_config.faults = nullptr;
      reference_config.obs = {};
      const auto reference_alloc = make_allocator(cli);
      const abg::sim::SimResult reference = abg::core::run_set(
          scheduler, build_workload(), reference_config,
          reference_alloc.get());
      std::cout << "\n"
                << abg::sim::resilience_report(result, reference);
    }
    if (cli.has("trace")) {
      const std::string path = cli.get("trace", "");
      abg::util::write_file_atomic(path, [&result](std::ostream& out) {
        abg::sim::write_trace_csv(out, result.jobs.at(0));
      });
      std::cout << "\nwrote " << path << "\n";
    }
    if (cli.has("trace-out")) {
      const std::string path = cli.get("trace-out", "");
      abg::util::write_file_atomic(
          path, [&perfetto](std::ostream& out) { perfetto.write(out); });
      std::cout << "\nwrote Perfetto trace to " << path << " ("
                << perfetto.event_count()
                << " events; open in ui.perfetto.dev)\n";
    }
    if (cli.has("metrics-out")) {
      const std::string path = cli.get("metrics-out", "");
      abg::util::write_file_atomic(path, [&registry](std::ostream& out) {
        registry.write(out);
        out << "\n";
      });
      std::cout << "\nwrote metrics to " << path << "\n";
    }
    if (cli.has("profile")) {
      // Self-profiling: rerun the configured scenario under BOTH boundary
      // models, timed, and report simulated-steps/sec per engine.
      std::string path = cli.get("profile", "");
      if (path.empty() || path == "true") {
        path = "BENCH_profile.json";
      }
      const auto simulated_steps = [](const abg::sim::SimResult& r) {
        std::int64_t steps = 0;
        for (const auto& trace : r.jobs) {
          for (const auto& q : trace.quanta) {
            steps += q.steps_used;
          }
        }
        return steps;
      };
      abg::obs::Profiler profiler;
      for (const abg::sim::EngineKind kind :
           {abg::sim::EngineKind::kSync, abg::sim::EngineKind::kAsync}) {
        abg::sim::SimConfig profile_config = config;
        profile_config.engine = kind;
        profile_config.obs = {};
        // The flat legs compare the two boundary models; the sharded
        // engine (sync-only) gets its own leg below when configured.
        profile_config.hier = {};
        profile_config.cluster = {};
        const auto profile_alloc = make_allocator(cli);
        auto scope = profiler.time(
            "engine." + std::string(abg::sim::to_string(kind)));
        const abg::sim::SimResult timed = abg::core::run_set(
            scheduler, build_workload(), profile_config,
            profile_alloc.get());
        scope.add_items(simulated_steps(timed));
      }
      if (config.hier.groups > 0) {
        // Third leg: the configured hierarchical run itself, with the
        // aggregation-latency span ("hier.rebalance") attached.
        abg::sim::SimConfig profile_config = config;
        profile_config.obs = {};
        profile_config.hier.profiler = &profiler;
        const auto profile_alloc = make_allocator(cli);
        auto scope = profiler.time("engine.hier");
        const abg::sim::SimResult timed = abg::core::run_set(
            scheduler, build_workload(), profile_config,
            profile_alloc.get());
        scope.add_items(simulated_steps(timed));
      }
      abg::util::write_file_atomic(
          path, [&profiler](std::ostream& out) { profiler.write(out); });
      const auto rate = [&profiler](const char* span) {
        const abg::obs::ProfileSpan s = profiler.span(span);
        return s.seconds > 0.0 ? static_cast<double>(s.items) / s.seconds
                               : 0.0;
      };
      std::cout << "\nwrote profile to " << path << " (sync "
                << abg::util::format_double(rate("engine.sync"), 0)
                << " steps/s, async "
                << abg::util::format_double(rate("engine.async"), 0)
                << " steps/s";
      if (config.hier.groups > 0) {
        std::cout << ", hier "
                  << abg::util::format_double(rate("engine.hier"), 0)
                  << " steps/s";
      }
      std::cout << ")\n";
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    // Bad flag or flag value: say what was wrong, show the usage, and
    // exit distinctly from runtime failures.
    std::cerr << "abg_sim: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "abg_sim: " << e.what() << "\n";
    return 1;
  }
}
