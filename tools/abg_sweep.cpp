// abg_sweep — the unified parameter-sweep CLI.
//
// Replaces the ad-hoc nested loops of the figure harnesses with one grid
// runner: a sweep is the cartesian product of repeated `--param` flags,
// executed on the exp::SweepRunner thread pool with deterministic per-run
// seeding (results are byte-identical at any --jobs level), aggregated by
// exp::ResultSink into JSONL plus a BENCH_sweeps.json summary.
//
//   ./abg_sweep --param scheduler=abg,a-greedy --param load=0.5,1,2
//               --reps 30 --jobs 8
//
// Grid parameters (each takes a comma-separated value list):
//   scheduler   abg | a-greedy | abg-auto | static   [default abg,a-greedy]
//   r           ABG convergence rate                  [default 0.2]
//   workload    job-set | fork-join | square-wave     [default job-set]
//   scenario    scenario file path(s) — declarative workloads from the
//               scenario library (mutually exclusive with workload; the
//               file's machine / arrival defaults apply unless the grid
//               overrides them).  Also settable as repeated --scenario
//               flags.
//   load        job-set target load                   [default 1]
//   factor      fork-join transition factor           [default 10]
//   njobs       fork-join / square-wave job count     [default 4]
//   levels      square-wave profile length            [default 600]
//   processors  machine size P                        [default 128]
//   quantum     quantum length L                      [default 1000]
//   allocator   deq | rr | hesrpt                     [default deq]
//   fault       none | step | impulse | poisson | crash  [default none]
//   engine      sync | async boundary model           [default sync]
//   release     batched | staggered | poisson closed-release schedule
//               [default batched]
//   gap         release-schedule (mean) inter-release gap in steps
//   arrival     none | poisson | mmpp | diurnal | heavytail | trace —
//               open-system streaming runs (the load param doubles as the
//               offered load; composes with scheduler / allocator /
//               machine params but not fault, engine=async, or
//               --hier-groups)                        [default none]
//   cluster-machines  machine counts for the cluster engine (0 = flat;
//               processors is then the per-machine size; composes with
//               scheduler / allocator / machine params but not fault,
//               engine=async, arrival params, or --hier-groups)
//               [default 0]
//   router      least-loaded | round-robin | desire-aware |
//               class-affinity job-placement policy (requires a
//               cluster-machines param)               [default least-loaded]
//
// Other flags:
//   --reps=N      replications per grid point (default 5)
//   --seed=S      base seed (default 2008)
//   --jobs=N      worker threads; 0 = hardware concurrency (default 1)
//   --hier-groups=N   run every point on the sharded hierarchical engine
//                 with N allocation groups (N >= 1; sync engine, no fault
//                 scenarios).  Default: flat engines.
//   --hier-alloc=deq|rr  group/root allocator of the hierarchical tree
//                 (requires --hier-groups; default: the run's allocator)
//   --jsonl=PATH  per-run records; '-' = stdout, 'none' = skip
//                 (default sweep.jsonl)
//   --summary=PATH  aggregated summary; 'none' = skip
//                 (default BENCH_sweeps.json)
//   --quiet       suppress the stderr progress line
//   --metrics-out=PATH  merged engine-metrics registry of every run (JSON;
//                 thread-count independent, cmp-able across --jobs levels)
//   --trace-out=PATH    Perfetto timeline of the sweep execution itself
//                 (one track per worker thread, one slice per run;
//                 wall-clock, open in ui.perfetto.dev)
//   --profile[=PATH]    sweep throughput spans (runs/sec)
//                 [PATH defaults to BENCH_profile.json]
//   --hier-threads=N    worker threads per hier run's group loops
//                 (requires --hier-groups; default 1; results are
//                 thread-count independent)
//   --migration-period=N   inter-machine migration epoch in quanta for
//                 cluster runs (requires a cluster-machines param;
//                 default 0 = migration disabled)
//   --cluster-threads=N    worker threads per cluster run's machine loops
//                 (requires a cluster-machines param; default 1; results
//                 are thread-count independent)
//   --jobs-total=N      arrivals per open-system run (requires a
//                 non-none arrival param; default 100000)
//   --trace-path=FILE   JSONL arrival trace of arrival=trace runs
//
// Robustness (see docs/robustness.md):
//   --journal=PATH      append-only JSONL run journal of every cell's
//                 lifecycle; survives crashes (at most one torn tail line)
//   --resume=PATH       replay a journal: completed cells are re-used
//                 verbatim, everything else re-executes; final artifacts
//                 are byte-identical to an uninterrupted run.  The journal
//                 keeps growing at the same path (--journal not needed).
//   --run-timeout=SECS  wall-clock deadline per run; overdue runs are
//                 cancelled cooperatively by the watchdog and retried
//   --max-retries=N     extra attempts for a failing cell before it is
//                 quarantined (default 0)
//   --backoff=SECS      base of the exponential retry backoff (default 0.1)
//
// All artifacts are written atomically (temp file + rename), so a crash
// never leaves a half-written JSONL/JSON behind.  SIGINT/SIGTERM drain
// the sweep: the first signal stops new cells (in-flight runs finish and
// are journaled), a second cancels in-flight runs too, a third exits
// immediately.  An interrupted sweep skips the final artifacts, prints a
// --resume hint and exits 130.
//
// Every grid point is checked against sim::check_composition (the
// composition table in docs/architecture.md) before any cell runs.
//
// Exit codes: 0 complete, 2 usage/config error, 3 completed with
// quarantined cells (degraded coverage), 130 interrupted.
//
// Scheduler-side parameters (scheduler, r) do not advance the workload
// seed index: every scheduler variant runs the exact same workloads, so
// paired ratios between schedulers are free of sampling noise.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "exp/journal.hpp"
#include "exp/result_sink.hpp"
#include "exp/runner.hpp"
#include "hier/desire_aggregator.hpp"
#include "scenario/library.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sweep_timeline.hpp"
#include "util/atomic_file.hpp"
#include "util/cancel.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using abg::exp::RunRecord;
using abg::exp::RunSpec;

// Shutdown tokens set from the signal handler (CancelToken::cancel is a
// single lock-free CAS, hence async-signal-safe).  First signal: drain —
// no new cells start, in-flight runs finish and are journaled.  Second:
// abort — the watchdog cancels in-flight runs too.  Third: give up and
// exit immediately.
abg::util::CancelToken g_drain;
abg::util::CancelToken g_abort;
std::atomic<int> g_signals{0};

void handle_shutdown_signal(int /*signum*/) {
  const int count = g_signals.fetch_add(1) + 1;
  if (count == 1) {
    g_drain.cancel(abg::util::CancelCause::kShutdown);
  } else if (count == 2) {
    g_abort.cancel(abg::util::CancelCause::kShutdown);
  } else {
    std::_Exit(130);
  }
}

/// One grid dimension: a key and its value list.
struct Dimension {
  std::string key;
  std::vector<std::string> values;
};

/// Canonical dimension order (fixes expansion order and run ids).
const std::vector<std::string> kKnownKeys = {
    "scheduler", "r",       "workload",   "scenario",   "load",
    "factor",    "njobs",   "levels",     "quantum",    "processors",
    "allocator", "fault",   "engine",     "release",    "gap",
    "arrival",   "cluster-machines",      "router"};

/// Every flag this tool understands; anything else is a usage error
/// (Cli::reject_unknown) so a misspelled flag cannot silently vanish.
const std::vector<std::string> kKnownFlags = {
    "param",        "scenario",    "reps",        "seed",
    "jobs",         "jsonl",       "summary",     "quiet",
    "metrics-out",  "trace-out",   "profile",     "hier-groups",
    "hier-alloc",   "hier-threads", "jobs-total", "trace-path",
    "migration-period", "cluster-threads",
    "journal",      "resume",      "run-timeout", "max-retries",
    "backoff",      "test-hang-run", "test-fail-run"};

/// Keys that select the scheduler rather than the simulated scenario;
/// they are excluded from the workload seed index and the group label.
bool is_scheduler_key(const std::string& key) {
  return key == "scheduler" || key == "r";
}

/// Keys that shape the generated workload (seed-index-relevant).  The
/// allocator and fault plan perturb the simulation of a workload, not the
/// workload itself, so they share seeds across their values too.
bool is_workload_key(const std::string& key) {
  return key == "workload" || key == "scenario" || key == "load" ||
         key == "factor" || key == "njobs" || key == "levels" ||
         key == "quantum" || key == "processors" || key == "release" ||
         key == "gap" || key == "arrival";
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) {
      out.push_back(text.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (pos != value.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--param " + key + ": '" + value +
                                "' is not a number");
  }
}

int parse_int(const std::string& key, const std::string& value) {
  const double parsed = parse_double(key, value);
  const int as_int = static_cast<int>(parsed);
  if (static_cast<double>(as_int) != parsed) {
    throw std::invalid_argument("--param " + key + ": '" + value +
                                "' is not an integer");
  }
  return as_int;
}

/// Parses the repeated --param flags into ordered dimensions, injecting
/// defaults for absent keys.
std::vector<Dimension> build_dimensions(const abg::util::Cli& cli) {
  std::map<std::string, std::vector<std::string>> params;
  for (const std::string& flag : cli.get_all("param")) {
    const std::size_t eq = flag.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("--param expects key=v1,v2,..., got '" +
                                  flag + "'");
    }
    const std::string key = flag.substr(0, eq);
    if (std::find(kKnownKeys.begin(), kKnownKeys.end(), key) ==
        kKnownKeys.end()) {
      std::string known;
      for (const std::string& k : kKnownKeys) {
        if (!known.empty()) {
          known += ", ";
        }
        known += k;
      }
      throw std::invalid_argument("--param " + key +
                                  ": unknown key (known: " + known + ")");
    }
    const std::vector<std::string> values = split_csv(flag.substr(eq + 1));
    if (values.empty()) {
      throw std::invalid_argument("--param " + key + ": empty value list");
    }
    auto& slot = params[key];
    slot.insert(slot.end(), values.begin(), values.end());
  }
  // Repeated --scenario FILE flags merge into the scenario dimension, the
  // ergonomic spelling of --param scenario=FILE1,FILE2.
  for (const std::string& path : cli.get_all("scenario")) {
    if (path.empty() || path == "true") {
      throw std::invalid_argument("--scenario expects a scenario file path");
    }
    params["scenario"].push_back(path);
  }
  if (params.contains("scenario") && params.contains("workload")) {
    throw std::invalid_argument(
        "--param workload and scenario are mutually exclusive (a scenario "
        "file fully describes its workload)");
  }
  if (!params.contains("scheduler")) {
    params["scheduler"] = {"abg", "a-greedy"};
  }

  std::vector<Dimension> dims;
  for (const std::string& key : kKnownKeys) {
    const auto it = params.find(key);
    if (it != params.end()) {
      dims.push_back({key, it->second});
    }
  }
  return dims;
}

/// Builds the RunSpec of one fully bound grid point.
RunSpec spec_of(const std::map<std::string, std::string>& point) {
  RunSpec spec;
  std::string group;
  for (const std::string& key : kKnownKeys) {
    const auto it = point.find(key);
    if (it == point.end()) {
      continue;
    }
    const std::string& value = it->second;
    if (key == "scheduler") {
      spec.scheduler = abg::exp::scheduler_kind_from_name(value);
    } else if (key == "r") {
      spec.scheduler_params.convergence_rate = parse_double(key, value);
    } else if (key == "workload") {
      spec.workload.kind = abg::exp::workload_kind_from_name(value);
    } else if (key == "scenario") {
      spec.workload.kind = abg::exp::WorkloadKind::kScenario;
      spec.workload.scenario_path = value;
    } else if (key == "load") {
      spec.workload.load = parse_double(key, value);
    } else if (key == "factor") {
      spec.workload.transition_factor = parse_double(key, value);
    } else if (key == "njobs") {
      spec.workload.jobs = parse_int(key, value);
    } else if (key == "levels") {
      spec.workload.levels = parse_int(key, value);
    } else if (key == "quantum") {
      spec.machine.quantum_length = parse_int(key, value);
    } else if (key == "processors") {
      spec.machine.processors = parse_int(key, value);
    } else if (key == "allocator") {
      spec.allocator = abg::exp::allocator_kind_from_name(value);
    } else if (key == "fault") {
      spec.faults.scenario = abg::exp::fault_scenario_from_name(value);
    } else if (key == "engine") {
      spec.engine = abg::sim::engine_kind_from_name(value);
    } else if (key == "release") {
      spec.workload.release = abg::exp::release_kind_from_name(value);
    } else if (key == "gap") {
      spec.workload.release_gap = parse_double(key, value);
    } else if (key == "arrival") {
      spec.open.arrival = abg::open::arrival_kind_from_name(value);
    } else if (key == "cluster-machines") {
      const int machines = parse_int(key, value);
      if (machines < 0) {
        throw std::invalid_argument(
            "--param cluster-machines: '" + value +
            "' must be >= 0 (0 = flat single machine)");
      }
      spec.cluster_machines = machines;
    } else if (key == "router") {
      abg::cluster::make_router(value);  // validates the policy name
      spec.router = value;
    }
    if (!is_scheduler_key(key)) {
      // Scenario identity is the spec's *name*, not its path: an imported
      // copy of a scenario at a different path yields identical group
      // labels, hence identical aggregated artifacts.
      const std::string label =
          key == "scenario" ? abg::scenario::load_cached(value).name : value;
      group += (group.empty() ? "" : ",") + key + "=" + label;
    }
  }
  // Scenario machine / arrival defaults apply where the grid is silent.
  if (spec.workload.kind == abg::exp::WorkloadKind::kScenario) {
    const abg::scenario::ScenarioSpec& scenario =
        abg::scenario::load_cached(spec.workload.scenario_path);
    if (scenario.machine.processors > 0 && !point.contains("processors")) {
      spec.machine.processors = scenario.machine.processors;
    }
    if (scenario.machine.quantum > 0 && !point.contains("quantum")) {
      spec.machine.quantum_length = scenario.machine.quantum;
    }
    if (scenario.arrival.kind != abg::open::ArrivalKind::kNone &&
        !point.contains("arrival")) {
      spec.open.arrival = scenario.arrival.kind;
      if (scenario.arrival.jobs_total > 0) {
        spec.open.jobs_total = scenario.arrival.jobs_total;
      }
      if (scenario.arrival.load > 0.0 && !point.contains("load")) {
        spec.workload.load = scenario.arrival.load;
      }
    }
    // A scenario's cluster block engages the cluster engine where the
    // grid is silent (its migration period rides along; the
    // --migration-period flag still wins in main()).
    if (scenario.cluster.machines > 0 &&
        !point.contains("cluster-machines")) {
      spec.cluster_machines = scenario.cluster.machines;
      spec.migration_period = scenario.cluster.migration_period;
      if (!point.contains("router")) {
        spec.router = scenario.cluster.router;
      }
    }
  }
  spec.group = group.empty() ? "all" : group;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);
  try {
    const abg::util::Cli cli(argc, argv);
    cli.reject_unknown(kKnownFlags);
    if (!cli.positional().empty()) {
      throw std::invalid_argument("unexpected argument '" +
                                  cli.positional().front() +
                                  "' (abg_sweep takes only --flags)");
    }
    const auto reps = static_cast<int>(cli.get_positive_int("reps", 5));
    const auto seed =
        static_cast<std::uint64_t>(cli.get_non_negative_int("seed", 2008));
    const auto threads =
        static_cast<int>(cli.get_non_negative_int("jobs", 1));
    const std::string jsonl_path = cli.get("jsonl", "sweep.jsonl");
    const std::string summary_path = cli.get("summary", "BENCH_sweeps.json");

    // Robustness knobs.  Contradictory values (negative retries, zero
    // timeout, garbage) are Cli errors up front, not mid-sweep surprises.
    const double run_timeout = cli.get_positive_double("run-timeout", 0.0);
    const auto max_retries =
        static_cast<int>(cli.get_non_negative_int("max-retries", 0));
    const double backoff = cli.get_positive_double("backoff", 0.1);
    const std::string resume_path = cli.get("resume", "");
    std::string journal_path = cli.get("journal", "");
    if (!resume_path.empty()) {
      if (!journal_path.empty() && journal_path != resume_path) {
        throw std::invalid_argument(
            "--resume already names the journal; drop --journal or make "
            "them equal");
      }
      journal_path = resume_path;
    }

    // Hierarchical axis: a global switch, not a grid dimension — every
    // grid point runs on the same tree.  Contradictory values (0,
    // negative, junk) are Cli errors, not silent fallbacks.
    const auto hier_groups =
        static_cast<int>(cli.get_positive_int("hier-groups", 0));
    const std::string hier_alloc = cli.get("hier-alloc", "");
    const auto hier_threads =
        static_cast<int>(cli.get_positive_int("hier-threads", 1));
    if (hier_groups == 0) {
      // Whatever their value, as abg_sim rules.
      for (const char* flag : {"hier-alloc", "hier-threads"}) {
        if (cli.has(flag)) {
          throw std::invalid_argument(std::string("--") + flag +
                                      " requires --hier-groups");
        }
      }
    }
    if (!hier_alloc.empty()) {
      // The group-allocator table rejects an unknown name up front.
      abg::hier::make_group_allocator(hier_alloc);
    }

    // Open-system knobs: global (not grid dimensions) — every open grid
    // point streams the same number of arrivals.
    const auto jobs_total =
        static_cast<std::int64_t>(cli.get_positive_int("jobs-total", 100000));
    const std::string trace_path = cli.get("trace-path", "");

    // Cluster knobs: global like the hier/open ones — every cluster grid
    // point shares the migration epoch and machine-loop thread count.
    const abg::dag::Steps migration_period =
        cli.get_non_negative_int("migration-period", 0);
    const auto cluster_threads =
        static_cast<int>(cli.get_positive_int("cluster-threads", 1));

    const std::vector<Dimension> dims = build_dimensions(cli);

    // Odometer over the dimensions, last dimension fastest.  The workload
    // seed index enumerates only workload-shaping dimensions, so scheduler
    // / allocator / fault variants replay identical workloads.
    std::size_t workload_points = 1;
    for (const Dimension& dim : dims) {
      if (is_workload_key(dim.key)) {
        workload_points *= dim.values.size();
      }
    }
    std::vector<RunSpec> specs;
    bool any_open = false;
    bool any_cluster = false;
    std::vector<std::size_t> odometer(dims.size(), 0);
    for (;;) {
      std::map<std::string, std::string> point;
      std::size_t workload_index = 0;
      for (std::size_t d = 0; d < dims.size(); ++d) {
        point[dims[d].key] = dims[d].values[odometer[d]];
        if (is_workload_key(dims[d].key)) {
          workload_index =
              workload_index * dims[d].values.size() + odometer[d];
        }
      }
      RunSpec base = spec_of(point);
      base.hier_groups = hier_groups;
      base.hier_alloc = hier_alloc;
      base.hier_threads = hier_threads;
      if (base.cluster_machines > 0) {
        base.cluster_threads = cluster_threads;
        // The flag overrides a scenario-adopted migration period.
        if (cli.has("migration-period")) {
          base.migration_period = migration_period;
        }
      }
      if (base.open.arrival != abg::open::ArrivalKind::kNone) {
        // A scenario's own jobs_total survives unless the flag was given.
        if (cli.has("jobs-total") || base.open.jobs_total <= 0) {
          base.open.jobs_total = jobs_total;
        }
        if (!trace_path.empty()) {
          base.open.trace_path = trace_path;
        }
      }
      // Every grid point meets the composition table before any cell
      // runs, so a contradictory grid dies up front instead of
      // quarantining its cells mid-sweep.
      const abg::sim::RunAxes axes = abg::exp::axes_of(base);
      abg::sim::check_composition(axes, "grid point " + base.group);
      any_open = any_open || axes.open;
      any_cluster = any_cluster || axes.cluster;
      if (base.open.arrival == abg::open::ArrivalKind::kTrace &&
          base.open.trace_path.empty()) {
        throw std::invalid_argument(
            "--param arrival=trace requires --trace-path");
      }
      for (int rep = 0; rep < reps; ++rep) {
        RunSpec spec = base;
        spec.seed_index = static_cast<std::uint64_t>(rep) * workload_points +
                          workload_index;
        specs.push_back(std::move(spec));
      }
      // Advance the odometer; stop after the most significant digit wraps.
      bool wrapped = true;
      for (std::size_t d = dims.size(); d-- > 0;) {
        if (++odometer[d] < dims[d].values.size()) {
          wrapped = false;
          break;
        }
        odometer[d] = 0;
      }
      if (dims.empty() || wrapped) {
        break;
      }
    }
    if (!any_open && (cli.has("jobs-total") || cli.has("trace-path"))) {
      throw std::invalid_argument(
          "--jobs-total / --trace-path require an open-system arrival "
          "param (e.g. --param arrival=poisson)");
    }
    const bool has_router_dim =
        std::any_of(dims.begin(), dims.end(),
                    [](const Dimension& dim) { return dim.key == "router"; });
    if (has_router_dim && !any_cluster) {
      throw std::invalid_argument(
          "--param router requires a cluster axis (add --param "
          "cluster-machines=N)");
    }
    if ((cli.has("migration-period") || cli.has("cluster-threads")) &&
        !any_cluster) {
      throw std::invalid_argument(
          "--migration-period / --cluster-threads require a cluster axis "
          "(add --param cluster-machines=N)");
    }

    // Undocumented fixture hooks: make run ID hang until cancelled /
    // fail its first N attempts.  They never enter the spec digest, so a
    // journal written with a hook resumes cleanly without it.
    const std::int64_t hang_run = cli.get_int("test-hang-run", -1);
    if (hang_run >= 0) {
      if (static_cast<std::size_t>(hang_run) >= specs.size()) {
        throw std::invalid_argument("--test-hang-run: run id out of range");
      }
      specs[static_cast<std::size_t>(hang_run)].debug.hang = true;
    }
    const std::string fail_run = cli.get("test-fail-run", "");
    if (!fail_run.empty()) {
      const std::size_t colon = fail_run.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--test-fail-run expects RUN_ID:N");
      }
      const std::int64_t id = std::stoll(fail_run.substr(0, colon));
      const int attempts = std::stoi(fail_run.substr(colon + 1));
      if (id < 0 || static_cast<std::size_t>(id) >= specs.size() ||
          attempts < 1) {
        throw std::invalid_argument("--test-fail-run: bad RUN_ID:N");
      }
      specs[static_cast<std::size_t>(id)].debug.fail_attempts = attempts;
    }

    // Fail fast on unwritable outputs: probe every artifact path before
    // any sweep CPU is spent.
    if (jsonl_path != "-" && jsonl_path != "none") {
      abg::util::probe_writable(jsonl_path);
    }
    if (summary_path != "none") {
      abg::util::probe_writable(summary_path);
    }
    for (const char* flag : {"metrics-out", "trace-out"}) {
      if (cli.has(flag)) {
        abg::util::probe_writable(cli.get(flag, ""));
      }
    }
    std::string profile_path = cli.get("profile", "");
    if (profile_path.empty() || profile_path == "true") {
      profile_path = "BENCH_profile.json";
    }
    if (cli.has("profile")) {
      abg::util::probe_writable(profile_path);
    }

    // Journal / resume: the replay is validated against this exact grid
    // before any cell is skipped.
    const std::uint64_t grid = abg::exp::grid_digest(specs, seed);
    std::optional<abg::exp::JournalReplay> replay;
    if (!resume_path.empty()) {
      replay.emplace(abg::exp::load_journal(resume_path));
      if (replay->grid != grid) {
        throw std::invalid_argument(
            "--resume: journal " + resume_path +
            " records a different grid (digest " +
            abg::exp::digest_to_hex(replay->grid) + " vs " +
            abg::exp::digest_to_hex(grid) +
            "); refusing to mix sweeps");
      }
    }
    std::optional<abg::exp::RunJournal> journal;
    if (!journal_path.empty()) {
      journal.emplace(journal_path, seed, specs.size(), grid);
    }

    abg::exp::SweepConfig sweep;
    sweep.threads = threads;
    sweep.base_seed = seed;
    sweep.robustness.run_timeout_seconds = run_timeout;
    sweep.robustness.max_retries = max_retries;
    sweep.robustness.backoff_seconds = backoff;
    sweep.robustness.journal = journal.has_value() ? &*journal : nullptr;
    sweep.robustness.resume = replay.has_value() ? &*replay : nullptr;
    sweep.robustness.drain = &g_drain;
    sweep.robustness.abort = &g_abort;
    if (!cli.get_bool("quiet", false)) {
      sweep.on_progress = abg::exp::stderr_progress();
    }
    // Observability outputs: all three are opt-in and none touches the
    // deterministic records (metrics merges are thread-count independent;
    // the timeline and profiler are wall-clock by design).
    abg::obs::MetricsRegistry registry;
    abg::obs::SweepTimeline timeline;
    abg::obs::Profiler profiler;
    if (cli.has("metrics-out")) {
      sweep.metrics = &registry;
    }
    if (cli.has("trace-out")) {
      sweep.timeline = &timeline;
    }
    if (cli.has("profile")) {
      sweep.profiler = &profiler;
    }
    abg::exp::SweepOutcome outcome;
    {
      std::optional<abg::obs::Profiler::Scope> total_scope;
      if (cli.has("profile")) {
        total_scope.emplace(&profiler, "sweep.total",
                            static_cast<std::int64_t>(specs.size()));
      }
      outcome = abg::exp::SweepRunner(sweep).run_monitored(specs);
    }

    // Interrupted: the grid is incomplete, so no final artifact is
    // written (partial files would be mistaken for results).  The journal
    // already holds every completed cell; resume picks them up.
    if (outcome.interrupted) {
      std::cerr << "\nabg_sweep: interrupted — " << outcome.skipped
                << " of " << specs.size() << " cells not completed\n";
      if (journal_path.empty()) {
        std::cerr << "abg_sweep: no journal was kept; rerun with "
                     "--journal=PATH to make sweeps resumable\n";
      } else {
        std::cerr << "abg_sweep: resume with --resume=" << journal_path
                  << "\n";
      }
      return 130;
    }
    const std::vector<RunRecord>& records = outcome.records;

    // Aggregate table on stdout: one row per (group, scheduler) in order
    // of first appearance.
    struct Agg {
      std::string group;
      std::string scheduler;
      abg::util::RunningStats makespan;
      abg::util::RunningStats m_over_lb;
      abg::util::RunningStats r_over_lb;
      abg::util::RunningStats waste;
    };
    std::vector<Agg> aggs;
    for (const RunRecord& record : records) {
      if (!record.failure.empty()) {
        continue;  // quarantined cells have no metrics to aggregate
      }
      auto it = std::find_if(aggs.begin(), aggs.end(), [&](const Agg& a) {
        return a.group == record.group && a.scheduler == record.scheduler;
      });
      if (it == aggs.end()) {
        aggs.push_back(Agg{record.group, record.scheduler, {}, {}, {}, {}});
        it = std::prev(aggs.end());
      }
      it->makespan.add(record.metric("makespan"));
      if (record.has_metric("makespan_over_lb")) {
        it->m_over_lb.add(record.metric("makespan_over_lb"));
      }
      if (record.has_metric("response_over_lb")) {
        it->r_over_lb.add(record.metric("response_over_lb"));
      }
      it->waste.add(record.metric("total_waste"));
    }
    abg::util::Table table({"group", "scheduler", "runs", "makespan", "M/LB",
                            "R/LB", "waste"});
    for (const Agg& agg : aggs) {
      table.add_row({agg.group, agg.scheduler,
                     std::to_string(agg.makespan.count()),
                     abg::util::format_double(agg.makespan.mean(), 1),
                     abg::util::format_double(agg.m_over_lb.mean(), 3),
                     abg::util::format_double(agg.r_over_lb.mean(), 3),
                     abg::util::format_double(agg.waste.mean(), 1)});
    }
    std::cout << "abg_sweep: " << specs.size() << " runs ("
              << reps << " rep(s) x " << specs.size() / std::max(1, reps)
              << " grid points), base seed " << seed << "\n";
    if (outcome.resumed > 0) {
      std::cout << "abg_sweep: resumed " << outcome.resumed
                << " completed cell(s) from " << resume_path << ", executed "
                << outcome.executed << "\n";
    }
    if (outcome.retries > 0 || outcome.timeouts > 0) {
      std::cout << "abg_sweep: " << outcome.retries << " retr"
                << (outcome.retries == 1 ? "y" : "ies") << ", "
                << outcome.timeouts << " timeout(s)\n";
    }
    std::cout << "\n";
    table.print(std::cout);

    // The degraded-coverage report: name every excluded cell and why.
    if (outcome.quarantined > 0) {
      std::cout << "\nabg_sweep: QUARANTINED " << outcome.quarantined
                << " run(s) — coverage is degraded:\n";
      for (const RunRecord& record : records) {
        if (!record.failure.empty()) {
          std::cout << "  run " << record.run_id << " [" << record.group
                    << " / " << record.scheduler << "]: " << record.failure
                    << "\n";
        }
      }
    }

    abg::exp::ResultSink sink("sweeps", seed);
    sink.add_all(records);
    if (jsonl_path == "-") {
      sink.write_jsonl(std::cout);
    } else if (jsonl_path != "none") {
      sink.write_jsonl_file(jsonl_path);
      std::cout << "\nwrote " << records.size() << " records to "
                << jsonl_path;
    }
    if (summary_path != "none") {
      sink.write_summary_file(summary_path);
      std::cout << "\nwrote summary to " << summary_path;
    }
    if (cli.has("metrics-out")) {
      const std::string path = cli.get("metrics-out", "");
      abg::util::write_file_atomic(path, [&registry](std::ostream& out) {
        registry.write(out);
        out << "\n";
      });
      std::cout << "\nwrote merged metrics to " << path;
    }
    if (cli.has("trace-out")) {
      const std::string path = cli.get("trace-out", "");
      const abg::obs::PerfettoTrace trace = timeline.to_trace();
      abg::util::write_file_atomic(
          path, [&trace](std::ostream& out) { trace.write(out); });
      std::cout << "\nwrote sweep timeline to " << path << " ("
                << timeline.size() << " run slices)";
    }
    if (cli.has("profile")) {
      abg::util::write_file_atomic(
          profile_path,
          [&profiler](std::ostream& out) { profiler.write(out); });
      const abg::obs::ProfileSpan total = profiler.span("sweep.total");
      std::cout << "\nwrote profile to " << profile_path << " ("
                << abg::util::format_double(
                       total.seconds > 0.0
                           ? static_cast<double>(total.items) / total.seconds
                           : 0.0,
                       1)
                << " runs/s)";
    }
    std::cout << "\n";
    return outcome.quarantined > 0 ? 3 : 0;
  } catch (const std::exception& error) {
    std::cerr << "abg_sweep: " << error.what() << "\n";
    return 2;
  }
}
