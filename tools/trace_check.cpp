// trace_check: structural validator for the observability artifacts.
//
// CI and ctest use this to prove that what the tools emit actually loads:
//
//   trace_check trace FILE     Chrome/Perfetto trace-event JSON: parses,
//                              has >= 1 named job track, >= 1 quantum
//                              slice per job track, and the d/a counter
//                              series the exporter promises.
//   trace_check metrics FILE   metrics-registry JSON: parses, has the
//                              counters/gauges/histograms sections, and
//                              every histogram carries a consistent count.
//   trace_check profile FILE [SPAN...]
//                              BENCH_profile.json: parses, every span has
//                              seconds/count/items/items_per_second, and
//                              each SPAN argument names an existing span.
//   trace_check stats FILE     open-system online-statistics summary
//                              (abg_sim --open --stats-out): parses, has
//                              the completed/work totals, every
//                              distribution carries mean/max/percentiles,
//                              and the queue-depth series is step-ordered.
//   trace_check journal FILE   abg_sweep run journal (JSONL): has a
//                              header, every complete line is a known
//                              event with consistent run ids/digests.  A
//                              crash-torn trailing line is tolerated (and
//                              reported) — that is the format's contract.
//   trace_check bench CURRENT BASELINE [--max-regress=R]
//                              micro-benchmark summary (ResultSink JSON,
//                              e.g. BENCH_micro_throughput.json): every
//                              group in BASELINE must exist in CURRENT
//                              with items_per_second mean no worse than
//                              (1 - R) x the baseline (default R = 0.3).
//                              A regression is an invariant violation
//                              (exit 5), which is what lets CI fail the
//                              perf smoke on it.
//   trace_check scenario FILE  scenario-library file: parses, passes
//                              ScenarioSpec validation, and prints the
//                              generator / jobs / machine summary.
//   trace_check import IN.jsonl OUT.json [--name=X]
//                              converts an external JSONL job trace into
//                              an explicit scenario file (validated and
//                              normalized); the scenario name defaults to
//                              the input filename stem.
//   trace_check export SCENARIO.json OUT.jsonl [--seed=N]
//                              [--processors=P] [--quantum=L]
//                              materializes a scenario's generator and
//                              writes the jobs as a JSONL trace, so
//                              export -> import round-trips exactly.
//
// Prints one summary line on success.  Exit codes classify the failure so
// scripts can react without scraping stderr:
//   0  artifact ok
//   2  usage error
//   3  file missing / unreadable
//   4  file is not valid JSON / JSONL (parse error)
//   5  file parsed but violates a structural invariant
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/import.hpp"
#include "scenario/spec.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using abg::util::Json;

/// The file could not be opened or read (exit 3).
struct MissingFileError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The file parsed but breaks a structural promise (exit 5).  JSON parse
/// errors keep their std::invalid_argument type from Json::parse and map
/// to exit 4.
struct InvariantError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw MissingFileError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[noreturn]] void fail(const std::string& what) {
  throw InvariantError(what);
}

const Json& require(const Json& parent, const std::string& key) {
  const Json* found = parent.find(key);
  if (found == nullptr) {
    fail("missing required key '" + key + "'");
  }
  return *found;
}

int check_trace(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  const Json& events = require(doc, "traceEvents");
  if (!events.is_array()) {
    fail("traceEvents is not an array");
  }
  // Job tracks are announced as thread_name metadata ("job N (...)");
  // quantum slices are X events on the same tid.
  std::map<std::int64_t, std::string> job_tracks;
  std::map<std::int64_t, std::int64_t> slices_per_tid;
  std::set<std::string> counter_tracks;
  for (const Json& event : events.items()) {
    const std::string& phase = require(event, "ph").as_string();
    if (phase == "M" && require(event, "name").as_string() == "thread_name") {
      const std::string& label =
          require(require(event, "args"), "name").as_string();
      if (label.rfind("job ", 0) == 0) {
        job_tracks[require(event, "tid").as_integer()] = label;
      }
    } else if (phase == "X") {
      ++slices_per_tid[require(event, "tid").as_integer()];
      if (require(event, "dur").as_number() < 0) {
        fail("slice with negative duration");
      }
    } else if (phase == "C") {
      counter_tracks.insert(require(event, "name").as_string());
    }
  }
  if (job_tracks.empty()) {
    fail("no job tracks (thread_name metadata) found");
  }
  std::int64_t total_slices = 0;
  std::int64_t da_tracks = 0;
  for (const auto& [tid, label] : job_tracks) {
    const auto found = slices_per_tid.find(tid);
    if (found == slices_per_tid.end() || found->second == 0) {
      fail("track '" + label + "' has no quantum slices");
    }
    total_slices += found->second;
    // "job N d/a" counter series accompany every job track.
    const std::string job_id = label.substr(0, label.find(" ("));
    if (counter_tracks.count(job_id + " d/a") > 0) {
      ++da_tracks;
    }
  }
  if (da_tracks == 0) {
    fail("no 'job N d/a' counter tracks found");
  }
  std::cout << "trace_check: " << path << " ok (" << job_tracks.size()
            << " job tracks, " << total_slices << " slices, " << da_tracks
            << " d/a counter tracks)\n";
  return 0;
}

int check_metrics(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  const Json& counters = require(doc, "counters");
  const Json& gauges = require(doc, "gauges");
  const Json& histograms = require(doc, "histograms");
  if (!counters.is_object() || !gauges.is_object() ||
      !histograms.is_object()) {
    fail("counters/gauges/histograms must be objects");
  }
  for (const auto& [name, histogram] : histograms.members()) {
    const std::int64_t count = require(histogram, "count").as_integer();
    std::int64_t bucketed = 0;
    for (const Json& bucket : require(histogram, "buckets").items()) {
      bucketed += bucket.as_integer();
    }
    if (bucketed != count) {
      fail("histogram '" + name + "' buckets sum to " +
           std::to_string(bucketed) + " but count is " +
           std::to_string(count));
    }
  }
  std::cout << "trace_check: " << path << " ok (" << counters.size()
            << " counters, " << gauges.size() << " gauges, "
            << histograms.size() << " histograms)\n";
  return 0;
}

int check_profile(const std::string& path,
                  const std::vector<std::string>& required_spans) {
  const Json doc = Json::parse(read_file(path));
  if (require(doc, "benchmark").as_string() != "profile") {
    fail("benchmark field is not 'profile'");
  }
  const Json& spans = require(doc, "spans");
  for (const auto& [name, span] : spans.members()) {
    if (require(span, "seconds").as_number() < 0) {
      fail("span '" + name + "' has negative seconds");
    }
    require(span, "count");
    require(span, "items");
    require(span, "items_per_second");
  }
  for (const std::string& name : required_spans) {
    if (spans.find(name) == nullptr) {
      fail("required span '" + name + "' missing");
    }
  }
  std::cout << "trace_check: " << path << " ok (" << spans.size()
            << " spans)\n";
  return 0;
}

int check_stats(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  const std::int64_t completed = require(doc, "completed").as_integer();
  if (completed < 0) {
    fail("completed is negative");
  }
  if (require(doc, "total_work").as_integer() < 0 ||
      require(doc, "total_waste").as_integer() < 0) {
    fail("work totals must be non-negative");
  }
  for (const std::string name : {"response", "slowdown", "queue_depth"}) {
    const Json& dist = require(doc, name);
    for (const char* key : {"mean", "max", "p50", "p95", "p99"}) {
      require(dist, key);
    }
    // Percentiles of a completed stream are ordered; an empty stream
    // serialises NaN percentiles, which the comparisons skip.
    const double p50 = dist.at("p50").as_number();
    const double p99 = dist.at("p99").as_number();
    if (p50 == p50 && p99 == p99 && p50 > p99) {
      fail("distribution '" + name + "' has p50 > p99");
    }
  }
  const Json& series = require(doc, "queue_series");
  if (!series.is_array()) {
    fail("queue_series is not an array");
  }
  std::int64_t previous_step = -1;
  for (const Json& point : series.items()) {
    const std::int64_t step = require(point, "step").as_integer();
    require(point, "value");
    if (step <= previous_step) {
      fail("queue_series steps are not strictly increasing");
    }
    previous_step = step;
  }
  std::cout << "trace_check: " << path << " ok (" << completed
            << " completed, " << series.size()
            << " queue-series points)\n";
  return 0;
}

/// Group name -> items_per_second mean of a ResultSink summary document.
std::map<std::string, double> bench_rates(const Json& doc,
                                          const std::string& label) {
  const Json& groups = require(doc, "groups");
  if (!groups.is_array()) {
    fail(label + ": groups is not an array");
  }
  std::map<std::string, double> rates;
  for (const Json& group : groups.items()) {
    const std::string& name = require(group, "group").as_string();
    const Json& metrics = require(group, "metrics");
    const Json* rate = metrics.find("items_per_second");
    if (rate == nullptr) {
      continue;  // timing-only benchmarks carry no throughput metric
    }
    const double mean = require(*rate, "mean").as_number();
    if (mean < 0) {
      fail(label + ": group '" + name + "' has negative items_per_second");
    }
    rates[name] = mean;
  }
  if (rates.empty()) {
    fail(label + ": no groups with an items_per_second metric");
  }
  return rates;
}

int check_bench(const std::string& current_path,
                const std::string& baseline_path, double max_regress) {
  const Json current_doc = Json::parse(read_file(current_path));
  const Json baseline_doc = Json::parse(read_file(baseline_path));
  const std::map<std::string, double> current =
      bench_rates(current_doc, "current");
  const std::map<std::string, double> baseline =
      bench_rates(baseline_doc, "baseline");
  std::int64_t compared = 0;
  double worst_ratio = 1e300;
  std::string worst_group;
  for (const auto& [name, base_rate] : baseline) {
    const auto found = current.find(name);
    if (found == current.end()) {
      fail("baseline group '" + name + "' missing from current results");
    }
    ++compared;
    if (base_rate == 0) {
      continue;  // nothing to regress against
    }
    const double ratio = found->second / base_rate;
    if (ratio < worst_ratio) {
      worst_ratio = ratio;
      worst_group = name;
    }
    if (ratio < 1.0 - max_regress) {
      std::ostringstream msg;
      msg << "group '" << name << "' regressed: " << found->second
          << " items/s vs baseline " << base_rate << " ("
          << static_cast<std::int64_t>((1.0 - ratio) * 100.0)
          << "% slower, tolerance "
          << static_cast<std::int64_t>(max_regress * 100.0) << "%)";
      fail(msg.str());
    }
  }
  std::cout << "trace_check: " << current_path << " ok (" << compared
            << " groups vs baseline";
  if (!worst_group.empty()) {
    std::cout << ", worst '" << worst_group << "' at "
              << static_cast<std::int64_t>(worst_ratio * 100.0)
              << "% of baseline";
  }
  std::cout << ")\n";
  return 0;
}

bool is_hex_digest(const std::string& text) {
  if (text.size() != 16) {
    return false;
  }
  for (const char c : text) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
      return false;
    }
  }
  return true;
}

int check_journal(const std::string& path) {
  const std::string text = read_file(path);
  bool saw_header = false;
  bool torn_tail = false;
  std::int64_t cells = -1;
  std::int64_t done = 0;
  std::int64_t fails = 0;
  std::int64_t quarantines = 0;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const bool last_and_unterminated = eol == std::string::npos;
    const std::string line = text.substr(
        pos, last_and_unterminated ? std::string::npos : eol - pos);
    pos = last_and_unterminated ? text.size() : eol + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    Json j = Json::null();
    try {
      j = Json::parse(line);
    } catch (const std::invalid_argument&) {
      if (last_and_unterminated) {
        // A crash tore the final append mid-line — by design recoverable.
        torn_tail = true;
        break;
      }
      throw std::invalid_argument("line " + std::to_string(line_no) +
                                  " is not valid JSON");
    }
    const std::string& kind = require(j, "kind").as_string();
    if (kind == "journal") {
      if (saw_header) {
        fail("line " + std::to_string(line_no) + ": duplicate header");
      }
      require(j, "base_seed");
      cells = require(j, "cells").as_integer();
      if (!is_hex_digest(require(j, "grid_digest").as_string())) {
        fail("header grid_digest is not a 16-digit hex digest");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) {
      fail("line " + std::to_string(line_no) +
           ": event before the header line");
    }
    if (kind != "start" && kind != "done" && kind != "fail" &&
        kind != "quarantine") {
      fail("line " + std::to_string(line_no) + ": unknown kind '" + kind +
           "'");
    }
    const std::int64_t run_id = require(j, "run_id").as_integer();
    if (run_id < 0 || (cells >= 0 && run_id >= cells)) {
      fail("line " + std::to_string(line_no) + ": run_id " +
           std::to_string(run_id) + " outside [0, " + std::to_string(cells) +
           ")");
    }
    if (!is_hex_digest(require(j, "spec").as_string())) {
      fail("line " + std::to_string(line_no) +
           ": spec is not a 16-digit hex digest");
    }
    if (kind == "done") {
      const Json& record = require(j, "record");
      if (require(record, "run_id").as_integer() != run_id) {
        fail("line " + std::to_string(line_no) +
             ": embedded record run_id mismatch");
      }
      require(record, "metrics");
      ++done;
    } else if (kind == "fail") {
      require(j, "attempt");
      require(j, "cause");
      ++fails;
    } else if (kind == "quarantine") {
      require(j, "attempts");
      require(j, "cause");
      ++quarantines;
    }
  }
  if (!saw_header) {
    fail("no header line");
  }
  std::cout << "trace_check: " << path << " ok (" << cells << " cells, "
            << done << " done, " << fails << " failures, " << quarantines
            << " quarantines" << (torn_tail ? ", torn tail line" : "")
            << ")\n";
  return 0;
}

/// Loads and structurally validates a scenario file.  JSON syntax errors
/// keep their std::invalid_argument type (exit 4); a document that parses
/// but fails ScenarioSpec validation is an invariant violation (exit 5).
abg::scenario::ScenarioSpec load_scenario(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  try {
    return abg::scenario::ScenarioSpec::from_json(doc);
  } catch (const std::invalid_argument& e) {
    fail(path + ": " + e.what());
  }
}

int check_scenario(const std::string& path) {
  const abg::scenario::ScenarioSpec spec = load_scenario(path);
  const std::size_t jobs =
      spec.generator == abg::scenario::GeneratorKind::kExplicit
          ? spec.explicit_jobs.size()
          : static_cast<std::size_t>(spec.jobs);
  std::cout << "trace_check: " << path << " ok (scenario '" << spec.name
            << "', generator " << abg::scenario::to_string(spec.generator)
            << ", " << jobs << " jobs";
  if (spec.machine.processors > 0) {
    std::cout << ", P = " << spec.machine.processors;
  }
  if (spec.machine.quantum > 0) {
    std::cout << ", L = " << spec.machine.quantum;
  }
  if (spec.arrival.kind != abg::open::ArrivalKind::kNone) {
    std::cout << ", arrival " << abg::open::to_string(spec.arrival.kind);
  }
  std::cout << ")\n";
  return 0;
}

/// "path/to/cluster-day.jsonl" -> "cluster-day".
std::string filename_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t from = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t to =
      dot == std::string::npos || dot <= from ? path.size() : dot;
  return path.substr(from, to - from);
}

int import_scenario(const std::string& in_path, const std::string& out_path,
                    const std::string& name) {
  const std::string default_name =
      name.empty() ? filename_stem(in_path) : name;
  std::istringstream in(read_file(in_path));
  const abg::scenario::ScenarioSpec spec =
      abg::scenario::import_trace(in, default_name);
  spec.save_file(out_path);
  std::cout << "trace_check: imported " << in_path << " -> " << out_path
            << " (scenario '" << spec.name << "', "
            << spec.explicit_jobs.size() << " jobs)\n";
  return 0;
}

int export_scenario(const std::string& in_path, const std::string& out_path,
                    std::uint64_t seed, int processors,
                    abg::dag::Steps quantum) {
  const abg::scenario::ScenarioSpec spec = load_scenario(in_path);
  const int p = processors > 0 ? processors
              : spec.machine.processors > 0 ? spec.machine.processors
                                            : 128;
  const abg::dag::Steps l = quantum > 0 ? quantum
                          : spec.machine.quantum > 0 ? spec.machine.quantum
                                                     : 1000;
  abg::util::write_file_atomic(out_path, [&](std::ostream& out) {
    abg::util::Rng rng(seed);
    abg::scenario::export_trace(out, spec, rng, p, l);
  });
  std::cout << "trace_check: exported " << in_path << " -> " << out_path
            << " (scenario '" << spec.name << "', P = " << p << ", L = " << l
            << ", seed " << seed << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::string target = args.size() >= 2 ? args[1] : "";
  try {
    if (args.size() >= 2 && args[0] == "trace") {
      return check_trace(args[1]);
    }
    if (args.size() >= 2 && args[0] == "metrics") {
      return check_metrics(args[1]);
    }
    if (args.size() >= 2 && args[0] == "profile") {
      return check_profile(
          args[1], std::vector<std::string>(args.begin() + 2, args.end()));
    }
    if (args.size() >= 2 && args[0] == "stats") {
      return check_stats(args[1]);
    }
    if (args.size() >= 2 && args[0] == "journal") {
      return check_journal(args[1]);
    }
    if (args.size() >= 2 && args[0] == "scenario") {
      return check_scenario(args[1]);
    }
    if (args.size() >= 3 && args[0] == "import") {
      std::string name;
      for (std::size_t i = 3; i < args.size(); ++i) {
        const std::string prefix = "--name=";
        if (args[i].rfind(prefix, 0) == 0) {
          name = args[i].substr(prefix.size());
        } else {
          std::cerr << "trace_check: unknown import option '" << args[i]
                    << "'\n";
          return 2;
        }
      }
      return import_scenario(args[1], args[2], name);
    }
    if (args.size() >= 3 && args[0] == "export") {
      std::uint64_t seed = 1;
      int processors = 0;
      abg::dag::Steps quantum = 0;
      for (std::size_t i = 3; i < args.size(); ++i) {
        const std::string& opt = args[i];
        const auto value_of = [&opt](const std::string& prefix) {
          return std::stoll(opt.substr(prefix.size()));
        };
        if (opt.rfind("--seed=", 0) == 0) {
          seed = static_cast<std::uint64_t>(value_of("--seed="));
        } else if (opt.rfind("--processors=", 0) == 0) {
          processors = static_cast<int>(value_of("--processors="));
        } else if (opt.rfind("--quantum=", 0) == 0) {
          quantum = value_of("--quantum=");
        } else {
          std::cerr << "trace_check: unknown export option '" << opt
                    << "'\n";
          return 2;
        }
      }
      return export_scenario(args[1], args[2], seed, processors, quantum);
    }
    if (args.size() >= 3 && args[0] == "bench") {
      double max_regress = 0.3;
      for (std::size_t i = 3; i < args.size(); ++i) {
        const std::string prefix = "--max-regress=";
        if (args[i].rfind(prefix, 0) == 0) {
          max_regress = std::stod(args[i].substr(prefix.size()));
        } else {
          std::cerr << "trace_check: unknown bench option '" << args[i]
                    << "'\n";
          return 2;
        }
      }
      if (max_regress < 0 || max_regress >= 1) {
        std::cerr << "trace_check: --max-regress must be in [0, 1)\n";
        return 2;
      }
      return check_bench(args[1], args[2], max_regress);
    }
    std::cerr
        << "usage: trace_check trace|metrics|profile|stats|journal|scenario "
           "FILE [SPAN...]\n"
           "       trace_check bench CURRENT BASELINE [--max-regress=R]\n"
           "       trace_check import IN.jsonl OUT.json [--name=X]\n"
           "       trace_check export SCENARIO.json OUT.jsonl [--seed=N] "
           "[--processors=P] [--quantum=L]\n";
    return 2;
  } catch (const MissingFileError& e) {
    std::cerr << "trace_check: " << target << ": " << e.what() << "\n";
    return 3;
  } catch (const std::invalid_argument& e) {
    // Json::parse rejects malformed documents with std::invalid_argument.
    std::cerr << "trace_check: " << target << ": parse error: " << e.what()
              << "\n";
    return 4;
  } catch (const std::exception& e) {
    // Structural invariant violations (InvariantError and the Json
    // accessors' logic/range errors on shape mismatches).
    std::cerr << "trace_check: " << target << ": " << e.what() << "\n";
    return 5;
  }
}
