#include "scenario/import.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "dag/profile_job.hpp"
#include "scenario/generators.hpp"
#include "util/json.hpp"

namespace abg::scenario {

namespace {

[[noreturn]] void bad_line(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("trace line " + std::to_string(line_no) +
                              ": " + what);
}

}  // namespace

ScenarioSpec import_trace(std::istream& in, const std::string& default_name) {
  ScenarioSpec spec;
  spec.generator = GeneratorKind::kExplicit;
  spec.name = default_name;

  std::string line;
  std::size_t line_no = 0;
  bool saw_job = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    util::Json doc = util::Json::null();
    try {
      doc = util::Json::parse(line);
    } catch (const std::invalid_argument& e) {
      bad_line(line_no, std::string("not valid JSON (") + e.what() + ")");
    }
    if (!doc.is_object()) {
      bad_line(line_no, "expected a JSON object");
    }
    const util::Json* kind = doc.find("kind");
    if (kind != nullptr) {
      // Header line: machine + name metadata.  Must precede every job so
      // a truncated re-concatenation is caught, not silently accepted.
      if (saw_job) {
        bad_line(line_no, "header after the first job line");
      }
      if (!kind->is_string() || kind->as_string() != "abg-jobs-trace") {
        bad_line(line_no, "unknown trace kind (expected 'abg-jobs-trace')");
      }
      if (const util::Json* name = doc.find("name")) {
        if (!name->is_string() || name->as_string().empty()) {
          bad_line(line_no, "header 'name' must be a non-empty string");
        }
        spec.name = name->as_string();
      }
      if (const util::Json* processors = doc.find("processors")) {
        if (!processors->is_integer() || processors->as_integer() < 1) {
          bad_line(line_no, "header 'processors' must be an integer >= 1");
        }
        spec.machine.processors =
            static_cast<int>(processors->as_integer());
      }
      if (const util::Json* quantum = doc.find("quantum")) {
        if (!quantum->is_integer() || quantum->as_integer() < 1) {
          bad_line(line_no, "header 'quantum' must be an integer >= 1");
        }
        spec.machine.quantum = quantum->as_integer();
      }
      continue;
    }

    ExplicitJob job;
    if (const util::Json* release = doc.find("release")) {
      if (!release->is_integer() || release->as_integer() < 0) {
        bad_line(line_no, "'release' must be an integer >= 0");
      }
      job.release = release->as_integer();
    }
    const util::Json* phases = doc.find("phases");
    if (phases == nullptr || !phases->is_array() || phases->size() == 0) {
      bad_line(line_no, "requires a non-empty 'phases' array");
    }
    for (const util::Json& pair : phases->items()) {
      if (!pair.is_array() || pair.size() != 2 || !pair.at(0).is_integer() ||
          !pair.at(1).is_integer()) {
        bad_line(line_no, "each phase must be a [width, levels] pair");
      }
      const std::int64_t width = pair.at(0).as_integer();
      const std::int64_t levels = pair.at(1).as_integer();
      if (width < 1 || levels < 1) {
        bad_line(line_no, "phase width and levels must be >= 1");
      }
      // Normalization: merge adjacent phases of equal width so imports of
      // unencoded (one level per phase) traces stay compact.
      if (!job.phases.empty() && job.phases.back().width == width) {
        job.phases.back().levels += levels;
      } else {
        job.phases.push_back(ExplicitPhase{width, levels});
      }
    }
    spec.explicit_jobs.push_back(std::move(job));
    saw_job = true;
  }
  if (spec.explicit_jobs.empty()) {
    throw std::invalid_argument("trace holds no job lines");
  }
  // Normalization: submission order is release order (ties keep file
  // order), matching what a release-sorted engine would see anyway.
  std::stable_sort(spec.explicit_jobs.begin(), spec.explicit_jobs.end(),
                   [](const ExplicitJob& a, const ExplicitJob& b) {
                     return a.release < b.release;
                   });
  spec.validate();
  return spec;
}

void export_trace(std::ostream& out, const ScenarioSpec& spec,
                  util::Rng& rng, int processors, dag::Steps quantum) {
  util::Json header = util::Json::object();
  header.set("kind", util::Json::string("abg-jobs-trace"));
  header.set("name", util::Json::string(spec.name));
  header.set("processors", util::Json::integer(processors));
  header.set("quantum", util::Json::integer(quantum));
  out << header.dump() << "\n";

  const std::vector<sim::JobSubmission> subs =
      generate_jobs(spec, rng, processors, quantum);
  for (const sim::JobSubmission& sub : subs) {
    const auto* job = dynamic_cast<const dag::ProfileJob*>(sub.job.get());
    if (job == nullptr) {
      throw std::logic_error(
          "scenario: export_trace expects ProfileJob workloads");
    }
    // runs() is the maximal-run encoding: one phase per run.
    util::Json phases = util::Json::array();
    for (const dag::LevelRun& run : job->runs()) {
      phases.push(util::Json::array()
                      .push(util::Json::integer(run.width))
                      .push(util::Json::integer(run.levels)));
    }
    util::Json record = util::Json::object();
    record.set("release", util::Json::integer(sub.release_step));
    record.set("phases", std::move(phases));
    out << record.dump() << "\n";
  }
}

}  // namespace abg::scenario
