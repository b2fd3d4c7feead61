#include "scenario/spec.hpp"

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/atomic_file.hpp"

namespace abg::scenario {

namespace {

[[noreturn]] void bad(const std::string& where, const std::string& what) {
  throw std::invalid_argument("scenario: " + where + ": " + what);
}

/// Strict-key discipline: scenario files are hand-written, so a typoed
/// key must be an error, not a silently ignored member (the same rule
/// abg_sweep applies to its axes).
void expect_keys(const util::Json& object,
                 std::initializer_list<std::string_view> allowed,
                 const std::string& where) {
  if (!object.is_object()) {
    bad(where, "expected an object");
  }
  for (const auto& [key, value] : object.members()) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::ostringstream msg;
      msg << "unknown key '" << key << "' (expected one of:";
      for (const std::string_view candidate : allowed) {
        msg << " " << candidate;
      }
      msg << ")";
      bad(where, msg.str());
    }
  }
}

std::int64_t read_int(const util::Json& parent, std::string_view key,
                      std::int64_t fallback, const std::string& where) {
  const util::Json* found = parent.find(key);
  if (found == nullptr) {
    return fallback;
  }
  if (!found->is_integer()) {
    bad(where, "'" + std::string(key) + "' must be an integer");
  }
  return found->as_integer();
}

double read_double(const util::Json& parent, std::string_view key,
                   double fallback, const std::string& where) {
  const util::Json* found = parent.find(key);
  if (found == nullptr) {
    return fallback;
  }
  if (!found->is_number() && !found->is_integer()) {
    bad(where, "'" + std::string(key) + "' must be a number");
  }
  return found->as_number();
}

std::string read_string(const util::Json& parent, std::string_view key,
                        const std::string& fallback,
                        const std::string& where) {
  const util::Json* found = parent.find(key);
  if (found == nullptr) {
    return fallback;
  }
  if (!found->is_string()) {
    bad(where, "'" + std::string(key) + "' must be a string");
  }
  return found->as_string();
}

Range read_range(const util::Json& parent, std::string_view key,
                 Range fallback, const std::string& where) {
  const util::Json* found = parent.find(key);
  if (found == nullptr) {
    return fallback;
  }
  return Range::from_json(*found, where + "." + std::string(key));
}

void check_range(const Range& range, std::int64_t min_lo,
                 const std::string& where) {
  if (range.lo > range.hi) {
    bad(where, "range [" + std::to_string(range.lo) + ", " +
                   std::to_string(range.hi) + "] has lo > hi");
  }
  if (range.lo < min_lo) {
    bad(where, "range lower bound " + std::to_string(range.lo) +
                   " is below the minimum " + std::to_string(min_lo));
  }
}

}  // namespace

std::int64_t Range::sample(util::Rng& rng) const {
  // A pinned range consumes no randomness, so scenarios with fully fixed
  // parameters are seed-independent by construction.
  return lo == hi ? lo : rng.uniform_int(lo, hi);
}

Range Range::from_json(const util::Json& value, const std::string& where) {
  if (value.is_integer()) {
    return Range::fixed(value.as_integer());
  }
  if (value.is_array() && value.size() == 2 && value.at(0).is_integer() &&
      value.at(1).is_integer()) {
    return Range{value.at(0).as_integer(), value.at(1).as_integer()};
  }
  bad(where, "expected an integer or a two-element [lo, hi] array");
}

util::Json Range::to_json() const {
  if (is_fixed()) {
    return util::Json::integer(lo);
  }
  return util::Json::array()
      .push(util::Json::integer(lo))
      .push(util::Json::integer(hi));
}

std::string to_string(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kMultiphase:
      return "multiphase";
    case GeneratorKind::kSublinear:
      return "sublinear";
    case GeneratorKind::kMapReduce:
      return "mapreduce";
    case GeneratorKind::kOscillator:
      return "oscillator";
    case GeneratorKind::kExplicit:
      return "explicit";
  }
  throw std::invalid_argument("unknown GeneratorKind");
}

GeneratorKind generator_kind_from_name(const std::string& name) {
  if (name == "multiphase") {
    return GeneratorKind::kMultiphase;
  }
  if (name == "sublinear") {
    return GeneratorKind::kSublinear;
  }
  if (name == "mapreduce") {
    return GeneratorKind::kMapReduce;
  }
  if (name == "oscillator") {
    return GeneratorKind::kOscillator;
  }
  if (name == "explicit") {
    return GeneratorKind::kExplicit;
  }
  throw std::invalid_argument(
      "unknown generator '" + name +
      "' (expected multiphase, sublinear, mapreduce, oscillator, explicit)");
}

std::string to_string(ReleaseSchedule schedule) {
  switch (schedule) {
    case ReleaseSchedule::kBatched:
      return "batched";
    case ReleaseSchedule::kStaggered:
      return "staggered";
    case ReleaseSchedule::kPoisson:
      return "poisson";
  }
  throw std::invalid_argument("unknown ReleaseSchedule");
}

ReleaseSchedule release_schedule_from_name(const std::string& name) {
  if (name == "batched") {
    return ReleaseSchedule::kBatched;
  }
  if (name == "staggered") {
    return ReleaseSchedule::kStaggered;
  }
  if (name == "poisson") {
    return ReleaseSchedule::kPoisson;
  }
  throw std::invalid_argument("unknown release schedule '" + name +
                              "' (expected batched, staggered, poisson)");
}

ScenarioSpec ScenarioSpec::from_json(const util::Json& doc) {
  expect_keys(doc,
              {"name", "description", "generator", "jobs", "machine",
               "release", "arrival", "cluster", "params"},
              "document");
  ScenarioSpec spec;
  spec.name = read_string(doc, "name", "", "document");
  spec.description = read_string(doc, "description", "", "document");
  spec.generator = generator_kind_from_name(
      read_string(doc, "generator", "", "document"));
  spec.jobs = static_cast<int>(read_int(doc, "jobs", 1, "document"));

  if (const util::Json* machine = doc.find("machine")) {
    expect_keys(*machine, {"processors", "quantum"}, "machine");
    spec.machine.processors =
        static_cast<int>(read_int(*machine, "processors", 0, "machine"));
    spec.machine.quantum = read_int(*machine, "quantum", 0, "machine");
  }
  if (const util::Json* release = doc.find("release")) {
    expect_keys(*release, {"schedule", "gap"}, "release");
    spec.release.schedule = release_schedule_from_name(
        read_string(*release, "schedule", "batched", "release"));
    spec.release.gap = read_double(*release, "gap", 0.0, "release");
  }
  if (const util::Json* arrival = doc.find("arrival")) {
    expect_keys(*arrival, {"kind", "jobs_total", "load"}, "arrival");
    spec.arrival.kind = open::arrival_kind_from_name(
        read_string(*arrival, "kind", "none", "arrival"));
    spec.arrival.jobs_total =
        read_int(*arrival, "jobs_total", 0, "arrival");
    spec.arrival.load = read_double(*arrival, "load", 0.0, "arrival");
  }
  if (const util::Json* cluster = doc.find("cluster")) {
    expect_keys(*cluster,
                {"machines", "router", "migration-period", "shapes"},
                "cluster");
    spec.cluster.machines =
        static_cast<int>(read_int(*cluster, "machines", 0, "cluster"));
    spec.cluster.router = read_string(*cluster, "router", "", "cluster");
    spec.cluster.migration_period =
        read_int(*cluster, "migration-period", 0, "cluster");
    if (const util::Json* shapes = cluster->find("shapes")) {
      if (!shapes->is_array()) {
        bad("cluster", "'shapes' must be an array");
      }
      for (std::size_t i = 0; i < shapes->size(); ++i) {
        const std::string where = "cluster.shapes[" + std::to_string(i) + "]";
        const util::Json& shape = shapes->at(i);
        expect_keys(shape, {"processors", "regions"}, where);
        sim::ClusterMachine parsed_shape;
        parsed_shape.processors =
            static_cast<int>(read_int(shape, "processors", 0, where));
        if (const util::Json* regions = shape.find("regions")) {
          if (!regions->is_array()) {
            bad(where, "'regions' must be an array");
          }
          for (std::size_t r = 0; r < regions->size(); ++r) {
            const std::string region_where =
                where + ".regions[" + std::to_string(r) + "]";
            const util::Json& region = regions->at(r);
            expect_keys(region, {"processors", "multiplier"}, region_where);
            sim::ClusterRegion parsed;
            parsed.processors = static_cast<int>(
                read_int(region, "processors", 0, region_where));
            parsed.cost_multiplier =
                read_double(region, "multiplier", 1.0, region_where);
            parsed_shape.regions.push_back(parsed);
          }
        }
        spec.cluster.shapes.push_back(std::move(parsed_shape));
      }
    }
  }

  const util::Json* params = doc.find("params");
  const util::Json empty = util::Json::object();
  if (params == nullptr) {
    params = &empty;
  }
  switch (spec.generator) {
    case GeneratorKind::kMultiphase: {
      expect_keys(*params, {"phases"}, "params");
      const util::Json* phases = params->find("phases");
      if (phases == nullptr || !phases->is_array()) {
        bad("params", "multiphase requires a 'phases' array");
      }
      for (std::size_t i = 0; i < phases->size(); ++i) {
        const std::string where = "params.phases[" + std::to_string(i) + "]";
        const util::Json& phase = phases->at(i);
        expect_keys(phase, {"width", "levels"}, where);
        PhaseSpec p;
        p.width = read_range(phase, "width", Range::fixed(1), where);
        p.levels = read_range(phase, "levels", Range::fixed(1), where);
        spec.phases.push_back(p);
      }
      break;
    }
    case GeneratorKind::kSublinear: {
      expect_keys(*params, {"classes"}, "params");
      const util::Json* classes = params->find("classes");
      if (classes == nullptr || !classes->is_array()) {
        bad("params", "sublinear requires a 'classes' array");
      }
      for (std::size_t i = 0; i < classes->size(); ++i) {
        const std::string where =
            "params.classes[" + std::to_string(i) + "]";
        const util::Json& klass = classes->at(i);
        expect_keys(klass, {"alpha", "work", "max_width", "weight"}, where);
        ClassSpec c;
        c.alpha = read_double(klass, "alpha", 0.5, where);
        c.work = read_range(klass, "work", Range::fixed(100000), where);
        c.max_width =
            read_range(klass, "max_width", Range::fixed(0), where);
        c.weight = read_double(klass, "weight", 1.0, where);
        spec.classes.push_back(c);
      }
      break;
    }
    case GeneratorKind::kMapReduce: {
      expect_keys(*params,
                  {"maps", "map_levels", "shuffle_levels", "reduces",
                   "reduce_levels"},
                  "params");
      spec.maps = read_range(*params, "maps", spec.maps, "params");
      spec.map_levels =
          read_range(*params, "map_levels", spec.map_levels, "params");
      spec.shuffle_levels = read_range(*params, "shuffle_levels",
                                       spec.shuffle_levels, "params");
      spec.reduces = read_range(*params, "reduces", spec.reduces, "params");
      spec.reduce_levels = read_range(*params, "reduce_levels",
                                      spec.reduce_levels, "params");
      break;
    }
    case GeneratorKind::kOscillator: {
      expect_keys(*params, {"low", "high", "half_period", "periods"},
                  "params");
      spec.osc_low = read_range(*params, "low", spec.osc_low, "params");
      spec.osc_high = read_range(*params, "high", spec.osc_high, "params");
      spec.half_period =
          read_range(*params, "half_period", spec.half_period, "params");
      spec.periods = read_range(*params, "periods", spec.periods, "params");
      break;
    }
    case GeneratorKind::kExplicit: {
      expect_keys(*params, {"jobs"}, "params");
      const util::Json* jobs = params->find("jobs");
      if (jobs == nullptr || !jobs->is_array()) {
        bad("params", "explicit requires a 'jobs' array");
      }
      for (std::size_t i = 0; i < jobs->size(); ++i) {
        const std::string where = "params.jobs[" + std::to_string(i) + "]";
        const util::Json& job = jobs->at(i);
        expect_keys(job, {"release", "phases"}, where);
        ExplicitJob e;
        e.release = read_int(job, "release", 0, where);
        const util::Json* phases = job.find("phases");
        if (phases == nullptr || !phases->is_array()) {
          bad(where, "requires a 'phases' array");
        }
        for (std::size_t p = 0; p < phases->size(); ++p) {
          const util::Json& pair = phases->at(p);
          if (!pair.is_array() || pair.size() != 2 ||
              !pair.at(0).is_integer() || !pair.at(1).is_integer()) {
            bad(where + ".phases[" + std::to_string(p) + "]",
                "expected a [width, levels] pair");
          }
          e.phases.push_back(
              ExplicitPhase{pair.at(0).as_integer(), pair.at(1).as_integer()});
        }
        spec.explicit_jobs.push_back(std::move(e));
      }
      break;
    }
  }
  spec.validate();
  return spec;
}

util::Json ScenarioSpec::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("name", util::Json::string(name));
  if (!description.empty()) {
    doc.set("description", util::Json::string(description));
  }
  doc.set("generator", util::Json::string(to_string(generator)));
  if (generator != GeneratorKind::kExplicit) {
    doc.set("jobs", util::Json::integer(jobs));
  }
  if (machine.processors != 0 || machine.quantum != 0) {
    util::Json m = util::Json::object();
    if (machine.processors != 0) {
      m.set("processors", util::Json::integer(machine.processors));
    }
    if (machine.quantum != 0) {
      m.set("quantum", util::Json::integer(machine.quantum));
    }
    doc.set("machine", std::move(m));
  }
  if (release.schedule != ReleaseSchedule::kBatched) {
    doc.set("release",
            util::Json::object()
                .set("schedule", util::Json::string(to_string(release.schedule)))
                .set("gap", util::Json::number(release.gap)));
  }
  if (arrival.kind != open::ArrivalKind::kNone) {
    util::Json a = util::Json::object();
    a.set("kind", util::Json::string(open::to_string(arrival.kind)));
    if (arrival.jobs_total != 0) {
      a.set("jobs_total", util::Json::integer(arrival.jobs_total));
    }
    if (arrival.load != 0.0) {
      a.set("load", util::Json::number(arrival.load));
    }
    doc.set("arrival", std::move(a));
  }
  if (cluster.machines > 0) {
    util::Json c = util::Json::object();
    c.set("machines", util::Json::integer(cluster.machines));
    if (!cluster.router.empty()) {
      c.set("router", util::Json::string(cluster.router));
    }
    if (cluster.migration_period != 0) {
      c.set("migration-period", util::Json::integer(cluster.migration_period));
    }
    if (!cluster.shapes.empty()) {
      util::Json shapes = util::Json::array();
      for (const sim::ClusterMachine& cluster_machine : cluster.shapes) {
        util::Json shape = util::Json::object();
        shape.set("processors",
                  util::Json::integer(cluster_machine.processors));
        if (!cluster_machine.regions.empty()) {
          util::Json regions = util::Json::array();
          for (const sim::ClusterRegion& region : cluster_machine.regions) {
            regions.push(
                util::Json::object()
                    .set("processors", util::Json::integer(region.processors))
                    .set("multiplier",
                         util::Json::number(region.cost_multiplier)));
          }
          shape.set("regions", std::move(regions));
        }
        shapes.push(std::move(shape));
      }
      c.set("shapes", std::move(shapes));
    }
    doc.set("cluster", std::move(c));
  }

  util::Json params = util::Json::object();
  switch (generator) {
    case GeneratorKind::kMultiphase: {
      util::Json list = util::Json::array();
      for (const PhaseSpec& phase : phases) {
        list.push(util::Json::object()
                      .set("width", phase.width.to_json())
                      .set("levels", phase.levels.to_json()));
      }
      params.set("phases", std::move(list));
      break;
    }
    case GeneratorKind::kSublinear: {
      util::Json list = util::Json::array();
      for (const ClassSpec& klass : classes) {
        list.push(util::Json::object()
                      .set("alpha", util::Json::number(klass.alpha))
                      .set("work", klass.work.to_json())
                      .set("max_width", klass.max_width.to_json())
                      .set("weight", util::Json::number(klass.weight)));
      }
      params.set("classes", std::move(list));
      break;
    }
    case GeneratorKind::kMapReduce:
      params.set("maps", maps.to_json())
          .set("map_levels", map_levels.to_json())
          .set("shuffle_levels", shuffle_levels.to_json())
          .set("reduces", reduces.to_json())
          .set("reduce_levels", reduce_levels.to_json());
      break;
    case GeneratorKind::kOscillator:
      params.set("low", osc_low.to_json())
          .set("high", osc_high.to_json())
          .set("half_period", half_period.to_json())
          .set("periods", periods.to_json());
      break;
    case GeneratorKind::kExplicit: {
      util::Json list = util::Json::array();
      for (const ExplicitJob& job : explicit_jobs) {
        util::Json phase_list = util::Json::array();
        for (const ExplicitPhase& phase : job.phases) {
          phase_list.push(util::Json::array()
                              .push(util::Json::integer(phase.width))
                              .push(util::Json::integer(phase.levels)));
        }
        list.push(util::Json::object()
                      .set("release", util::Json::integer(job.release))
                      .set("phases", std::move(phase_list)));
      }
      params.set("jobs", std::move(list));
      break;
    }
  }
  doc.set("params", std::move(params));
  return doc;
}

ScenarioSpec ScenarioSpec::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("scenario: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return from_json(util::Json::parse(buffer.str()));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void ScenarioSpec::save_file(const std::string& path) const {
  const util::Json doc = to_json();
  util::write_file_atomic(path, [&doc](std::ostream& out) {
    doc.write(out);
    out << "\n";
  });
}

void ScenarioSpec::validate() const {
  if (name.empty()) {
    bad("document", "'name' must be a non-empty string");
  }
  if (machine.processors < 0 || machine.quantum < 0) {
    bad("machine", "processors/quantum must be >= 0 (0 = unspecified)");
  }
  if (release.schedule != ReleaseSchedule::kBatched && release.gap < 1.0) {
    bad("release", "'gap' must be >= 1 for staggered/poisson releases");
  }
  if (arrival.kind == open::ArrivalKind::kTrace) {
    bad("arrival",
        "'trace' arrivals need a trace path; use the consumer's arrival "
        "axis (--arrival=trace --trace-path=FILE) instead");
  }
  if (arrival.jobs_total < 0) {
    bad("arrival", "'jobs_total' must be >= 0");
  }
  if (arrival.load < 0.0) {
    bad("arrival", "'load' must be >= 0");
  }
  if (cluster.machines < 0) {
    bad("cluster", "'machines' must be >= 0 (0 = single machine)");
  }
  if (cluster.migration_period < 0) {
    bad("cluster", "'migration-period' must be >= 0 (0 = disabled)");
  }
  if (cluster.machines == 0 &&
      (!cluster.router.empty() || cluster.migration_period != 0 ||
       !cluster.shapes.empty())) {
    bad("cluster", "'machines' must be >= 1 when the block is populated");
  }
  if (!cluster.shapes.empty() &&
      static_cast<int>(cluster.shapes.size()) != cluster.machines) {
    bad("cluster", "'shapes' must list exactly 'machines' entries (got " +
                       std::to_string(cluster.shapes.size()) + " for " +
                       std::to_string(cluster.machines) + " machines)");
  }
  for (std::size_t i = 0; i < cluster.shapes.size(); ++i) {
    const std::string where = "cluster.shapes[" + std::to_string(i) + "]";
    const sim::ClusterMachine& machine_shape = cluster.shapes[i];
    if (machine_shape.processors < 1) {
      bad(where, "'processors' must be >= 1");
    }
    int region_sum = 0;
    for (std::size_t r = 0; r < machine_shape.regions.size(); ++r) {
      const std::string region_where =
          where + ".regions[" + std::to_string(r) + "]";
      const sim::ClusterRegion& region = machine_shape.regions[r];
      if (region.processors < 1) {
        bad(region_where, "'processors' must be >= 1");
      }
      if (!(region.cost_multiplier > 0.0)) {
        bad(region_where, "'multiplier' must be > 0");
      }
      region_sum += region.processors;
    }
    if (!machine_shape.regions.empty() &&
        region_sum != machine_shape.processors) {
      bad(where, "region processors must sum to the machine's processors (" +
                     std::to_string(region_sum) + " != " +
                     std::to_string(machine_shape.processors) + ")");
    }
  }
  // Which blocks may share a file is the composition table's decision:
  // asking it here rejects the file at load for every consumer.
  sim::check_composition(
      sim::RunAxes{.cluster = cluster.machines > 0,
                   .open = arrival.kind != open::ArrivalKind::kNone},
      "scenario '" + name + "'");
  if (generator != GeneratorKind::kExplicit && jobs < 1) {
    bad("document", "'jobs' must be >= 1");
  }
  switch (generator) {
    case GeneratorKind::kMultiphase:
      if (phases.empty()) {
        bad("params", "multiphase requires at least one phase");
      }
      for (std::size_t i = 0; i < phases.size(); ++i) {
        const std::string where = "params.phases[" + std::to_string(i) + "]";
        check_range(phases[i].width, 1, where + ".width");
        check_range(phases[i].levels, 1, where + ".levels");
      }
      break;
    case GeneratorKind::kSublinear:
      if (classes.empty()) {
        bad("params", "sublinear requires at least one class");
      }
      for (std::size_t i = 0; i < classes.size(); ++i) {
        const std::string where =
            "params.classes[" + std::to_string(i) + "]";
        const ClassSpec& klass = classes[i];
        if (!(klass.alpha > 0.0) || klass.alpha > 1.0) {
          bad(where, "'alpha' must be in (0, 1]");
        }
        if (!(klass.weight > 0.0)) {
          bad(where, "'weight' must be > 0");
        }
        check_range(klass.work, 1, where + ".work");
        check_range(klass.max_width, 0, where + ".max_width");
      }
      break;
    case GeneratorKind::kMapReduce:
      check_range(maps, 1, "params.maps");
      check_range(map_levels, 1, "params.map_levels");
      check_range(shuffle_levels, 1, "params.shuffle_levels");
      check_range(reduces, 1, "params.reduces");
      check_range(reduce_levels, 1, "params.reduce_levels");
      break;
    case GeneratorKind::kOscillator:
      check_range(osc_low, 1, "params.low");
      check_range(osc_high, 0, "params.high");
      check_range(half_period, 0, "params.half_period");
      check_range(periods, 1, "params.periods");
      break;
    case GeneratorKind::kExplicit:
      if (explicit_jobs.empty()) {
        bad("params", "explicit requires at least one job");
      }
      for (std::size_t i = 0; i < explicit_jobs.size(); ++i) {
        const std::string where = "params.jobs[" + std::to_string(i) + "]";
        const ExplicitJob& job = explicit_jobs[i];
        if (job.release < 0) {
          bad(where, "'release' must be >= 0");
        }
        if (job.phases.empty()) {
          bad(where, "requires at least one phase");
        }
        for (std::size_t p = 0; p < job.phases.size(); ++p) {
          if (job.phases[p].width < 1 || job.phases[p].levels < 1) {
            bad(where + ".phases[" + std::to_string(p) + "]",
                "width and levels must be >= 1");
          }
        }
      }
      break;
  }
}

}  // namespace abg::scenario
