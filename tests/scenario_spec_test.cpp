// ScenarioSpec parsing: schema acceptance, strict-key rejection at every
// nesting level, Range forms, validation rules, and file round-trips.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace abg::scenario {
namespace {

ScenarioSpec parse(const std::string& text) {
  return ScenarioSpec::from_json(util::Json::parse(text));
}

TEST(ScenarioSpecParse, MinimalMultiphaseDocument) {
  const ScenarioSpec spec = parse(R"({
    "name": "tiny",
    "generator": "multiphase",
    "jobs": 3,
    "params": {"phases": [{"width": [2, 8], "levels": 100}]}
  })");
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.generator, GeneratorKind::kMultiphase);
  EXPECT_EQ(spec.jobs, 3);
  ASSERT_EQ(spec.phases.size(), 1u);
  EXPECT_EQ(spec.phases[0].width.lo, 2);
  EXPECT_EQ(spec.phases[0].width.hi, 8);
  EXPECT_TRUE(spec.phases[0].levels.is_fixed());
  EXPECT_EQ(spec.phases[0].levels.lo, 100);
  // Untouched blocks keep their neutral defaults.
  EXPECT_EQ(spec.machine.processors, 0);
  EXPECT_EQ(spec.machine.quantum, 0);
  EXPECT_EQ(spec.release.schedule, ReleaseSchedule::kBatched);
  EXPECT_EQ(spec.arrival.kind, open::ArrivalKind::kNone);
}

TEST(ScenarioSpecParse, FullDocumentWithAllBlocks) {
  const ScenarioSpec spec = parse(R"({
    "name": "full",
    "description": "everything set",
    "generator": "oscillator",
    "jobs": 4,
    "machine": {"processors": 32, "quantum": 500},
    "release": {"schedule": "staggered", "gap": 2000},
    "arrival": {"kind": "poisson", "jobs_total": 100, "load": 0.8},
    "params": {"low": 1, "high": 0, "half_period": 0, "periods": [8, 16]}
  })");
  EXPECT_EQ(spec.description, "everything set");
  EXPECT_EQ(spec.machine.processors, 32);
  EXPECT_EQ(spec.machine.quantum, 500);
  EXPECT_EQ(spec.release.schedule, ReleaseSchedule::kStaggered);
  EXPECT_DOUBLE_EQ(spec.release.gap, 2000.0);
  EXPECT_EQ(spec.arrival.kind, open::ArrivalKind::kPoisson);
  EXPECT_EQ(spec.arrival.jobs_total, 100);
  EXPECT_DOUBLE_EQ(spec.arrival.load, 0.8);
  EXPECT_EQ(spec.periods.lo, 8);
  EXPECT_EQ(spec.periods.hi, 16);
}

TEST(ScenarioSpecParse, UnknownDocumentKeyIsRejected) {
  try {
    parse(R"({"name": "x", "generator": "explicit", "bogus": 1,
              "params": {"jobs": [{"release": 0, "phases": [[1, 1]]}]}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'bogus'"), std::string::npos) << what;
    // The diagnostic lists the valid keys so the fix is self-evident.
    EXPECT_NE(what.find("expected one of"), std::string::npos) << what;
  }
}

TEST(ScenarioSpecParse, UnknownMachineKeyIsRejected) {
  EXPECT_THROW(parse(R"({
    "name": "x", "generator": "explicit",
    "machine": {"processors": 8, "cores": 8},
    "params": {"jobs": [{"release": 0, "phases": [[1, 1]]}]}
  })"),
               std::invalid_argument);
}

TEST(ScenarioSpecParse, UnknownParamsKeyIsRejected) {
  // "phases" belongs to multiphase, not oscillator.
  EXPECT_THROW(parse(R"({
    "name": "x", "generator": "oscillator", "jobs": 1,
    "params": {"low": 1, "phases": []}
  })"),
               std::invalid_argument);
}

TEST(ScenarioSpecParse, UnknownGeneratorNameIsRejected) {
  EXPECT_THROW(parse(R"({"name": "x", "generator": "quantum-annealer",
                         "jobs": 1, "params": {}})"),
               std::invalid_argument);
}

TEST(ScenarioRange, ScalarAndArrayForms) {
  const Range fixed = Range::from_json(util::Json::parse("5"), "w");
  EXPECT_EQ(fixed.lo, 5);
  EXPECT_EQ(fixed.hi, 5);
  EXPECT_TRUE(fixed.is_fixed());
  const Range spread = Range::from_json(util::Json::parse("[2, 8]"), "w");
  EXPECT_EQ(spread.lo, 2);
  EXPECT_EQ(spread.hi, 8);
  EXPECT_FALSE(spread.is_fixed());
}

TEST(ScenarioRange, RejectsInvertedAndMalformedRanges) {
  // Inversion is a validate()-level check: the full parse rejects it with
  // a diagnostic naming the field.
  try {
    parse(R"({"name": "x", "generator": "multiphase", "jobs": 1,
              "params": {"phases": [{"width": [8, 2], "levels": 1}]}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lo > hi"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Range::from_json(util::Json::parse("[1]"), "w"),
               std::invalid_argument);
  EXPECT_THROW(Range::from_json(util::Json::parse("[1, 2, 3]"), "w"),
               std::invalid_argument);
  EXPECT_THROW(Range::from_json(util::Json::parse("\"5\""), "w"),
               std::invalid_argument);
}

TEST(ScenarioRange, FixedRangeConsumesNoRandomness) {
  util::Rng a(1);
  util::Rng b(2);
  EXPECT_EQ(Range::fixed(7).sample(a), 7);
  EXPECT_EQ(Range::fixed(7).sample(b), 7);
  // Both rngs are still in their initial state: the next draw matches.
  EXPECT_EQ(util::Rng(1).uniform_int(0, 1000000), a.uniform_int(0, 1000000));
}

TEST(ScenarioSpecValidate, RejectsStructuralViolations) {
  // Empty name.
  EXPECT_THROW(parse(R"({"name": "", "generator": "explicit",
      "params": {"jobs": [{"release": 0, "phases": [[1, 1]]}]}})"),
               std::invalid_argument);
  // Staggered release needs gap >= 1.
  EXPECT_THROW(parse(R"({"name": "x", "generator": "explicit",
      "release": {"schedule": "staggered", "gap": 0},
      "params": {"jobs": [{"release": 0, "phases": [[1, 1]]}]}})"),
               std::invalid_argument);
  // Trace arrivals need an external trace file; a scenario cannot carry one.
  EXPECT_THROW(parse(R"({"name": "x", "generator": "explicit",
      "arrival": {"kind": "trace"},
      "params": {"jobs": [{"release": 0, "phases": [[1, 1]]}]}})"),
               std::invalid_argument);
  // Sublinear alpha must sit in (0, 1].
  EXPECT_THROW(parse(R"({"name": "x", "generator": "sublinear", "jobs": 1,
      "params": {"classes": [{"alpha": 1.5, "work": 10}]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "generator": "sublinear", "jobs": 1,
      "params": {"classes": [{"alpha": 0.5, "work": 10, "weight": 0}]}})"),
               std::invalid_argument);
  // Non-explicit scenarios need jobs >= 1.
  EXPECT_THROW(parse(R"({"name": "x", "generator": "multiphase", "jobs": 0,
      "params": {"phases": [{"width": 1, "levels": 1}]}})"),
               std::invalid_argument);
  // Explicit scenarios need at least one job with at least one phase.
  EXPECT_THROW(parse(R"({"name": "x", "generator": "explicit",
      "params": {"jobs": []}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "generator": "explicit",
      "params": {"jobs": [{"release": 0, "phases": []}]}})"),
               std::invalid_argument);
  // Widths and level counts must be >= 1.
  EXPECT_THROW(parse(R"({"name": "x", "generator": "explicit",
      "params": {"jobs": [{"release": 0, "phases": [[0, 5]]}]}})"),
               std::invalid_argument);
}

TEST(ScenarioSpecValidate, RejectsArrivalWithClusterViaCompositionTable) {
  // No driver streams arrivals into a cluster; the file is rejected at
  // load with the composition table's message, not run with one block
  // dropped.
  try {
    parse(R"({"name": "both", "generator": "multiphase", "jobs": 1,
        "arrival": {"kind": "poisson", "jobs_total": 50, "load": 0.7},
        "cluster": {"machines": 2},
        "params": {"phases": [{"width": 4, "levels": 50}]}})");
    FAIL() << "arrival + cluster must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "scenario 'both': open streaming does not compose with "
                 "cluster mode");
  }
}

TEST(ScenarioSpecRoundTrip, ToJsonFromJsonIsExact) {
  const ScenarioSpec spec = parse(R"({
    "name": "round",
    "description": "a trip",
    "generator": "sublinear",
    "jobs": 12,
    "machine": {"processors": 64},
    "release": {"schedule": "poisson", "gap": 1500},
    "params": {"classes": [
      {"alpha": 0.9, "work": [500, 2000], "weight": 3},
      {"alpha": 0.5, "work": 90000, "max_width": 0}
    ]}
  })");
  const ScenarioSpec again = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(spec.to_json().dump(), again.to_json().dump());
}

TEST(ScenarioSpecFiles, SaveThenLoadReproducesTheSpec) {
  const ScenarioSpec spec = parse(R"({
    "name": "disk",
    "generator": "mapreduce",
    "jobs": 2,
    "params": {"maps": [16, 64], "map_levels": 300, "shuffle_levels": 100,
               "reduces": 8, "reduce_levels": 200}
  })");
  const std::string path = ::testing::TempDir() + "scenario_spec_disk.json";
  spec.save_file(path);
  const ScenarioSpec loaded = ScenarioSpec::load_file(path);
  EXPECT_EQ(spec.to_json().dump(), loaded.to_json().dump());
}

TEST(ScenarioSpecFiles, LoadErrorsCarryThePath) {
  EXPECT_THROW(ScenarioSpec::load_file("/nonexistent/nope.json"),
               std::runtime_error);
  const std::string path = ::testing::TempDir() + "scenario_spec_bad.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"name\": \"x\"", f);
    std::fclose(f);
  }
  try {
    ScenarioSpec::load_file(path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

}  // namespace
}  // namespace abg::scenario
