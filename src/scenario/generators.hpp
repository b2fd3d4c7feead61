// Compiles a ScenarioSpec into runnable workloads.
//
// Closed runs get a sim::JobSubmission vector (jobs plus release steps);
// open runs get an open::JobFactory that materializes one job per arrival
// and scales its size by the arrival's work_scale.  Both paths draw only
// from the Rng they are handed, so a scenario run is a pure function of
// (scenario file, seed) — the library's standard determinism contract.
#pragma once

#include <string>
#include <vector>

#include "dag/job.hpp"
#include "open/streaming_engine.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace abg::scenario {

/// Generates the scenario's closed job set.  `processors` and `quantum`
/// resolve the spec's machine-relative defaults (oscillator high = P,
/// half-period = L, sublinear max_width = P); pass the values the run
/// will simulate under.  Throws std::invalid_argument when the spec is
/// structurally invalid.
std::vector<sim::JobSubmission> generate_jobs(const ScenarioSpec& spec,
                                              util::Rng& rng, int processors,
                                              dag::Steps quantum);

/// Wraps the scenario's per-job generator as an open-system job factory:
/// every arrival draws one job from the generator (release schedules and
/// the `jobs` count do not apply — the arrival process owns timing).  An
/// explicit scenario draws uniformly from its literal job list.
open::JobFactory make_open_factory(const ScenarioSpec& spec, int processors,
                                   dag::Steps quantum);

/// The phases of one generated job, as runs of equal-width levels for
/// ProfileJob::from_runs (exposed for tests).  `work_scale` multiplies
/// the job's size (level counts / work targets) the way open arrivals do;
/// pass 1.0 for closed runs.  kExplicit ignores the rng and reads
/// `job_index` modulo the literal list; other generators ignore
/// `job_index`.  When `class_label` is non-null it receives the job's
/// class name — the generator name, or "class<i>" for the sublinear class
/// actually drawn — which generate_jobs stores as the submission name for
/// class-affinity cluster routing.
std::vector<dag::LevelRun> sample_profile(const ScenarioSpec& spec,
                                          util::Rng& rng, int processors,
                                          dag::Steps quantum,
                                          double work_scale,
                                          std::size_t job_index,
                                          std::string* class_label = nullptr);

}  // namespace abg::scenario
