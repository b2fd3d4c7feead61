// JSONL job-trace import/export for the scenario library.
//
// The interchange format is one JSON object per line:
//
//   {"kind":"abg-jobs-trace","name":"...","processors":P,"quantum":L}
//   {"release":0,"phases":[[32,400],[1,200],[8,400]]}
//   {"release":500,"phases":[[4,1000]]}
//
// The first line is an optional header carrying the scenario name and the
// machine the trace was captured under; every other line is one job as a
// release step plus its run-length-encoded level-width profile.  Import
// validates (widths/levels >= 1, releases >= 0), normalizes (jobs sorted
// by release, adjacent equal-width phases merged) and produces an
// `explicit` ScenarioSpec that replays the trace exactly; export runs a
// scenario's generator under an explicit Rng and writes the resulting
// jobs, so export -> import round-trips to the byte-identical workload.
#pragma once

#include <iosfwd>
#include <string>

#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace abg::scenario {

/// Parses a JSONL job trace into an explicit scenario.  `default_name`
/// applies when the trace has no header (or the header has no name).
/// Throws std::invalid_argument naming the offending line.
ScenarioSpec import_trace(std::istream& in, const std::string& default_name);

/// Materializes `spec` under `rng` (resolving machine-relative defaults
/// against `processors` / `quantum`) and writes the generated jobs as a
/// JSONL trace, header first.
void export_trace(std::ostream& out, const ScenarioSpec& spec,
                  util::Rng& rng, int processors, dag::Steps quantum);

}  // namespace abg::scenario
