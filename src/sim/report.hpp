// Human-readable schedule reports.
//
// Turns traces into the artifacts one actually inspects when debugging a
// scheduler: per-quantum ASCII sparklines of requests / allotments /
// measured parallelism for a single job, and the machine-utilization
// timeline of a whole simulation (fraction of P assigned per global
// quantum, reconstructed from the quanta's global start steps).
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace abg::sim {

/// Scales `values` into an ASCII sparkline (one character per sample,
/// ' ' for 0 up to '@' for the maximum).  Empty input gives an empty
/// string.
std::string sparkline(const std::vector<double>& values);

/// Three-row sparkline report of a job's feedback loop: measured
/// parallelism A(q), request d(q), allotment a(q).
std::string feedback_report(const JobTrace& trace);

/// Aggregate machine utilization: total completed work divided by
/// makespan * P (1.0 = every processor busy until the last completion).
double machine_utilization(const SimResult& result, int processors);

/// ASCII Gantt chart of a whole simulation: one row per job, one column
/// per global quantum, cell intensity = the job's share of the machine in
/// that quantum (' ' idle/inactive up to '@' = the whole machine).  Rows
/// are labelled "job N |".  Requires uniform quantum lengths and
/// processors >= 1.
std::string gantt_chart(const SimResult& result, int processors);

/// Resilience summary of a faulty run against its fault-free reference:
/// disturbance counts, the lost-work accounting balance, makespan
/// degradation, and per-disturbance recovery of the aggregate request
/// signal (see fault/resilience.hpp for the underlying analysis).
std::string resilience_report(const SimResult& faulty,
                              const SimResult& reference);

}  // namespace abg::sim
