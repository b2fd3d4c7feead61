// Trace serialization: writes a job's trace as CSV, one row per quantum
// with every recorded field, for external analysis / replotting.
#pragma once

#include <iosfwd>

#include "sim/trace.hpp"

namespace abg::sim {

/// Writes one trace as CSV: header plus one row per quantum with columns
/// index, start_step, request, allotment, available, length, steps_used,
/// work, cpl, full, finished.
void write_trace_csv(std::ostream& os, const JobTrace& trace);

}  // namespace abg::sim
