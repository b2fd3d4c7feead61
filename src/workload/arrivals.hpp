// Release-time (arrival) schedules.
//
// Theorem 5 bounds the makespan for job sets with *arbitrary* release
// times and the mean response time for *batched* releases.  These helpers
// produce the release schedules the experiments use: batched (all at 0),
// evenly staggered, and memoryless (geometric inter-arrival times — the
// discrete analogue of Poisson arrivals).
#pragma once

#include <vector>

#include "dag/job.hpp"
#include "util/rng.hpp"

namespace abg::workload {

/// Job i released at i * gap.  Requires gap >= 0 and
/// (jobs - 1) * gap representable in dag::Steps — the last release is
/// checked for overflow and rejected with std::invalid_argument rather
/// than wrapping to a negative step.
std::vector<dag::Steps> staggered_releases(std::size_t jobs, dag::Steps gap);

/// Memoryless arrivals: inter-arrival gaps drawn geometrically with the
/// given mean (in steps), first job at step 0.  Requires mean_gap in
/// [1, 1e12]: gaps are whole steps, so a sub-step mean would silently
/// degenerate to a batched release, and larger means overflow the
/// truncation bound.  (The same rule as open::ArrivalConfig::mean_gap.)
std::vector<dag::Steps> poisson_releases(util::Rng& rng, std::size_t jobs,
                                         double mean_gap);

}  // namespace abg::workload
