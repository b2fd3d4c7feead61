// Statistics over a job's realized parallelism series A(1), A(2), ...
//
// The transition factor C_L (Section 5.2) is the paper's new job
// characteristic: the maximal ratio between the average parallelism of any
// two adjacent full quanta, with A(0) defined as 1.  We measure it
// empirically from a trace.  The module also provides the §9 "future work"
// characteristics — the frequency and variance of parallelism changes.
#pragma once

#include <vector>

#include "sim/trace.hpp"

namespace abg::metrics {

/// Empirical transition factor over consecutive full quanta of the trace,
/// seeded with A(0) = 1: max over adjacent pairs of
/// max(A(q)/A(q−1), A(q−1)/A(q)).  Returns 1 for an empty or all-non-full
/// trace.
double empirical_transition_factor(const sim::JobTrace& trace);

/// Same computation on a raw parallelism series (every entry treated as a
/// full quantum).  `seed_initial` prepends A(0) = 1.
double transition_factor_of_series(const std::vector<double>& parallelism,
                                   bool seed_initial = true);

/// Variance of the parallelism over full quanta (the paper's other
/// suggested alternative characteristic).  0 when fewer than two full
/// quanta exist.
double parallelism_variance(const sim::JobTrace& trace);

}  // namespace abg::metrics
