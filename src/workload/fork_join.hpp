// The paper's experimental workload: data-parallel fork-join jobs.
//
// Section 7.1: jobs alternate between serial and parallel phases; the
// transition factor is controlled by the level of parallelism in the
// parallel phases, and work / critical-path diversity comes from varying
// the length of each phase.  A generated job is a ProfileJob whose level
// runs alternate between width 1 (serial) and the target width (parallel),
// with per-phase lengths drawn log-uniformly.  Phase lengths are scaled
// relative to the quantum length so that individual quanta are dominated by
// one phase type — this is what makes the realized per-quantum parallelism
// actually swing by about the target factor.
#pragma once

#include <memory>
#include <vector>

#include "dag/builders.hpp"
#include "dag/profile_job.hpp"
#include "util/rng.hpp"

namespace abg::workload {

/// Parameters of the fork-join job generator.
struct ForkJoinSpec {
  /// Target transition factor: the width of parallel phases (serial phases
  /// have width 1).  Must be >= 1.
  double transition_factor = 10.0;
  /// Number of (serial, parallel) phase pairs.  Must be >= 1.
  int phase_pairs = 6;
  /// Per-phase length range in levels, drawn log-uniformly.  The paper's
  /// setup (L = 1000) maps to lengths of the order of the quantum length.
  dag::Steps min_phase_levels = 500;
  dag::Steps max_phase_levels = 4000;
};

/// The phase list of one random fork-join job: alternating serial
/// (width 1) and parallel (width = transition factor) phases with
/// log-uniform lengths.  Feed to dag::builders::fork_join for the explicit
/// branch-chain DAG or to dag::ProfileJob::from_runs for the barrier
/// profile.
std::vector<dag::builders::PhaseSpec> fork_join_phases(
    util::Rng& rng, const ForkJoinSpec& spec);

/// A random fork-join ProfileJob, built from its phase list as runs (no
/// per-level storage).
std::unique_ptr<dag::ProfileJob> make_fork_join_job(util::Rng& rng,
                                                    const ForkJoinSpec& spec);

/// Spec the paper's Figure 5 sweep uses for a given transition factor and
/// quantum length: phase lengths between L/2 and 4L levels.
ForkJoinSpec figure5_spec(double transition_factor,
                          dag::Steps quantum_length);

}  // namespace abg::workload
