// Constructors for the DAG shapes used throughout tests, examples and
// experiments.
//
// The paper's workload is fork-join data-parallel jobs; we provide both the
// exact branch-chain fork-join DAG (serial task forks to `width` parallel
// branch chains that join back) and the level-barrier approximation used by
// ProfileJob, plus generic shapes (chains, diamonds, random layered DAGs)
// for exercising the scheduler on non-fork-join dependency structures.
#pragma once

#include <vector>

#include "dag/dag_job.hpp"
#include "dag/job.hpp"
#include "util/rng.hpp"

namespace abg::dag::builders {

/// One phase of a fork-join job: `levels` consecutive levels of `width`
/// parallel tasks.  width == 1 is a serial phase.  The same (width,
/// levels) pair is ProfileJob's run encoding, so a phase list builds
/// either form.
using PhaseSpec = LevelRun;

/// A linear chain of `length` tasks (T1 = T∞ = length).
DagStructure chain(TaskCount length);

/// Source task, `width` independent tasks, sink task (T∞ = 3).
DagStructure diamond(TaskCount width);

/// Complete-bipartite barriers between consecutive levels of the given
/// widths: every task of level l precedes every task of level l+1.  This is
/// the explicit-DAG equivalent of ProfileJob (used to property-test the
/// closed-form execution).
DagStructure barrier_profile(const std::vector<TaskCount>& widths);

/// Branch-chain fork-join DAG: for each parallel phase of width w and
/// length len, w independent chains of len tasks forked from the preceding
/// serial task and joined into the following one.  Serial phases are chains.
DagStructure fork_join(const std::vector<PhaseSpec>& phases);

/// Random layered DAG: `levels` layers whose sizes are drawn uniformly from
/// [1, max_width]; each non-source task takes each previous-layer task as a
/// parent with probability `edge_prob` and always has at least one parent,
/// so the layer index is exactly the task's level.
DagStructure random_layered(util::Rng& rng, Steps levels, TaskCount max_width,
                            double edge_prob);

/// Wavefront grid (stencil): task (i, j) precedes (i+1, j) and (i, j+1).
/// T1 = rows*cols, T∞ = rows + cols − 1; the parallelism profile is the
/// anti-diagonal width (a ramp up and back down).  Requires rows, cols
/// >= 1.
DagStructure grid(Steps rows, Steps cols);

/// Random series-parallel DAG built by recursive composition: a unit task,
/// a series of two sub-DAGs, or a parallel composition of 2..max_branch
/// sub-DAGs between fork and join tasks.  `depth` bounds the recursion.
DagStructure series_parallel(util::Rng& rng, int depth, int max_branch);

/// Expands a DAG of *weighted* tasks into the equivalent unit-task DAG:
/// task i becomes a chain of durations[i] unit tasks, with every
/// dependency edge attached from the last link of the producer to the
/// first link of the consumer.  One processor-step then equals one unit of
/// a task's work, progress survives preemption, and two processors can
/// never work on the same task simultaneously — so all of the library's
/// unit-task machinery (measurement, bounds, schedulers) applies to
/// variable-duration workloads unchanged.  Requires durations[i] >= 1 and
/// durations.size() == structure.node_count().
DagStructure expand_weighted(const DagStructure& structure,
                             const std::vector<Steps>& durations);

}  // namespace abg::dag::builders
