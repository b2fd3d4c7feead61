// Parallelism-profile shapes.
//
// A job's level widths fully describe a ProfileJob; these helpers build
// the standard shapes used in tests, examples and ablations: constant
// parallelism (Figures 1 and 4), steps, square waves (fork-join
// alternation in its purest form) and bounded random walks.  The phase
// shapes come as runs of equal-width levels, which ProfileJob::from_runs
// takes as they are, so a job of any length costs memory per phase, not
// per level.  Phases of zero levels are left out.  The random walk changes
// width at every level and stays a per-level width list.
#pragma once

#include <memory>
#include <vector>

#include "dag/job.hpp"
#include "util/rng.hpp"

namespace abg::workload {

/// `levels` levels of constant width.  Under any scheduler this job has
/// constant parallelism — the paper's Figure 1/4 synthetic workload.
std::vector<dag::LevelRun> constant_profile(dag::TaskCount width,
                                           dag::Steps levels);

/// A constant-parallelism job as `width` independent task chains of length
/// `levels` (no barriers).  Unlike the barrier profile, any allotment
/// a <= width achieves full utilization a tasks/step, which is the model
/// behind the paper's Figures 1 and 4: with barriers, ceil(width/a)
/// quantization deflates utilization and distorts A-Greedy's efficiency
/// classification.
std::unique_ptr<dag::Job> constant_parallelism_chains(dag::TaskCount width,
                                                      dag::Steps levels);

/// `low_levels` of width `low` followed by `high_levels` of width `high`.
std::vector<dag::LevelRun> step_profile(dag::TaskCount low,
                                       dag::Steps low_levels,
                                       dag::TaskCount high,
                                       dag::Steps high_levels);

/// `periods` repetitions of (`low_levels` at `low`, `high_levels` at
/// `high`): the square-wave fork-join alternation.
std::vector<dag::LevelRun> square_wave_profile(dag::TaskCount low,
                                              dag::Steps low_levels,
                                              dag::TaskCount high,
                                              dag::Steps high_levels,
                                              int periods);

/// Multiplicative random walk over `levels` levels: each level's width is
/// the previous times a factor drawn log-uniformly from
/// [1/max_step, max_step], clamped to [1, max_width].
std::vector<dag::TaskCount> random_walk_profile(util::Rng& rng,
                                                dag::Steps levels,
                                                dag::TaskCount max_width,
                                                double max_step);

}  // namespace abg::workload
