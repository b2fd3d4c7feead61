// Intrinsic job characteristics.
//
// The paper's analysis is parameterised by three job-intrinsic quantities:
// work T1, critical-path length T∞, and (new in this paper) the transition
// factor C_L.  The first two are pure DAG properties computed here; the
// transition factor additionally depends on the quantum length and is
// computed in metrics/parallelism_stats.hpp from a realized A(q) series.
#pragma once

#include "dag/job.hpp"

namespace abg::dag {

/// Static characteristics of a job's DAG.
struct JobCharacteristics {
  /// Total number of unit tasks, T1.
  TaskCount work = 0;
  /// Number of tasks on the longest dependency chain, T∞.
  Steps critical_path = 0;
  /// Average parallelism T1 / T∞ (0 for an empty job).
  double average_parallelism = 0.0;
  /// Widest level of the DAG: an upper bound on instantaneous parallelism.
  TaskCount max_level_width = 0;
};

/// Characteristics of any job in its initial state.
JobCharacteristics characteristics_of(const Job& job);

}  // namespace abg::dag
