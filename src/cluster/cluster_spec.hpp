// Datacenter shapes for the cluster simulation subsystem.
//
// A ClusterSpec is the fully resolved description the cluster driver runs
// against: N machines, each with its own processor count and an optional
// list of NUMA-shaped regions.  Regions partition a machine's processors
// in declaration order and attach a locality cost multiplier to the
// reallocation/migration debt of the processors they cover: growing or
// shrinking an allotment across a remote region pays proportionally more
// of the run's per-processor reallocation cost
// (sim::region_reallocation_penalty, which the quantum loop charges).  A
// machine without regions uses the flat penalty unchanged, which is what
// keeps the single-machine cluster byte-identical to the flat engine.
#pragma once

#include <vector>

#include "sim/simulator.hpp"

namespace abg::cluster {

/// Fully resolved datacenter description.
struct ClusterSpec {
  std::vector<sim::ClusterMachine> machines;

  int total_processors() const;

  /// Resolves a SimConfig's cluster block: explicit shapes are validated
  /// (size must equal the machine count, region processors must sum to the
  /// machine size, multipliers must be positive); an empty shape list
  /// builds `machines` uniform machines of `config.processors` each.
  /// Throws std::invalid_argument prefixed with `context`.
  static ClusterSpec resolve(const sim::SimConfig& config,
                             const char* context);
};

}  // namespace abg::cluster
