// The benchmark's four workloads.
//
// A workload generates its inputs from the benchmark seed (setup), then
// runs them any number of times (passes).  Every simulator call in a pass
// is one cell: it is timed on the host wall clock, its result is checked
// (closed sets: sim::validate_result on a cell's first result, then an
// exact match with it on every repeat; open streams: completed ==
// admitted == jobs_total) and folded into the pass digest.  Passes over
// the same inputs must produce identical digests.
//
// With a Recorder, a pass wraps the allocator, the request policy, every
// job and the open factory in the tracing decorators and attaches a
// counting event sink; the digest must not change.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tracing.hpp"

namespace wallbench {

/// Order-sensitive digest of the simulated statistics of a pass: FNV-1a
/// over every cell's (makespan, mean response, total waste, quanta), plus
/// their sums for printing.
struct Digest {
  std::uint64_t hash = 14695981039346656037ull;
  std::int64_t makespan = 0;
  double mean_response = 0.0;
  std::int64_t waste = 0;
  std::int64_t quanta = 0;

  void add(std::int64_t cell_makespan, double cell_mean_response,
           std::int64_t cell_waste, std::int64_t cell_quanta);
  bool operator==(const Digest& other) const { return hash == other.hash; }
  std::string to_string() const;
};

/// Everything one pass measured.
struct Pass {
  /// Host wall-clock seconds of each cell, in run order.
  std::vector<double> cell_seconds;
  /// Σ cell_seconds.
  double seconds = 0.0;
  /// Thread-busy seconds of the cells: wall time for single-threaded
  /// cells, process CPU time for pooled cells (whose coordinator blocks
  /// while the workers run an epoch).
  double busy_seconds = 0.0;
  std::int64_t jobs = 0;
  /// Σ per-job quanta evaluated.
  std::int64_t job_quanta = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Digest digest;
  /// Hierarchical (sharded) cells only, from the HierConfig hooks.
  std::int64_t rebalances = 0;
  double rebalance_seconds = 0.0;
  double pool_busy_seconds = 0.0;
  /// Σ threads × wall over the sharded cells.
  double pool_capacity_seconds = 0.0;
};

/// The workload layer's side of setup: calls into the generators.
struct SetupStats {
  std::int64_t generator_calls = 0;
  double generator_seconds = 0.0;
  /// Σ T∞ of the generated jobs: the levels the jobs store.
  std::int64_t levels = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed`, replacing earlier ones.
  virtual SetupStats setup(std::uint64_t seed) = 0;

  /// Untimed work before the first pass.  Returns a digest the first pass
  /// must equal (the hierarchical workload's 1-thread reference), counting
  /// its own cells into `checks`.
  virtual std::optional<Digest> prepare(Pass& checks) {
    (void)checks;
    return std::nullopt;
  }

  /// Runs every cell once; traced when `recorder` is non-null.
  virtual Pass run_pass(Recorder* recorder) = 0;

  /// True when the root layer is the open streaming driver, not the
  /// closed-set sim engines.
  virtual bool open_driver() const { return false; }
};

const std::vector<std::string>& workload_names();

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

}  // namespace wallbench
