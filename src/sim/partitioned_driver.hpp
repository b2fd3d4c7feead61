// Partitioned epoch driver: the one coordinator behind the sharded (hier)
// and cluster drivers.
//
// A tiered run splits its jobs into partitions — allocation groups or
// machines — and gives each its own QuantumLoop (sim/engine_core.hpp) over
// its own allocator.  The driver advances the loops in epochs of whole
// quanta: before each epoch a budget source sets every partition's
// processors, the live loops advance to the epoch end on an
// exp::ThreadPool (longest queue first), and after the barrier an optional
// hook may move queued jobs between partitions.  A mode is only its
// routing, its budget source, its after-epoch hook and its own events:
//   * hier (sim/sharded_engine.hpp): jobs dealt by index mod groups,
//     budgets from DesireAggregator::split, no hook;
//   * cluster (cluster/cluster_engine.hpp): jobs placed by a Router,
//     budgets fixed at machine sizes, queued-job migration as the hook.
//
// Determinism: loops touch only their own state during an epoch; budgets,
// hooks and event publishing run on the coordinator between barriers; the
// merge places traces by original submission index.  Output is therefore
// byte-identical at any thread count.  The bus is unsynchronized, so the
// loops run without it: the driver publishes run start and submits up
// front and replays the quantum/complete stream from the merged traces
// after the final barrier (grouped by job instead of interleaved by step).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "sched/execution_policy.hpp"
#include "sched/request_policy.hpp"
#include "sim/engine_core.hpp"
#include "sim/simulator.hpp"

namespace abg::obs {
class EventBus;
}  // namespace abg::obs

namespace abg::sim {

/// Partition::original entry of a slot whose job migrated away (the slot
/// is tombstoned kDone; the job lives on in another partition).
inline constexpr std::size_t kMovedAway = static_cast<std::size_t>(-1);

/// One partition of a tiered run: a group or a machine.
struct Partition {
  QuantumLoop loop;
  /// Original submission index of batch slot k, or kMovedAway.
  std::vector<std::size_t> original;
  /// The loop's allocator (owned here, borrowed by the loop).
  std::unique_ptr<alloc::Allocator> allocator;
};

/// The epoch [start, end) a hook is called for.
struct Epoch {
  dag::Steps start = 0;
  dag::Steps end = 0;
  /// Null when no sink listens.
  obs::EventBus* bus = nullptr;
};

/// What a tiered mode contributes to the driver.
struct PartitionedRun {
  /// Message prefix ("simulate_job_set_sharded", ...).
  const char* context = "";
  /// Processors reported in the run-start event.
  int processors = 0;
  /// Partition of each submission, in submission order.
  std::vector<std::size_t> partition_of;
  /// One shape per partition.  Its processors are the default admission
  /// cap and the default budget; its regions weigh the reallocation
  /// penalty.
  std::vector<ClusterMachine> shapes;
  /// Builds a partition's allocator; the driver resets it.
  std::function<std::unique_ptr<alloc::Allocator>()> make_allocator;
  dag::Steps epoch_quanta = 1;
  /// Pool workers; <= 0 selects hardware concurrency.
  int threads = 1;
  /// Processors per partition for the epoch.  Empty: the shapes' sizes.
  std::function<std::vector<int>(const std::vector<Partition>&,
                                 const Epoch&)>
      budgets;
  /// Runs after each epoch's barrier while jobs remain.  Optional.
  std::function<void(std::vector<Partition>&, const Epoch&)> after_epoch;
  /// Publishes the mode's intake events after the submits, given each
  /// job's trace by submission index.  Optional.
  std::function<void(obs::EventBus&, const std::vector<const JobTrace*>&)>
      publish_intake;
  /// Publishes the mode's summary events before the run end.  Optional.
  std::function<void(obs::EventBus&, const std::vector<Partition>&)>
      publish_summary;
  /// Optional out-param: each pool worker's wall-clock busy seconds.
  std::vector<double>* worker_busy_seconds = nullptr;
};

/// Runs the submissions to completion over run.shapes.size() partitions.
/// The safety bound comes from the global totals, so a one-partition run
/// matches the flat engine bit for bit.
SimResult run_partitioned(std::vector<JobSubmission> submissions,
                          const PartitionedRun& run,
                          const sched::ExecutionPolicy& execution,
                          const sched::RequestPolicy& request_prototype,
                          const SimConfig& config);

}  // namespace abg::sim
