#include "sim/partitioned_driver.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "exp/thread_pool.hpp"
#include "obs/event_bus.hpp"

namespace abg::sim {

namespace {

/// Partition indices ordered by descending weight, ties by index.  Pool
/// tasks start longest queue first, so the stragglers begin while short
/// partitions pack around them; order changes only wall-clock, never
/// results.
std::vector<std::size_t> lpt_order(const std::vector<std::size_t>& weights) {
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&weights](std::size_t a, std::size_t b) {
                     return weights[a] > weights[b];
                   });
  return order;
}

/// Publishes the run start and one submit per job, by submission index,
/// then the mode's intake events.
void publish_start(obs::EventBus& bus, const PartitionedRun& run,
                   const std::vector<Partition>& parts, std::size_t n,
                   dag::Steps quantum_length) {
  std::vector<const JobTrace*> traces(n, nullptr);
  for (const Partition& part : parts) {
    for (std::size_t k = 0; k < part.loop.batch.size(); ++k) {
      traces[part.original[k]] = &part.loop.batch.jobs[k].trace;
    }
  }
  publish_intake(&bus, run.processors, quantum_length, traces);
  if (run.publish_intake) {
    run.publish_intake(bus, traces);
  }
}

/// Replays every job's quantum records and completion from the merged
/// result, then the mode's summaries and the run end.
void publish_outcome(obs::EventBus& bus, const PartitionedRun& run,
                     const std::vector<Partition>& parts,
                     const SimResult& result) {
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    const auto job = static_cast<std::int64_t>(j);
    for (const sched::QuantumStats& stats : result.jobs[j].quanta) {
      publish_quantum(&bus, job, stats);
    }
    publish_complete(&bus, job, result.jobs[j].completion_step);
  }
  if (run.publish_summary) {
    run.publish_summary(bus, parts);
  }
  publish_run_end(&bus, result.makespan);
}

}  // namespace

SimResult run_partitioned(std::vector<JobSubmission> submissions,
                          const PartitionedRun& run,
                          const sched::ExecutionPolicy& execution,
                          const sched::RequestPolicy& request_prototype,
                          const SimConfig& config) {
  const std::size_t count = run.shapes.size();
  const std::size_t n = submissions.size();

  // Deal submissions to partitions, remembering original indices, and
  // ingest each partition; the safety bound uses the global totals.
  std::vector<std::vector<JobSubmission>> dealt(count);
  std::vector<std::vector<std::size_t>> original(count);
  for (std::size_t i = 0; i < n; ++i) {
    dealt[run.partition_of[i]].push_back(std::move(submissions[i]));
    original[run.partition_of[i]].push_back(i);
  }
  IntakeTotals totals;
  std::vector<IntakeTotals> part_totals(count);
  std::vector<JobBatch> batches;
  batches.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    batches.push_back(intake_submissions(
        std::move(dealt[p]), request_prototype, run.context, part_totals[p]));
    totals.total_work += part_totals[p].total_work;
    totals.latest_release =
        std::max(totals.latest_release, part_totals[p].latest_release);
    totals.remaining += part_totals[p].remaining;
  }

  CoreConfig core;
  core.context = run.context;
  core.quantum_length = config.quantum_length;
  core.max_steps = config.max_steps > 0
                       ? config.max_steps
                       : totals.latest_release + 8 * totals.total_work +
                             64 * config.quantum_length;
  core.reallocation_cost_per_proc = config.reallocation_cost_per_proc;
  std::vector<Partition> parts;
  parts.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    core.processors = run.shapes[p].processors;
    // The admission cap applies per partition (each runs its own FCFS
    // queue); the flat default — cap P — holds at one partition.
    core.max_active = config.max_active_jobs > 0
                          ? static_cast<std::size_t>(config.max_active_jobs)
                          : static_cast<std::size_t>(core.processors);
    std::unique_ptr<alloc::Allocator> allocator = run.make_allocator();
    allocator->reset();
    alloc::Allocator& borrowed = *allocator;
    parts.push_back(Partition{
        QuantumLoop(std::move(batches[p]), part_totals[p].remaining,
                    execution, borrowed, core),
        std::move(original[p]), std::move(allocator)});
    parts.back().loop.shape = run.shapes[p];
  }

  // The bus is unsynchronized: only this (coordinator) thread publishes.
  obs::EventBus* bus = config.obs.event_bus != nullptr &&
                               config.obs.event_bus->active()
                           ? config.obs.event_bus
                           : nullptr;
  if (bus != nullptr) {
    publish_start(*bus, run, parts, n, config.quantum_length);
  }

  exp::ThreadPool pool(exp::ThreadPool::resolve_threads(run.threads));
  const dag::Steps epoch_length = run.epoch_quanta * config.quantum_length;
  std::vector<int> budgets(count);
  std::vector<std::size_t> weights(count);
  Epoch epoch{0, epoch_length, bus};
  while (totals.remaining > 0) {
    util::throw_if_cancelled(config.cancel, run.context);
    if (run.budgets) {
      budgets = run.budgets(parts, epoch);
    } else {
      for (std::size_t p = 0; p < count; ++p) {
        budgets[p] = run.shapes[p].processors;
      }
    }
    for (std::size_t p = 0; p < count; ++p) {
      weights[p] = parts[p].loop.remaining;
    }
    for (const std::size_t p : lpt_order(weights)) {
      QuantumLoop& loop = parts[p].loop;
      if (loop.remaining == 0 || loop.now >= epoch.end) {
        continue;  // finished, or idle-skipped past this epoch
      }
      pool.submit([&loop, end = epoch.end, budget = budgets[p]] {
        loop.advance(end, budget);
      });
    }
    pool.wait();  // barrier: rethrows the first loop exception

    totals.remaining = 0;
    for (const Partition& part : parts) {
      totals.remaining += part.loop.remaining;
    }
    if (run.after_epoch && totals.remaining > 0) {
      run.after_epoch(parts, epoch);
    }
    epoch.start = epoch.end;
    epoch.end += epoch_length;
  }
  if (run.worker_busy_seconds != nullptr) {
    *run.worker_busy_seconds = pool.worker_busy_seconds();
  }

  // Deterministic merge: traces by original submission index, skipping
  // the tombstones of migrated jobs.
  SimResult result;
  result.jobs.resize(n);
  for (Partition& part : parts) {
    result.quanta += part.loop.quanta;
    for (std::size_t k = 0; k < part.loop.batch.size(); ++k) {
      if (part.original[k] != kMovedAway) {
        result.jobs[part.original[k]] =
            std::move(part.loop.batch.jobs[k].trace);
      }
    }
  }
  summarize_result(result);
  if (bus != nullptr) {
    publish_outcome(*bus, run, parts, result);
  }
  return result;
}

}  // namespace abg::sim
