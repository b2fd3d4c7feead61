#include "sim/engine_core.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault_injector.hpp"
#include "fault/faulty_allocator.hpp"
#include "obs/event_bus.hpp"
#include "sim/quantum_engine.hpp"
#include "sim/quantum_eval.hpp"

namespace abg::sim {

std::string_view to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSync:
      return "sync";
    case EngineKind::kAsync:
      return "async";
  }
  return "sync";
}

EngineKind engine_kind_from_name(std::string_view name) {
  if (name == "sync") {
    return EngineKind::kSync;
  }
  if (name == "async") {
    return EngineKind::kAsync;
  }
  throw std::invalid_argument("unknown engine '" + std::string(name) +
                              "' (expected sync|async)");
}

dag::Steps fault_bound_slack(const fault::FaultPlan& plan,
                             dag::TaskCount total_work,
                             dag::Steps quantum_length) {
  const auto crashes = static_cast<dag::Steps>(plan.crash_count());
  const auto events = static_cast<dag::Steps>(plan.events.size());
  return plan.last_event_step() + plan.restart_delay * crashes +
         8 * total_work * crashes + 64 * quantum_length * events;
}

/// Fault machinery for one run, constructed only when a non-empty plan is
/// attached: the fault-free path never touches it.
struct FaultSession {
  fault::FaultInjector injector;
  fault::FaultyAllocator faulty_allocator;

  FaultSession(alloc::Allocator& base, const fault::FaultPlan& plan)
      : injector(plan), faulty_allocator(base, injector) {}
};

void publish_intake(obs::EventBus* bus, int processors,
                    dag::Steps quantum_length,
                    const std::vector<const JobTrace*>& traces) {
  if (bus == nullptr) {
    return;
  }
  obs::Event start;
  start.kind = obs::EventKind::kRunStart;
  start.processors = processors;
  start.quantum_length = quantum_length;
  start.job_count = static_cast<std::int64_t>(traces.size());
  bus->publish(start);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    obs::Event e;
    e.kind = obs::EventKind::kJobSubmit;
    e.step = traces[i]->release_step;
    e.job = static_cast<std::int64_t>(i);
    e.work = traces[i]->work;
    e.critical_path = traces[i]->critical_path;
    bus->publish(e);
  }
}

void publish_quantum(obs::EventBus* bus, std::int64_t job,
                     const sched::QuantumStats& stats) {
  obs::Event e;
  e.kind = obs::EventKind::kQuantum;
  e.step = stats.start_step;
  e.job = job;
  e.stats = &stats;
  bus->publish(e);
}

void publish_complete(obs::EventBus* bus, std::int64_t job, dag::Steps step) {
  obs::Event e;
  e.kind = obs::EventKind::kJobComplete;
  e.step = step;
  e.job = job;
  bus->publish(e);
}

void publish_run_end(obs::EventBus* bus, dag::Steps makespan) {
  if (bus == nullptr) {
    return;
  }
  obs::Event e;
  e.kind = obs::EventKind::kRunEnd;
  e.step = makespan;
  e.makespan = makespan;
  bus->publish(e);
}

namespace {

/// Resolves the configured bus to null when it has no sinks, so every hook
/// site below is one pointer test on the hot path.
obs::EventBus* active_bus(const CoreConfig& config) {
  return config.bus != nullptr && config.bus->active() ? config.bus : nullptr;
}

/// Job i's trace, by slot, for publish_intake.
std::vector<const JobTrace*> traces_of(const JobBatch& batch) {
  std::vector<const JobTrace*> traces;
  traces.reserve(batch.size());
  for (const JobRuntime& st : batch.jobs) {
    traces.push_back(&st.trace);
  }
  return traces;
}

void publish_admit(obs::EventBus* bus, std::int64_t job, dag::Steps now,
                   int desire) {
  obs::Event e;
  e.kind = obs::EventKind::kJobAdmit;
  e.step = now;
  e.job = job;
  e.desire = desire;
  bus->publish(e);
}

/// Activates queued slot `i` at `now` with its first (or preserved)
/// desire and enters it in the active list.
void admit(JobBatch& batch, LifecycleIndex& index, std::size_t i,
           dag::Steps now, obs::EventBus* bus) {
  JobRuntime& st = batch.jobs[i];
  batch.regime[i] = JobRegime::kActive;
  index.activate(i);
  if (st.resumed) {
    st.resumed = false;  // keep the preserved desire
  } else {
    batch.desire[i] = st.request->first_request();
  }
  if (bus != nullptr) {
    publish_admit(bus, batch.id[i], now, batch.desire[i]);
  }
}

/// Input for the optional quantum-length policy, gathered as a quantum's
/// stats are produced: the sole job's stats verbatim when exactly one job
/// ran the quantum (the single-job feedback loop), machine-aggregated
/// stats otherwise.  A crash-voided quantum counts toward the aggregate
/// but never stands in for the sole job.
struct QuantumLengthInput {
  sched::QuantumStats aggregate{.full = true};
  sched::QuantumStats sole;
  std::size_t count = 0;
  bool sole_valid = false;

  void add(const sched::QuantumStats& stats, bool crashed) {
    ++count;
    sole_valid = !crashed;
    if (!crashed) {
      sole = stats;
    }
    aggregate.work += stats.work;
    aggregate.allotment += stats.allotment;
    aggregate.request += stats.request;
    aggregate.cpl = std::max(aggregate.cpl, stats.cpl);
    aggregate.full = aggregate.full && stats.full;
  }

  /// The stats the policy sees for global quantum `index`, which started
  /// at `start` with `length` steps and a pool of `available` processors.
  const sched::QuantumStats& finish(std::int64_t index, dag::Steps start,
                                    dag::Steps length, int available) {
    if (count == 1 && sole_valid) {
      return sole;
    }
    aggregate.index = index;
    aggregate.start_step = start;
    aggregate.length = length;
    aggregate.steps_used = length;
    aggregate.available = available;
    return aggregate;
  }
};

void publish_allocation(obs::EventBus* bus, dag::Steps now, int pool,
                        const std::vector<int>& allotments,
                        std::int64_t active_jobs) {
  obs::Event e;
  e.kind = obs::EventKind::kAllocation;
  e.step = now;
  e.pool = pool;
  for (const int a : allotments) {
    e.assigned += a;
  }
  e.active_jobs = active_jobs;
  bus->publish(e);
}

void publish_crash(obs::EventBus* bus, std::int64_t job, dag::Steps now,
                   const fault::CrashRecord& record, dag::Steps restart_step) {
  obs::Event e;
  e.kind = obs::EventKind::kJobCrash;
  e.step = now;
  e.job = job;
  e.lost_work = record.lost_work;
  e.restart_step = restart_step;
  bus->publish(e);
}

/// Tallies a consumed fault window into the log: disturbance steps and
/// per-kind event counters (crashes are counted via log.crashes when they
/// are applied to a running job).  Non-crash events are also published to
/// the bus when one is attached.
void log_window_events(const fault::WindowFaults& window,
                       fault::FaultLog& log, obs::EventBus* bus) {
  for (const fault::FaultEvent& e : window.applied) {
    log.disturbance_steps.push_back(e.step);
    switch (e.kind) {
      case fault::FaultKind::kProcessorFailure:
        ++log.failure_events;
        break;
      case fault::FaultKind::kProcessorRepair:
        ++log.repair_events;
        break;
      case fault::FaultKind::kAllotmentRevocation:
        ++log.revocation_events;
        break;
      case fault::FaultKind::kJobCrash:
        continue;  // counted via log.crashes when applied
    }
    if (bus != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::kFault;
      ev.step = e.step;
      ev.fault = e.kind;
      bus->publish(ev);
    }
  }
}

void commit_crash(fault::FaultLog& log, const fault::CrashRecord& record) {
  log.crashes.push_back(record);
  log.lost_work += record.lost_work;
  log.discarded_cycles += record.discarded_cycles;
}

/// Remaining work (total minus completed) of each of `slots`, for a
/// size-aware allocator.  `buffer` is reused across quanta to keep the
/// hot path allocation-free.
const std::vector<double>& remaining_work(const JobBatch& batch,
                                          const std::vector<std::size_t>& slots,
                                          std::vector<double>& buffer) {
  buffer.clear();
  for (const std::size_t i : slots) {
    const JobRuntime& st = batch.jobs[i];
    buffer.push_back(static_cast<double>(st.job->total_work() -
                                         st.job->completed_work()));
  }
  return buffer;
}

/// Moves per-job traces into the result and derives the aggregate metrics
/// (identical in both boundary models).
void aggregate_result(JobBatch& batch, SimResult& result) {
  for (JobRuntime& st : batch.jobs) {
    result.jobs.push_back(std::move(st.trace));
  }
  summarize_result(result);
}

}  // namespace

SetRun prepare_set(std::vector<JobSubmission> submissions,
                   const sched::RequestPolicy& request_prototype,
                   alloc::Allocator& allocator, const SimConfig& config,
                   const char* context) {
  config.validate(context);
  allocator.reset();
  SetRun set;
  set.batch = intake_submissions(std::move(submissions), request_prototype,
                                 context, set.totals);

  // With a quantum-length policy the first boundary is the policy's
  // choice and the derived safety bound is widened to the larger of the
  // two lengths; without one this resolves to config.quantum_length and
  // the arithmetic below is the historic formula, bit for bit.
  dag::Steps initial_length = config.quantum_length;
  if (config.quantum_length_policy != nullptr) {
    config.quantum_length_policy->reset();
    initial_length = config.quantum_length_policy->initial_length();
    if (initial_length < 1) {
      throw std::logic_error(std::string(context) +
                             ": quantum-length policy returned length < 1");
    }
  }
  const dag::Steps bound_length =
      std::max(config.quantum_length, initial_length);
  const IntakeTotals& totals = set.totals;
  dag::Steps max_steps =
      config.max_steps > 0
          ? config.max_steps
          : totals.latest_release + 8 * totals.total_work + 64 * bound_length;
  if (config.faults != nullptr && !config.faults->empty() &&
      config.max_steps == 0) {
    max_steps +=
        fault_bound_slack(*config.faults, totals.total_work, bound_length);
  }

  CoreConfig& core = set.core;
  core.context = context;
  core.processors = config.processors;
  core.quantum_length = initial_length;
  core.max_steps = max_steps;
  core.max_active = config.max_active_jobs > 0
                        ? static_cast<std::size_t>(config.max_active_jobs)
                        : static_cast<std::size_t>(config.processors);
  core.reallocation_cost_per_proc = config.reallocation_cost_per_proc;
  core.faults = config.faults;
  core.quantum_length_policy = config.quantum_length_policy;
  core.bus = config.obs.event_bus;
  core.cancel = config.cancel;
  return set;
}

void summarize_result(SimResult& result) {
  double response_sum = 0.0;
  for (const JobTrace& trace : result.jobs) {
    result.makespan = std::max(result.makespan, trace.completion_step);
    response_sum += static_cast<double>(trace.response_time());
    result.total_waste += trace.total_waste();
  }
  result.mean_response_time =
      result.jobs.empty()
          ? 0.0
          : response_sum / static_cast<double>(result.jobs.size());
}

QuantumLoop::QuantumLoop(JobBatch batch_in, std::size_t remaining_in,
                         const sched::ExecutionPolicy& execution,
                         alloc::Allocator& allocator,
                         const CoreConfig& config)
    : batch(std::move(batch_in)),
      remaining(remaining_in),
      config_(config),
      execution_(&execution),
      allocator_(&allocator),
      bus_(active_bus(config)),
      length_(config.quantum_length),
      index_(batch) {
  if (config.faults != nullptr && !config.faults->empty()) {
    faults_ = std::make_unique<FaultSession>(allocator, *config.faults);
    fault_log_.enabled = true;
    fault_log_.min_capacity = config.processors;
  }
}

QuantumLoop::QuantumLoop(QuantumLoop&&) noexcept = default;
QuantumLoop::~QuantumLoop() = default;

int QuantumLoop::aggregated_desire(dag::Steps horizon) const {
  int desire = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch.active(i)) {
      desire += batch.desire[i];
    } else if (!batch.done(i) && batch.eligible_step[i] < horizon) {
      desire += 1;
    }
  }
  return desire;
}

void QuantumLoop::refill(std::size_t slot, std::unique_ptr<dag::Job> job,
                         std::int64_t id, dag::Steps release,
                         const sched::RequestPolicy& request_prototype) {
  assert(slot == batch.size() || batch.done(slot));
  if (slot == batch.size()) {
    JobRuntime runtime;
    runtime.owned_request = request_prototype.clone();
    runtime.request = runtime.owned_request.get();
    batch.append(std::move(runtime));
  }
  JobRuntime& st = batch.jobs[slot];
  st.owned_job = std::move(job);
  st.job = st.owned_job.get();
  st.request->reset();
  st.local_quantum = 0;
  st.resumed = false;
  st.trace.quanta.clear();
  st.trace.release_step = release;
  st.trace.work = st.job->total_work();
  st.trace.critical_path = st.job->critical_path();
  st.trace.completion_step = -1;
  batch.previous_allotment[slot] = 0;
  batch.eligible_step[slot] = release;
  batch.id[slot] = id;
  admit(batch, index_, slot, now, bus_);
  if (st.job->finished()) {
    st.trace.completion_step = now;
    batch.regime[slot] = JobRegime::kDone;
    index_.drop_inactive(batch);
    if (bus_ != nullptr) {
      publish_complete(bus_, id, now);
    }
  } else {
    ++remaining;
  }
}

std::size_t QuantumLoop::transfer_queued(std::size_t slot, QuantumLoop& to,
                                         dag::Steps eligible) {
  assert(batch.regime[slot] == JobRegime::kQueued);
  const std::size_t moved = to.batch.append(std::move(batch.jobs[slot]));
  to.batch.eligible_step[moved] = eligible;
  to.index_.enqueue(to.batch, moved);
  ++to.remaining;
  batch.regime[slot] = JobRegime::kDone;  // its heap entry goes stale
  --remaining;
  return moved;
}

SimResult QuantumLoop::run() {
  if (bus_ != nullptr) {
    publish_intake(bus_, config_.processors, config_.quantum_length,
                   traces_of(batch));
  }
  advance(std::numeric_limits<dag::Steps>::max(), config_.processors);
  SimResult result;
  if (faults_) {
    fault_log_.allotted_cycles = allotted_cycles;
    result.fault_log = std::move(fault_log_);
  }
  result.quanta = quanta;
  aggregate_result(batch, result);
  publish_run_end(bus_, result.makespan);
  return result;
}

void QuantumLoop::advance(dag::Steps horizon, int budget) {
  const bool faulty = faults_ != nullptr;
  alloc::Allocator& machine =
      faulty ? faults_->faulty_allocator : *allocator_;
  const dag::Steps max_steps = config_.max_steps;
  obs::EventBus* const bus = bus_;
  fault::FaultLog& log = fault_log_;

  while (remaining > 0 && now < horizon) {
    util::throw_if_cancelled(config_.cancel, config_.context);
    // Consume fault events for the quantum [now, now + length).  Events
    // inside windows skipped by the idle fast-path below are consumed
    // lazily on the next boundary; failures/repairs net out and crashes of
    // non-running jobs are no-ops, so laziness is sound.
    fault::WindowFaults window;
    if (faulty) {
      window = faults_->injector.advance(now, now + length_);
      log_window_events(window, log, bus);
      log.min_capacity = std::min(
          log.min_capacity, faults_->injector.capacity(config_.processors));
    }

    // Admit jobs eligible by the current boundary, FCFS by eligible step
    // (ties by slot), up to the admission cap.
    const std::vector<std::size_t>& active = index_.active();
    while (active.size() < config_.max_active) {
      const std::size_t best = index_.pop_admissible(batch, now);
      if (best == batch.size()) {
        break;
      }
      admit(batch, index_, best, now, bus_);
    }

    if (active.empty()) {
      // All remaining jobs are eligible in the future: idle to the next
      // eligibility boundary (possibly past the horizon — boundaries stay
      // aligned, and a tier driver skips the loop until its epoch clock
      // catches up).
      const dag::Steps gap = index_.next_eligible(batch, max_steps) - now;
      const dag::Steps quanta_to_skip = std::max<dag::Steps>(1, gap / length_);
      now += quanta_to_skip * length_;
      if (now >= max_steps) {
        throw std::runtime_error(std::string(config_.context) +
                                 ": exceeded step bound");
      }
      continue;
    }

    ++quanta;
    const dag::Steps length = length_;
    const int pool = machine.pool(budget);
    // Requests of the active slots only, in slot order; the allocator
    // sees the slot ids, so positional allocators keep their semantics
    // (alloc::Allocator::allocate_slots).
    requests_.clear();
    for (const std::size_t i : active) {
      requests_.push_back(batch.desire[i]);
    }
    const std::vector<int> allotments = machine.allocate_slots(
        active, requests_,
        machine.size_aware() ? &remaining_work(batch, active, sized_)
                             : nullptr,
        batch.size(), budget);
    int assigned = 0;
    for (const int a : allotments) {
      assigned += a;
    }
    // Revoked processors are held by the revoker, not idle: exclude them
    // from the leftover availability reported to jobs.
    const int revoked = faulty ? faults_->faulty_allocator.last_revoked() : 0;
    const int leftover = std::max(0, pool - assigned - revoked);
    if (bus != nullptr) {
      publish_allocation(bus, now, pool, allotments,
                         static_cast<std::int64_t>(active.size()));
    }

    // Which active jobs crash during this quantum.
    std::vector<std::size_t> crash_victims;
    if (faulty) {
      for (const fault::FaultEvent& e : window.crashes) {
        const auto j = static_cast<std::size_t>(e.job);
        if (j < batch.size() && batch.active(j) &&
            std::find(crash_victims.begin(), crash_victims.end(), j) ==
                crash_victims.end()) {
          crash_victims.push_back(j);
        }
      }
    }

    QuantumLengthInput qlen;

    feedback_.clear();
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t i = active[k];
      JobRuntime& st = batch.jobs[i];
      const int allotment = allotments[k];
      allotted_cycles += static_cast<dag::TaskCount>(allotment) *
                         static_cast<dag::TaskCount>(length);
      const bool crashed =
          faulty && std::find(crash_victims.begin(), crash_victims.end(),
                              i) != crash_victims.end();
      if (crashed) {
        // The job held its allotment when the crash hit: the whole
        // quantum is forfeited.  Under checkpoint recovery the voided
        // quantum stays in the trace as pure waste; under
        // restart-from-scratch the entire trace so far is discarded and
        // the job restarts as a fresh DAG.
        ++st.local_quantum;
        sched::QuantumStats stats;
        stats.index = st.local_quantum;
        stats.start_step = now;
        stats.request = batch.desire[i];
        stats.allotment = allotment;
        stats.available = allotment + leftover;
        stats.length = length;
        st.trace.quanta.push_back(stats);
        if (bus != nullptr) {
          publish_quantum(bus, batch.id[i], stats);
        }
        if (config_.quantum_length_policy != nullptr) {
          qlen.add(stats, /*crashed=*/true);
        }
        fault::CrashRecord record;
        record.job = i;
        record.step = now;
        if (config_.faults->work_loss == fault::WorkLoss::kRestartFromScratch) {
          record.lost_work = st.job->completed_work();
          record.discarded_cycles = st.trace.total_allotted();
          st.restart_from_scratch();
          st.trace.quanta.clear();
          st.local_quantum = 0;
        }
        if (config_.faults->policy_on_restart ==
            fault::PolicyOnRestart::kReset) {
          st.request->reset();  // admit() re-requests d(1)
        } else {
          st.resumed = true;  // re-admission keeps the preserved desire
        }
        commit_crash(log, record);
        batch.previous_allotment[i] = 0;
        batch.regime[i] = JobRegime::kQueued;
        batch.eligible_step[i] = now + length + config_.faults->restart_delay;
        index_.enqueue(batch, i);
        if (bus != nullptr) {
          publish_crash(bus, batch.id[i], now, record,
                        batch.eligible_step[i]);
        }
        continue;
      }
      ++st.local_quantum;
      const dag::Steps penalty = region_reallocation_penalty(
          shape, batch.previous_allotment[i], allotment,
          config_.reallocation_cost_per_proc, length);
      batch.previous_allotment[i] = allotment;
      const sched::QuantumStats stats = quantum_eval::run_allotted_quantum(
          *st.job, *execution_, st.local_quantum, batch.desire[i], allotment,
          length, penalty, leftover, now);
      st.trace.quanta.push_back(stats);
      executed_work += stats.work;
      if (bus != nullptr) {
        publish_quantum(bus, batch.id[i], stats);
      }
      if (config_.quantum_length_policy != nullptr) {
        qlen.add(stats, /*crashed=*/false);
      }
      if (stats.finished) {
        st.trace.completion_step = now + stats.steps_used;
        batch.regime[i] = JobRegime::kDone;
        --remaining;
        if (bus != nullptr) {
          publish_complete(bus, batch.id[i], st.trace.completion_step);
        }
      } else {
        feedback_.push_back(i);
      }
    }
    // Finished and crashed jobs leave the active list.
    index_.drop_inactive(batch);

    now += length;
    if (remaining > 0 && now >= max_steps) {
      throw std::runtime_error(std::string(config_.context) +
                               ": exceeded step bound; " +
                               config_.stall_reason);
    }
    // Quantum-boundary feedback.  next_request is deferred until after the
    // bound check so a stalled run throws before touching the (possibly
    // caller-owned) request policy again — the historic single-job
    // contract.  Each job has its own policy state, so the deferral is
    // otherwise unobservable.
    for (const std::size_t i : feedback_) {
      JobRuntime& st = batch.jobs[i];
      batch.desire[i] = st.request->next_request(st.trace.quanta.back());
    }
    if (config_.quantum_length_policy != nullptr && remaining > 0) {
      length_ = config_.quantum_length_policy->next_length(
          qlen.finish(quanta, now - length, length, pool));
      if (length_ < 1) {
        throw std::logic_error(
            std::string(config_.context) +
            ": quantum-length policy returned length < 1");
      }
    }
  }
}

SimResult run_per_job_quanta(JobBatch& batch, const IntakeTotals& totals,
                             const sched::ExecutionPolicy& execution,
                             alloc::Allocator& allocator,
                             const CoreConfig& config) {
  const bool faulty = config.faults != nullptr && !config.faults->empty();
  std::optional<FaultSession> session;
  if (faulty) {
    session.emplace(allocator, *config.faults);
  }
  alloc::Allocator& machine = faulty ? session->faulty_allocator : allocator;
  const dag::Steps max_steps = config.max_steps;
  obs::EventBus* const bus = active_bus(config);
  if (bus != nullptr) {
    publish_intake(bus, config.processors, config.quantum_length,
                   traces_of(batch));
  }

  // Each job's boundary schedule is its own, so each job gets its own
  // quantum-length policy state (a clone of the run's prototype).
  for (JobRuntime& st : batch.jobs) {
    st.quantum_target = config.quantum_length;
    if (config.quantum_length_policy != nullptr) {
      st.quantum_policy = config.quantum_length_policy->clone();
      st.quantum_policy->reset();
    }
  }
  SimResult result;
  result.averaged_allotments = true;
  if (faulty) {
    result.fault_log.enabled = true;
    result.fault_log.min_capacity = config.processors;
  }
  fault::FaultLog& log = result.fault_log;
  dag::Steps now = 0;
  bool partition_dirty = true;
  LifecycleIndex index(batch);
  const std::vector<std::size_t>& active = index.active();
  // Repartition scratch: the active slots' requests and sizes.
  std::vector<int> requests;
  std::vector<double> sized;
  std::size_t remaining = totals.remaining;

  // Rounded-up allotted cycles of the in-flight quantum, matching how
  // finalize_quantum will record it in the trace.
  auto rounded_cycles = [](const JobRuntime& st) {
    const dag::TaskCount procs =
        (st.held_cycles + st.quantum_target - 1) / st.quantum_target;
    return procs * static_cast<dag::TaskCount>(st.quantum_target);
  };

  // Appends the in-flight quantum's record to the trace and returns it.
  auto finalize_quantum = [&](std::size_t i,
                              bool finished) -> sched::QuantumStats& {
    JobRuntime& st = batch.jobs[i];
    sched::QuantumStats stats;
    stats.index = st.local_quantum;
    stats.start_step = st.quantum_start;
    stats.request = batch.desire[i];
    stats.length = st.quantum_target;
    stats.steps_used = finished ? st.quantum_elapsed : st.quantum_target;
    stats.work = st.job->completed_work() - st.work_before;
    stats.cpl = st.job->level_progress() - st.progress_before;
    stats.finished = finished;
    // Time-averaged processors held, rounded UP so work <= allotment *
    // length stays invariant; the exact waste is accumulated separately.
    stats.allotment = static_cast<int>(
        (st.held_cycles + st.quantum_target - 1) / st.quantum_target);
    stats.request = std::max(stats.request, stats.allotment);
    stats.available = stats.allotment;
    stats.full = !finished && st.idle_steps == 0 && stats.allotment > 0;
    if (faulty) {
      // Mirror the trace's rounded accounting so the balance identity
      // holds exactly against total_allotted()/total_waste().
      log.allotted_cycles += static_cast<dag::TaskCount>(stats.allotment) *
                             static_cast<dag::TaskCount>(st.quantum_target);
    }
    st.trace.quanta.push_back(stats);
    return st.trace.quanta.back();
  };

  // Opens a fresh quantum for the job at the current step.
  auto begin_quantum = [&](JobRuntime& st) {
    st.quantum_start = now;
    st.quantum_elapsed = 0;
    st.work_before = st.job->completed_work();
    st.progress_before = st.job->level_progress();
    st.held_cycles = 0;
    st.idle_cycles = 0;
    st.idle_steps = 0;
  };

  while (remaining > 0) {
    util::throw_if_cancelled(config.cancel, config.context);
    // Consume fault events for the unit step [now, now + 1).  Strides end
    // at the next event step, so none falls inside one.  Events in ranges
    // skipped by the idle fast-path are consumed lazily on the next
    // iteration, which is sound: failures/repairs net out and a crash can
    // only hit an active job.
    if (faulty) {
      const fault::WindowFaults window = session->injector.advance(now, now + 1);
      log_window_events(window, log, bus);
      log.min_capacity = std::min(
          log.min_capacity, session->injector.capacity(config.processors));
      if (window.capacity_changed) {
        partition_dirty = true;
      }
      for (const fault::FaultEvent& e : window.crashes) {
        const auto j = static_cast<std::size_t>(e.job);
        if (j >= batch.size() || !batch.active(j)) {
          continue;  // crash of an inactive job is a no-op
        }
        JobRuntime& st = batch.jobs[j];
        fault::CrashRecord record;
        record.job = j;
        record.step = now;
        if (config.faults->work_loss == fault::WorkLoss::kCheckpointQuantum) {
          // The work executed so far survives (there is no rollback in a
          // live DAG): close the in-flight quantum early as a checkpoint.
          sched::QuantumStats& stats =
              finalize_quantum(j, /*finished=*/false);
          stats.steps_used = st.quantum_elapsed;
          stats.full = false;
          if (bus != nullptr) {
            publish_quantum(bus, batch.id[j], stats);
          }
        } else {
          // Restart from scratch: the whole trace so far, including the
          // in-flight quantum, is discarded and the job restarts fresh.
          record.lost_work = st.job->completed_work();
          record.discarded_cycles =
              st.trace.total_allotted() + rounded_cycles(st);
          log.allotted_cycles += rounded_cycles(st);
          st.restart_from_scratch();
          st.trace.quanta.clear();
        }
        if (config.faults->policy_on_restart ==
            fault::PolicyOnRestart::kReset) {
          st.request->reset();
          if (st.quantum_policy) {
            st.quantum_policy->reset();
          }
          st.resumed = false;
        } else {
          st.resumed = true;  // re-admission keeps the preserved desire
        }
        commit_crash(log, record);
        batch.regime[j] = JobRegime::kQueued;
        batch.allotment[j] = 0;
        batch.previous_allotment[j] = 0;
        st.migration_debt = 0;
        batch.eligible_step[j] = now + 1 + config.faults->restart_delay;
        index.enqueue(batch, j);
        if (bus != nullptr) {
          publish_crash(bus, batch.id[j], now, record, batch.eligible_step[j]);
        }
        partition_dirty = true;
      }
      index.drop_inactive(batch);
    }

    // Admission, FCFS by eligible (release or post-crash restart) step.
    while (active.size() < config.max_active) {
      const std::size_t best = index.pop_admissible(batch, now);
      if (best == batch.size()) {
        break;
      }
      admit(batch, index, best, now, bus);
      JobRuntime& st = batch.jobs[best];
      // Continues the trace after a checkpoint crash; 1 on first
      // admission and after a from-scratch restart.
      st.local_quantum =
          static_cast<std::int64_t>(st.trace.quanta.size()) + 1;
      if (st.quantum_policy && st.local_quantum == 1) {
        st.quantum_target = st.quantum_policy->initial_length();
      }
      begin_quantum(st);
      partition_dirty = true;
    }

    if (active.empty()) {
      // Idle-skip to the next eligibility boundary.
      now = std::max(now + 1, index.next_eligible(batch, max_steps));
      if (now >= max_steps) {
        throw std::runtime_error(std::string(config.context) +
                                 ": step bound hit");
      }
      continue;
    }

    // Re-partition on any event.
    if (partition_dirty) {
      requests.clear();
      for (const std::size_t i : active) {
        requests.push_back(batch.desire[i]);
      }
      const std::vector<int> allotments = machine.allocate_slots(
          active, requests,
          machine.size_aware() ? &remaining_work(batch, active, sized)
                               : nullptr,
          batch.size(), config.processors);
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::size_t i = active[k];
        if (config.reallocation_cost_per_proc > 0) {
          // A repartition that moves this job's processors charges
          // cost·|Δa| migration steps, accumulated as debt and capped at
          // one quantum — the unit-step realization of the synchronous
          // engine's up-front penalty.
          JobRuntime& st = batch.jobs[i];
          const dag::Steps penalty = reallocation_penalty(
              batch.previous_allotment[i], allotments[k],
              config.reallocation_cost_per_proc, st.quantum_target);
          st.migration_debt =
              std::min(st.quantum_target, st.migration_debt + penalty);
        }
        batch.previous_allotment[i] = allotments[k];
        batch.allotment[i] = allotments[k];
      }
      if (bus != nullptr) {
        publish_allocation(bus, now, machine.pool(config.processors),
                           allotments,
                           static_cast<std::int64_t>(active.size()));
      }
      partition_dirty = false;
    }

    // Plan the stride: the longest span guaranteed event-free, so jumping
    // it wholesale is indistinguishable from running it step by step.
    // Unit strides in the reference mode (skip_ahead off) and whenever an
    // active job has no phase view.
    dag::Steps stride = 1;
    if (config.skip_ahead) {
      stride = max_steps - now;  // the bound check below fires on time
      for (const std::size_t i : active) {
        JobRuntime& st = batch.jobs[i];
        // Next boundary of this job's own quantum clock.
        stride = std::min(stride, st.quantum_target - st.quantum_elapsed);
        const dag::PhaseView view = st.job->phase_view();
        if (view.runs == nullptr) {
          stride = 1;
          break;
        }
        // Next completion: migration debt delays execution, then the
        // phase walk gives the exact finish distance (cap+1 = "not
        // within the stride", which leaves the stride unconstrained).
        const int allot = batch.allotment[i];
        if (allot > 0 && st.migration_debt < stride) {
          const dag::Steps cap = stride - st.migration_debt;
          const dag::Steps fin =
              quantum_eval::steps_to_finish(view, allot, cap);
          if (fin <= cap) {
            stride = std::min(stride, st.migration_debt + fin);
          }
        }
      }
      if (active.size() < config.max_active) {
        // Next admission: every queued job becomes eligible strictly in
        // the future (the drain above admitted the rest).  At the cap this
        // cannot constrain the stride — a slot only frees at a completion,
        // which already bounds it.
        stride = index.next_eligible(batch, now + stride) - now;
      }
      if (faulty) {
        // Next fault event or revocation expiry.  A revocation consumed
        // late, after an idle skip, can have ended already; the unit step
        // then lets the next window erase it and repartition.
        stride = std::max<dag::Steps>(
            1, session->injector.next_change(now + stride) - now);
      }
      assert(stride >= 1);
    }

    // Advance every active job by the stride in closed form.  The planner
    // guarantees no job finishes strictly inside the span, so run_quantum
    // consumes it fully; a unit stride is exactly one step().
    for (const std::size_t i : active) {
      JobRuntime& st = batch.jobs[i];
      const int allot = batch.allotment[i];
      const dag::Steps debt = std::min(stride, st.migration_debt);
      if (debt > 0) {
        // Migration steps: the job holds its allotment but executes
        // nothing, so the cycles land in idle_cycles (waste).
        st.migration_debt -= debt;
        const dag::TaskCount held =
            mul_cycles_checked(allot, debt, config.context);
        add_cycles_checked(st.held_cycles, held, config.context);
        add_cycles_checked(st.idle_cycles, held, config.context);
        st.idle_steps += debt;
      }
      const dag::Steps run = stride - debt;
      if (run > 0) {
        const dag::QuantumExecution exec =
            st.job->run_quantum(allot, run, execution.order());
        assert(exec.steps == run);
        const dag::TaskCount held =
            mul_cycles_checked(allot, run, config.context);
        add_cycles_checked(st.held_cycles, held, config.context);
        add_cycles_checked(st.idle_cycles, held - exec.work, config.context);
        st.idle_steps += exec.idle_steps;
      }
      st.quantum_elapsed += stride;
    }
    now += stride;
    result.quanta += stride;  // counts unit steps of engine activity

    // Post-step events: completions and quantum boundaries.
    for (const std::size_t i : active) {
      JobRuntime& st = batch.jobs[i];
      if (st.job->finished()) {
        const sched::QuantumStats& stats =
            finalize_quantum(i, /*finished=*/true);
        st.trace.completion_step = now;
        batch.regime[i] = JobRegime::kDone;
        --remaining;
        if (bus != nullptr) {
          publish_quantum(bus, batch.id[i], stats);
          publish_complete(bus, batch.id[i], now);
        }
        partition_dirty = true;
        continue;
      }
      if (st.quantum_elapsed == st.quantum_target) {
        const sched::QuantumStats& stats =
            finalize_quantum(i, /*finished=*/false);
        if (bus != nullptr) {
          publish_quantum(bus, batch.id[i], stats);
        }
        batch.desire[i] = st.request->next_request(stats);
        if (st.quantum_policy) {
          st.quantum_target = st.quantum_policy->next_length(stats);
          if (st.quantum_target < 1) {
            throw std::logic_error(
                std::string(config.context) +
                ": quantum-length policy returned length < 1");
          }
        }
        ++st.local_quantum;
        begin_quantum(st);
        partition_dirty = true;
      }
    }
    index.drop_inactive(batch);

    if (remaining > 0 && now >= max_steps) {
      throw std::runtime_error(std::string(config.context) +
                               ": exceeded step bound");
    }
  }

  aggregate_result(batch, result);
  publish_run_end(bus, result.makespan);
  return result;
}

}  // namespace abg::sim
