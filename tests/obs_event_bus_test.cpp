#include "obs/event_bus.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "fault/fault_plan.hpp"
#include "sim/trace_io.hpp"
#include "workload/profiles.hpp"

namespace abg::obs {
namespace {

/// Copies every event kind (and the quantum count) for assertions.
class RecordingSink final : public Sink {
 public:
  void on_event(const Event& event) override {
    kinds.push_back(event.kind);
    if (event.kind == EventKind::kQuantum) {
      quantum_events.push_back(*event.stats);
    }
  }

  std::vector<EventKind> kinds;
  std::vector<sched::QuantumStats> quantum_events;
};

TEST(EventBus, InactiveUntilSubscribed) {
  EventBus bus;
  EXPECT_FALSE(bus.active());
  bus.subscribe(nullptr);  // Ignored.
  EXPECT_FALSE(bus.active());
  RecordingSink sink;
  bus.subscribe(&sink);
  EXPECT_TRUE(bus.active());
}

TEST(EventBus, FansOutInSubscriptionOrder) {
  EventBus bus;
  std::vector<int> order;
  class OrderSink final : public Sink {
   public:
    OrderSink(std::vector<int>& log, int id) : log_(&log), id_(id) {}
    void on_event(const Event&) override { log_->push_back(id_); }

   private:
    std::vector<int>* log_;
    int id_;
  };
  OrderSink first(order, 1);
  OrderSink second(order, 2);
  bus.subscribe(&first);
  bus.subscribe(&second);
  bus.publish(Event{});
  bus.publish(Event{});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(EventBus, BusesChain) {
  // An EventBus is a Sink, so a run's private bus can forward into an
  // outer one (the sweep runner relies on this).
  EventBus outer;
  RecordingSink sink;
  outer.subscribe(&sink);
  EventBus inner;
  inner.subscribe(&outer);
  Event event;
  event.kind = EventKind::kRunEnd;
  inner.publish(event);
  ASSERT_EQ(sink.kinds.size(), 1u);
  EXPECT_EQ(sink.kinds[0], EventKind::kRunEnd);
}

sim::SimConfig faulted_config(const fault::FaultPlan* plan,
                              sim::EngineKind engine) {
  sim::SimConfig config{.processors = 8, .quantum_length = 20};
  config.faults = plan;
  config.engine = engine;
  return config;
}

std::vector<sim::JobSubmission> two_job_set() {
  std::vector<sim::JobSubmission> subs;
  for (int j = 0; j < 2; ++j) {
    sim::JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
        workload::square_wave_profile(2, 24, 8, 40, 3)));
    subs.push_back(std::move(s));
  }
  return subs;
}

std::string result_fingerprint(const sim::SimResult& result) {
  std::stringstream out;
  out << "makespan " << result.makespan << '\n';
  for (const sim::JobTrace& t : result.jobs) {
    out << "job " << t.release_step << ' ' << t.completion_step << ' '
        << t.work << ' ' << t.critical_path << ' ' << t.total_waste() << ' '
        << t.quanta.size() << '\n';
    sim::write_trace_csv(out, t);
  }
  return out.str();
}

class BusIdentity : public testing::TestWithParam<sim::EngineKind> {};

TEST_P(BusIdentity, AttachingSinksDoesNotChangeResults) {
  // The observation-only contract: a run with a recording bus attached is
  // byte-identical to the same run without one.
  fault::FaultPlan plan = fault::periodic_crash_plan(0, 30, 90, 2);
  const sim::SimResult bare = core::run_set(
      core::abg_spec(), two_job_set(), faulted_config(&plan, GetParam()));

  EventBus bus;
  RecordingSink sink;
  bus.subscribe(&sink);
  sim::SimConfig observed_config = faulted_config(&plan, GetParam());
  observed_config.obs.event_bus = &bus;
  const sim::SimResult observed =
      core::run_set(core::abg_spec(), two_job_set(), observed_config);

  EXPECT_EQ(result_fingerprint(bare), result_fingerprint(observed));

  // The stream brackets the run and reports every lifecycle stage.
  ASSERT_FALSE(sink.kinds.empty());
  EXPECT_EQ(sink.kinds.front(), EventKind::kRunStart);
  EXPECT_EQ(sink.kinds.back(), EventKind::kRunEnd);
  const auto count = [&sink](EventKind kind) {
    std::size_t n = 0;
    for (EventKind k : sink.kinds) {
      n += (k == kind) ? 1u : 0u;
    }
    return n;
  };
  EXPECT_EQ(count(EventKind::kJobSubmit), observed.jobs.size());
  EXPECT_EQ(count(EventKind::kJobComplete), observed.jobs.size());
  EXPECT_EQ(count(EventKind::kJobCrash), observed.fault_log.crashes.size());
  EXPECT_GE(observed.fault_log.crashes.size(), 1u);
  EXPECT_GE(count(EventKind::kAllocation), 1u);
  // Under checkpoint semantics nothing is voided retroactively, so the
  // published quanta are exactly what the traces retained.
  std::size_t traced = 0;
  for (const sim::JobTrace& trace : observed.jobs) {
    traced += trace.quanta.size();
  }
  EXPECT_EQ(sink.quantum_events.size(), traced);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, BusIdentity,
                         testing::Values(sim::EngineKind::kSync,
                                         sim::EngineKind::kAsync),
                         [](const auto& param_info) {
                           return std::string(
                               sim::to_string(param_info.param));
                         });

}  // namespace
}  // namespace abg::obs
