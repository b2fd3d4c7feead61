// Tracing from outside the library for the wall-clock benchmark.
//
// The benchmark times the library's layers from outside: every public
// interface the engines call back into (dag::Job, alloc::Allocator,
// sched::RequestPolicy, open::JobFactory, obs::Sink) is wrapped in a
// decorator that forwards each call unchanged and records a span around
// it.  The library needs no hooks of its own, and the decorators are
// transparent: the traced run's simulated digest must equal the untraced
// run's.
//
// Spans are recorded per thread (the sharded and cluster drivers call
// into allocators, request policies and jobs from pool workers).  Each
// thread keeps a small span stack, so a layer's self time is its span
// time minus the spans of its children on the same thread.  Per-call
// records are kept in memory while `record_calls` is on and written out
// by write_calls() when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>
#include <vector>

#include "alloc/allocator.hpp"
#include "dag/job.hpp"
#include "obs/event_bus.hpp"
#include "open/streaming_engine.hpp"
#include "sched/request_policy.hpp"

namespace wallbench {

/// Traced layers.  kRun is the root span around one simulator call (the
/// sim engine for closed sets, the open streaming driver for open runs).
enum class Layer : std::uint8_t {
  kRun,
  kDagRunQuantum,
  kDagStep,
  kAllocate,
  kNextRequest,
  kFactory,
  kSink,
  kCount,
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

std::string_view layer_name(Layer layer);

/// One recorded call: nanoseconds since the recorder's epoch.
struct CallRecord {
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::uint32_t thread = 0;
  Layer layer = Layer::kRun;
};

/// Per-layer totals summed over every thread.
struct LayerTotals {
  std::array<std::int64_t, kLayerCount> calls{};
  std::array<std::int64_t, kLayerCount> span_ns{};
  std::array<std::int64_t, kLayerCount> self_ns{};
  /// Σ request-vector length and Σ non-zero requests over allocate calls.
  std::int64_t request_slots = 0;
  std::int64_t nonzero_requests = 0;
  /// Σ T∞ of the jobs the factory built.
  std::int64_t factory_levels = 0;
  /// Time spent counting requests: tracing cost, not any layer's.
  std::int64_t bookkeeping_ns = 0;

  double seconds(Layer layer) const {
    return static_cast<double>(self_ns[static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  std::int64_t count(Layer layer) const {
    return calls[static_cast<std::size_t>(layer)];
  }
};

struct ThreadBuffer;

/// Collects spans from any number of threads.  Buffers are registered on
/// a thread's first span and owned here, so they outlive the pool
/// workers that filled them.
class Recorder {
 public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// While true, every span is also kept as a CallRecord.
  void set_record_calls(bool on) { record_calls_ = on; }

  /// RAII span on the calling thread.
  class Span {
   public:
    Span(Recorder& recorder, Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    ThreadBuffer* buffer_;
    Layer layer_;
    /// Index of this span's CallRecord, or npos when not recording.
    std::size_t record_ = static_cast<std::size_t>(-1);
    std::chrono::steady_clock::time_point start_;
  };

  void add_request_vector(const std::vector<int>& requests);
  void add_factory_levels(std::int64_t levels);

  /// Totals over every thread so far.
  LayerTotals totals() const;

  /// Writes every kept call record as CSV (layer,thread,start_ns,
  /// duration_ns), in per-thread order.  Returns the number of rows.
  std::size_t write_calls(std::ostream& os) const;

 private:
  friend class Span;
  ThreadBuffer& buffer();

  std::uint64_t id_;
  bool record_calls_ = false;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Forwards every dag::Job method; run_quantum and step are timed.
class TracedJob final : public abg::dag::Job {
 public:
  TracedJob(std::unique_ptr<abg::dag::Job> inner, Recorder& recorder);

  bool finished() const override { return inner_->finished(); }
  abg::dag::TaskCount step(int procs, abg::dag::PickOrder order) override;
  abg::dag::QuantumExecution run_quantum(int procs, abg::dag::Steps budget,
                                         abg::dag::PickOrder order) override;
  abg::dag::TaskCount total_work() const override {
    return inner_->total_work();
  }
  abg::dag::Steps critical_path() const override {
    return inner_->critical_path();
  }
  abg::dag::TaskCount completed_work() const override {
    return inner_->completed_work();
  }
  double level_progress() const override { return inner_->level_progress(); }
  abg::dag::TaskCount ready_count() const override {
    return inner_->ready_count();
  }
  abg::dag::PhaseView phase_view() const override {
    return inner_->phase_view();
  }
  std::unique_ptr<abg::dag::Job> fresh_clone() const override;

 private:
  std::unique_ptr<abg::dag::Job> inner_;
  Recorder* recorder_;
};

/// Forwards to the wrapped allocator; allocate and allocate_sized are
/// timed.  Clones (the sharded and cluster drivers clone one allocator per
/// group or machine) record into the same recorder.
class TracedAllocator final : public abg::alloc::Allocator {
 public:
  TracedAllocator(std::unique_ptr<abg::alloc::Allocator> inner,
                  Recorder& recorder);

  std::vector<int> allocate(const std::vector<int>& requests,
                            int total_processors) override;
  std::vector<int> allocate_sized(const std::vector<int>& requests,
                                  const std::vector<double>& remaining,
                                  int total_processors) override;
  int pool(int total_processors) const override {
    return inner_->pool(total_processors);
  }
  void reset() override { inner_->reset(); }
  bool size_aware() const override { return inner_->size_aware(); }
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<abg::alloc::Allocator> clone() const override;

 private:
  std::unique_ptr<abg::alloc::Allocator> inner_;
  Recorder* recorder_;
};

/// Forwards to the wrapped request policy; next_request is timed.  The
/// engines clone the prototype once per job, and every clone records into
/// the same recorder.
class TracedRequestPolicy final : public abg::sched::RequestPolicy {
 public:
  TracedRequestPolicy(std::unique_ptr<abg::sched::RequestPolicy> inner,
                      Recorder& recorder);

  int first_request() const override { return inner_->first_request(); }
  int next_request(const abg::sched::QuantumStats& completed) override;
  void reset() override { inner_->reset(); }
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<abg::sched::RequestPolicy> clone() const override;

 private:
  std::unique_ptr<abg::sched::RequestPolicy> inner_;
  Recorder* recorder_;
};

/// Counts and times every event delivered to it.
class CountingSink final : public abg::obs::Sink {
 public:
  explicit CountingSink(Recorder& recorder) : recorder_(&recorder) {}
  void on_event(const abg::obs::Event& event) override;

 private:
  Recorder* recorder_;
};

/// Wraps an open-engine job factory: each call is timed, the T∞ of the
/// built job is tallied, and the job is returned inside a TracedJob.
abg::open::JobFactory traced_factory(abg::open::JobFactory inner,
                                     Recorder& recorder);

}  // namespace wallbench
