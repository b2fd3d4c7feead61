#include "tracing.hpp"

#include <atomic>
#include <utility>

namespace wallbench {

/// One thread's counters, span stack and kept call records.  Only the
/// owning thread writes it; totals() reads it after the run has joined
/// its workers.
struct ThreadBuffer {
  std::uint32_t thread = 0;
  LayerTotals totals;
  /// Child span time accumulated under each open span.
  std::vector<std::int64_t> child_ns;
  std::vector<CallRecord> calls;
};

namespace {

std::atomic<std::uint64_t> next_recorder_id{1};

thread_local std::uint64_t tl_owner = 0;
thread_local ThreadBuffer* tl_buffer = nullptr;

}  // namespace

std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRun:
      return "run";
    case Layer::kDagRunQuantum:
      return "dag.run_quantum";
    case Layer::kDagStep:
      return "dag.step";
    case Layer::kAllocate:
      return "alloc.allocate";
    case Layer::kNextRequest:
      return "sched.next_request";
    case Layer::kFactory:
      return "workload.factory";
    case Layer::kSink:
      return "obs.sink";
    case Layer::kCount:
      break;
  }
  return "?";
}

Recorder::Recorder()
    : id_(next_recorder_id.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

Recorder::~Recorder() = default;

ThreadBuffer& Recorder::buffer() {
  if (tl_owner != id_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    tl_buffer = buffers_.back().get();
    tl_owner = id_;
  }
  return *tl_buffer;
}

Recorder::Span::Span(Recorder& recorder, Layer layer)
    : buffer_(&recorder.buffer()),
      layer_(layer),
      start_(std::chrono::steady_clock::now()) {
  buffer_->child_ns.push_back(0);
  if (recorder.record_calls_) {
    record_ = buffer_->calls.size();
    buffer_->calls.push_back(
        {std::chrono::duration_cast<std::chrono::nanoseconds>(
             start_ - recorder.epoch_)
             .count(),
         -1, buffer_->thread, layer});
  }
}

Recorder::Span::~Span() {
  const std::int64_t duration =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  const auto l = static_cast<std::size_t>(layer_);
  LayerTotals& totals = buffer_->totals;
  ++totals.calls[l];
  totals.span_ns[l] += duration;
  totals.self_ns[l] += duration - buffer_->child_ns.back();
  buffer_->child_ns.pop_back();
  if (!buffer_->child_ns.empty()) {
    buffer_->child_ns.back() += duration;
  }
  if (record_ < buffer_->calls.size()) {
    buffer_->calls[record_].duration_ns = duration;
  }
}

void Recorder::add_request_vector(const std::vector<int>& requests) {
  const auto start = std::chrono::steady_clock::now();
  LayerTotals& totals = buffer().totals;
  totals.request_slots += static_cast<std::int64_t>(requests.size());
  for (const int r : requests) {
    totals.nonzero_requests += r != 0 ? 1 : 0;
  }
  totals.bookkeeping_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
}

void Recorder::add_factory_levels(std::int64_t levels) {
  buffer().totals.factory_levels += levels;
}

LayerTotals Recorder::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  LayerTotals sum;
  for (const auto& b : buffers_) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      sum.calls[l] += b->totals.calls[l];
      sum.span_ns[l] += b->totals.span_ns[l];
      sum.self_ns[l] += b->totals.self_ns[l];
    }
    sum.request_slots += b->totals.request_slots;
    sum.nonzero_requests += b->totals.nonzero_requests;
    sum.factory_levels += b->totals.factory_levels;
    sum.bookkeeping_ns += b->totals.bookkeeping_ns;
  }
  return sum;
}

std::size_t Recorder::write_calls(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  os << "layer,thread,start_ns,duration_ns\n";
  std::size_t rows = 0;
  for (const auto& b : buffers_) {
    for (const CallRecord& c : b->calls) {
      os << layer_name(c.layer) << ',' << c.thread << ',' << c.start_ns << ','
         << c.duration_ns << '\n';
      ++rows;
    }
  }
  return rows;
}

TracedJob::TracedJob(std::unique_ptr<abg::dag::Job> inner, Recorder& recorder)
    : inner_(std::move(inner)), recorder_(&recorder) {}

abg::dag::TaskCount TracedJob::step(int procs, abg::dag::PickOrder order) {
  const Recorder::Span span(*recorder_, Layer::kDagStep);
  return inner_->step(procs, order);
}

abg::dag::QuantumExecution TracedJob::run_quantum(int procs,
                                                  abg::dag::Steps budget,
                                                  abg::dag::PickOrder order) {
  const Recorder::Span span(*recorder_, Layer::kDagRunQuantum);
  return inner_->run_quantum(procs, budget, order);
}

std::unique_ptr<abg::dag::Job> TracedJob::fresh_clone() const {
  return std::make_unique<TracedJob>(inner_->fresh_clone(), *recorder_);
}

TracedAllocator::TracedAllocator(std::unique_ptr<abg::alloc::Allocator> inner,
                                 Recorder& recorder)
    : inner_(std::move(inner)), recorder_(&recorder) {}

std::vector<int> TracedAllocator::allocate(const std::vector<int>& requests,
                                           int total_processors) {
  recorder_->add_request_vector(requests);
  const Recorder::Span span(*recorder_, Layer::kAllocate);
  return inner_->allocate(requests, total_processors);
}

std::vector<int> TracedAllocator::allocate_sized(
    const std::vector<int>& requests, const std::vector<double>& remaining,
    int total_processors) {
  recorder_->add_request_vector(requests);
  const Recorder::Span span(*recorder_, Layer::kAllocate);
  return inner_->allocate_sized(requests, remaining, total_processors);
}

std::unique_ptr<abg::alloc::Allocator> TracedAllocator::clone() const {
  return std::make_unique<TracedAllocator>(inner_->clone(), *recorder_);
}

TracedRequestPolicy::TracedRequestPolicy(
    std::unique_ptr<abg::sched::RequestPolicy> inner, Recorder& recorder)
    : inner_(std::move(inner)), recorder_(&recorder) {}

int TracedRequestPolicy::next_request(
    const abg::sched::QuantumStats& completed) {
  const Recorder::Span span(*recorder_, Layer::kNextRequest);
  return inner_->next_request(completed);
}

std::unique_ptr<abg::sched::RequestPolicy> TracedRequestPolicy::clone() const {
  return std::make_unique<TracedRequestPolicy>(inner_->clone(), *recorder_);
}

void CountingSink::on_event(const abg::obs::Event& event) {
  const Recorder::Span span(*recorder_, Layer::kSink);
  (void)event;
}

abg::open::JobFactory traced_factory(abg::open::JobFactory inner,
                                     Recorder& recorder) {
  return [inner = std::move(inner), rec = &recorder](
             abg::util::Rng& rng, const abg::open::Arrival& arrival)
             -> std::unique_ptr<abg::dag::Job> {
    std::unique_ptr<abg::dag::Job> job;
    {
      const Recorder::Span span(*rec, Layer::kFactory);
      job = inner(rng, arrival);
    }
    rec->add_factory_levels(job->critical_path());
    return std::make_unique<TracedJob>(std::move(job), *rec);
  };
}

}  // namespace wallbench
