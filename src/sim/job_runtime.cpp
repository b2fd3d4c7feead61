#include "sim/job_runtime.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace abg::sim {

LifecycleIndex::LifecycleIndex(const JobBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch.regime[i] == JobRegime::kQueued) {
      eligible_.emplace_back(batch.eligible_step[i], i);
    } else if (batch.active(i)) {
      active_.push_back(i);
    }
  }
  std::make_heap(eligible_.begin(), eligible_.end(), std::greater<>{});
}

void LifecycleIndex::enqueue(const JobBatch& batch, std::size_t i) {
  eligible_.emplace_back(batch.eligible_step[i], i);
  std::push_heap(eligible_.begin(), eligible_.end(), std::greater<>{});
}

void LifecycleIndex::drop_stale(const JobBatch& batch) {
  while (!eligible_.empty()) {
    const auto [step, i] = eligible_.front();
    if (batch.regime[i] == JobRegime::kQueued &&
        batch.eligible_step[i] == step) {
      return;
    }
    std::pop_heap(eligible_.begin(), eligible_.end(), std::greater<>{});
    eligible_.pop_back();
  }
}

std::size_t LifecycleIndex::pop_admissible(const JobBatch& batch,
                                           dag::Steps now) {
  drop_stale(batch);
  if (eligible_.empty() || eligible_.front().first > now) {
    return batch.size();
  }
  const std::size_t best = eligible_.front().second;
  std::pop_heap(eligible_.begin(), eligible_.end(), std::greater<>{});
  eligible_.pop_back();
  return best;
}

dag::Steps LifecycleIndex::next_eligible(const JobBatch& batch,
                                         dag::Steps bound) {
  drop_stale(batch);
  return eligible_.empty() ? bound : std::min(bound, eligible_.front().first);
}

void LifecycleIndex::activate(std::size_t i) {
  active_.insert(std::upper_bound(active_.begin(), active_.end(), i), i);
}

void LifecycleIndex::drop_inactive(const JobBatch& batch) {
  std::erase_if(active_, [&batch](std::size_t i) { return !batch.active(i); });
}

JobBatch intake_submissions(std::vector<JobSubmission> submissions,
                            const sched::RequestPolicy& request_prototype,
                            const char* context, IntakeTotals& totals) {
  JobBatch batch;
  batch.jobs.reserve(submissions.size());
  for (auto& sub : submissions) {
    if (!sub.job) {
      throw std::invalid_argument(std::string(context) + ": null job");
    }
    if (sub.release_step < 0) {
      throw std::invalid_argument(std::string(context) +
                                  ": negative release step");
    }
    JobRuntime st;
    st.owned_job = std::move(sub.job);
    st.job = st.owned_job.get();
    st.owned_request = request_prototype.clone();
    st.request = st.owned_request.get();
    st.request->reset();
    st.trace.release_step = sub.release_step;
    st.trace.work = st.job->total_work();
    st.trace.critical_path = st.job->critical_path();
    totals.total_work += st.trace.work;
    totals.latest_release = std::max(totals.latest_release, sub.release_step);
    const bool finished = st.job->finished();
    if (finished) {  // zero-work job
      st.trace.completion_step = sub.release_step;
    }
    const std::size_t i = batch.append(std::move(st));
    batch.eligible_step[i] = sub.release_step;
    if (finished) {
      batch.regime[i] = JobRegime::kDone;
    }
  }
  totals.remaining = static_cast<std::size_t>(
      std::count_if(batch.regime.begin(), batch.regime.end(),
                    [](JobRegime r) { return r != JobRegime::kDone; }));
  return batch;
}

}  // namespace abg::sim
