#include "sim/job_runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace abg::sim {

std::size_t JobBatch::next_admission(dag::Steps now) const {
  std::size_t best = size();
  for (std::size_t i = 0; i < size(); ++i) {
    if (regime[i] != JobRegime::kQueued || eligible_step[i] > now) {
      continue;
    }
    if (best == size() || eligible_step[i] < eligible_step[best]) {
      best = i;
    }
  }
  return best;
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
