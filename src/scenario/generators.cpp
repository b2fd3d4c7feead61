#include "scenario/generators.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "dag/profile_job.hpp"
#include "workload/arrivals.hpp"
#include "workload/profiles.hpp"

namespace abg::scenario {

namespace {

/// Hard cap on a single generated job's profile length.  Scenario files
/// are external input; a typoed work target must fail loudly instead of
/// quietly generating a job many orders of magnitude too long.
constexpr std::size_t kMaxLevelsPerJob = std::size_t{1} << 24;

void check_profile_size(std::size_t levels, const ScenarioSpec& spec) {
  if (levels > kMaxLevelsPerJob) {
    throw std::invalid_argument(
        "scenario '" + spec.name + "': a generated job spans " +
        std::to_string(levels) + " levels; the cap is " +
        std::to_string(kMaxLevelsPerJob) +
        " (reduce the work / levels parameters)");
  }
}

/// Scales a sampled level count by the arrival's work multiplier,
/// clamping to at least one level.
std::int64_t scale_levels(std::int64_t levels, double work_scale) {
  if (work_scale == 1.0) {
    return std::max<std::int64_t>(1, levels);
  }
  const double scaled = static_cast<double>(levels) * work_scale;
  if (scaled > 1e15) {
    throw std::invalid_argument(
        "scenario: work_scale-adjusted level count overflows");
  }
  return std::max<std::int64_t>(1, std::llround(scaled));
}

const ClassSpec& pick_class(const std::vector<ClassSpec>& classes,
                            util::Rng& rng) {
  if (classes.size() == 1) {
    return classes.front();
  }
  double total = 0.0;
  for (const ClassSpec& klass : classes) {
    total += klass.weight;
  }
  double draw = rng.uniform_real(0.0, total);
  for (const ClassSpec& klass : classes) {
    if (draw < klass.weight) {
      return klass;
    }
    draw -= klass.weight;
  }
  return classes.back();
}

void append_levels(std::vector<dag::LevelRun>& runs, std::int64_t width,
                   std::int64_t levels, const ScenarioSpec& spec) {
  std::size_t total = static_cast<std::size_t>(levels);
  for (const dag::LevelRun& run : runs) {
    total += static_cast<std::size_t>(run.levels);
  }
  check_profile_size(total, spec);
  runs.push_back(dag::LevelRun{width, levels});
}

/// The sublinear-speedup staircase: widths halve geometrically from
/// max_width down to 1, widest first, with level counts ~ w^(alpha - 2)
/// normalized so the total work matches the class's target.  With
/// alpha < 1 the work mass concentrates at narrow widths, so adding
/// processors helps sublinearly — the s(k) ~ k^alpha regime heSRPT-style
/// allocation is designed for.
std::vector<dag::LevelRun> sublinear_profile(const ScenarioSpec& spec,
                                             const ClassSpec& klass,
                                             util::Rng& rng, int processors,
                                             double work_scale) {
  std::int64_t max_width = klass.max_width.sample(rng);
  if (max_width == 0) {
    max_width = processors;
  }
  max_width = std::max<std::int64_t>(1, max_width);
  const std::int64_t work =
      scale_levels(klass.work.sample(rng), work_scale);

  std::vector<std::int64_t> stair;
  for (std::int64_t w = max_width; w >= 1; w /= 2) {
    stair.push_back(w);
    if (w == 1) {
      break;
    }
  }
  double denominator = 0.0;
  for (const std::int64_t w : stair) {
    denominator += std::pow(static_cast<double>(w), klass.alpha - 1.0);
  }
  const double scale = static_cast<double>(work) / denominator;

  std::vector<dag::LevelRun> runs;
  for (const std::int64_t w : stair) {
    const std::int64_t levels = std::max<std::int64_t>(
        1, std::llround(scale *
                        std::pow(static_cast<double>(w), klass.alpha - 2.0)));
    append_levels(runs, w, levels, spec);
  }
  return runs;
}

}  // namespace

std::vector<dag::LevelRun> sample_profile(const ScenarioSpec& spec,
                                          util::Rng& rng, int processors,
                                          dag::Steps quantum,
                                          double work_scale,
                                          std::size_t job_index,
                                          std::string* class_label) {
  if (processors < 1 || quantum < 1) {
    throw std::invalid_argument(
        "scenario: processors and quantum must be >= 1");
  }
  // Default label: the generator family (a sublinear draw refines it).
  if (class_label != nullptr) {
    *class_label = to_string(spec.generator);
  }
  std::vector<dag::LevelRun> runs;
  switch (spec.generator) {
    case GeneratorKind::kMultiphase: {
      for (const PhaseSpec& phase : spec.phases) {
        const std::int64_t width =
            std::max<std::int64_t>(1, phase.width.sample(rng));
        const std::int64_t levels =
            scale_levels(phase.levels.sample(rng), work_scale);
        append_levels(runs, width, levels, spec);
      }
      break;
    }
    case GeneratorKind::kSublinear: {
      const ClassSpec& klass = pick_class(spec.classes, rng);
      if (class_label != nullptr) {
        *class_label =
            "class" + std::to_string(&klass - spec.classes.data());
      }
      runs = sublinear_profile(spec, klass, rng, processors, work_scale);
      break;
    }
    case GeneratorKind::kMapReduce: {
      const std::int64_t maps =
          std::max<std::int64_t>(1, spec.maps.sample(rng));
      const std::int64_t map_levels =
          scale_levels(spec.map_levels.sample(rng), work_scale);
      const std::int64_t shuffle_levels =
          scale_levels(spec.shuffle_levels.sample(rng), work_scale);
      const std::int64_t reduces =
          std::max<std::int64_t>(1, spec.reduces.sample(rng));
      const std::int64_t reduce_levels =
          scale_levels(spec.reduce_levels.sample(rng), work_scale);
      append_levels(runs, maps, map_levels, spec);
      append_levels(runs, 1, shuffle_levels, spec);
      append_levels(runs, reduces, reduce_levels, spec);
      break;
    }
    case GeneratorKind::kOscillator: {
      const std::int64_t low =
          std::max<std::int64_t>(1, spec.osc_low.sample(rng));
      std::int64_t high = spec.osc_high.sample(rng);
      if (high == 0) {
        high = processors;
      }
      high = std::max<std::int64_t>(1, high);
      std::int64_t half = spec.half_period.sample(rng);
      if (half == 0) {
        // The adversarial default: phases flip exactly once per quantum,
        // so a quantum-granularity scheduler's allotment is always one
        // phase stale — the C_L-bound worst case.
        half = quantum;
      }
      const std::int64_t reps = std::max<std::int64_t>(
          1, std::llround(static_cast<double>(spec.periods.sample(rng)) *
                          work_scale));
      check_profile_size(static_cast<std::size_t>(2 * half) *
                             static_cast<std::size_t>(reps),
                         spec);
      runs = workload::square_wave_profile(
          static_cast<dag::TaskCount>(low), half,
          static_cast<dag::TaskCount>(high), half, static_cast<int>(reps));
      break;
    }
    case GeneratorKind::kExplicit: {
      const ExplicitJob& job =
          spec.explicit_jobs[job_index % spec.explicit_jobs.size()];
      for (const ExplicitPhase& phase : job.phases) {
        append_levels(runs, phase.width,
                      scale_levels(phase.levels, work_scale), spec);
      }
      break;
    }
  }
  return runs;
}

std::vector<sim::JobSubmission> generate_jobs(const ScenarioSpec& spec,
                                              util::Rng& rng, int processors,
                                              dag::Steps quantum) {
  spec.validate();
  const std::size_t count = spec.generator == GeneratorKind::kExplicit
                                ? spec.explicit_jobs.size()
                                : static_cast<std::size_t>(spec.jobs);
  std::vector<sim::JobSubmission> subs;
  subs.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    sim::JobSubmission sub;
    // The class label rides along as the submission name (unused by the
    // engines; the cluster's class-affinity router keys on it).
    sub.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
        sample_profile(spec, rng, processors, quantum, 1.0, j, &sub.name)));
    subs.push_back(std::move(sub));
  }
  // Releases are assigned after every job is generated, so the job shapes
  // are independent of the release schedule (the runner's own rule for
  // its release axis).
  if (spec.generator == GeneratorKind::kExplicit) {
    for (std::size_t j = 0; j < count; ++j) {
      subs[j].release_step = spec.explicit_jobs[j].release;
    }
  } else if (spec.release.schedule == ReleaseSchedule::kStaggered) {
    const std::vector<dag::Steps> releases = workload::staggered_releases(
        count, static_cast<dag::Steps>(spec.release.gap));
    for (std::size_t j = 0; j < count; ++j) {
      subs[j].release_step = releases[j];
    }
  } else if (spec.release.schedule == ReleaseSchedule::kPoisson) {
    const std::vector<dag::Steps> releases =
        workload::poisson_releases(rng, count, spec.release.gap);
    for (std::size_t j = 0; j < count; ++j) {
      subs[j].release_step = releases[j];
    }
  }
  return subs;
}

open::JobFactory make_open_factory(const ScenarioSpec& spec, int processors,
                                   dag::Steps quantum) {
  spec.validate();
  const auto shared = std::make_shared<const ScenarioSpec>(spec);
  return [shared, processors, quantum](
             util::Rng& rng,
             const open::Arrival& arrival) -> std::unique_ptr<dag::Job> {
    std::size_t index = 0;
    if (shared->generator == GeneratorKind::kExplicit &&
        shared->explicit_jobs.size() > 1) {
      index = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(shared->explicit_jobs.size()) - 1));
    }
    return std::make_unique<dag::ProfileJob>(
        dag::ProfileJob::from_runs(sample_profile(
            *shared, rng, processors, quantum, arrival.work_scale, index)));
  };
}

}  // namespace abg::scenario
