#include "dag/characteristics.hpp"

#include <gtest/gtest.h>

#include "dag/builders.hpp"
#include "dag/profile_job.hpp"

namespace abg::dag {
namespace {

TEST(Characteristics, ProfileJobValues) {
  ProfileJob job({1, 8, 1, 4});
  const JobCharacteristics c = characteristics_of(job);
  EXPECT_EQ(c.work, 14);
  EXPECT_EQ(c.critical_path, 4);
  EXPECT_DOUBLE_EQ(c.average_parallelism, 14.0 / 4.0);
  EXPECT_EQ(c.max_level_width, 8);
}

TEST(Characteristics, DagJobValues) {
  DagJob job{builders::diamond(5)};
  const JobCharacteristics c = characteristics_of(job);
  EXPECT_EQ(c.work, 7);
  EXPECT_EQ(c.critical_path, 3);
  EXPECT_DOUBLE_EQ(c.average_parallelism, 7.0 / 3.0);
  EXPECT_EQ(c.max_level_width, 5);
}

TEST(Characteristics, EmptyJob) {
  ProfileJob job({});
  const JobCharacteristics c = characteristics_of(job);
  EXPECT_EQ(c.work, 0);
  EXPECT_EQ(c.critical_path, 0);
  EXPECT_DOUBLE_EQ(c.average_parallelism, 0.0);
}

}  // namespace
}  // namespace abg::dag
