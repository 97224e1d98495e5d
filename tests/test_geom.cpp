#include <gtest/gtest.h>

#include "geom/distance.hpp"
#include "geom/point_set.hpp"

namespace sdb {
namespace {

TEST(PointSet, AddAndAccess) {
  PointSet ps(3);
  EXPECT_TRUE(ps.empty());
  const double a[3] = {1, 2, 3};
  const double b[3] = {4, 5, 6};
  EXPECT_EQ(ps.add(a), 0);
  EXPECT_EQ(ps.add(b), 1);
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.dim(), 3);
  EXPECT_DOUBLE_EQ(ps[0][0], 1);
  EXPECT_DOUBLE_EQ(ps[1][2], 6);
}

TEST(PointSet, AdoptRawData) {
  PointSet ps(2, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(ps.size(), 3u);
  EXPECT_DOUBLE_EQ(ps[2][1], 6);
  EXPECT_EQ(ps.byte_size(), 6 * sizeof(double));
}

TEST(PointSetDeath, BadRawSizeAborts) {
  EXPECT_DEATH(PointSet(2, {1.0, 2.0, 3.0}), "multiple of dim");
}

TEST(Distance, KnownValues) {
  const double a[2] = {0, 0};
  const double b[2] = {3, 4};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_TRUE(within_eps(a, b, 5.0));
  EXPECT_FALSE(within_eps(a, b, 4.999));
}

TEST(Distance, CountsEvaluations) {
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    const double a[2] = {0, 0};
    const double b[2] = {1, 1};
    squared_distance(a, b);
    distance(a, b);
    within_eps(a, b, 2.0);
  }
  EXPECT_EQ(wc.distance_evals, 3u);
}

}  // namespace
}  // namespace sdb
