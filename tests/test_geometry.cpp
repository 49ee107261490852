#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "geometry/bbox.hpp"
#include "geometry/cell.hpp"
#include "geometry/point.hpp"

namespace mg = mrscan::geom;

TEST(Point, DistanceIsEuclidean) {
  mg::Point a{0, 0.0, 0.0, 1.0f};
  mg::Point b{1, 3.0, 4.0, 1.0f};
  EXPECT_DOUBLE_EQ(mg::dist2(a, b), 25.0);
  EXPECT_DOUBLE_EQ(mg::dist(a, b), 5.0);
}

TEST(Point, WithinEpsIsInclusive) {
  mg::Point a{0, 0.0, 0.0, 1.0f};
  mg::Point b{1, 1.0, 0.0, 1.0f};
  EXPECT_TRUE(mg::within_eps(a, b, 1.0));
  EXPECT_FALSE(mg::within_eps(a, b, 0.999));
}

TEST(BBox, EmptyByDefault) {
  mg::BBox box;
  EXPECT_TRUE(box.empty());
  EXPECT_DOUBLE_EQ(box.width(), 0.0);
  EXPECT_DOUBLE_EQ(box.diagonal(), 0.0);
}

TEST(BBox, ExpandGrowsToContain) {
  mg::BBox box;
  box.expand(mg::Point{0, 1.0, 2.0, 1.0f});
  box.expand(mg::Point{1, -1.0, 5.0, 1.0f});
  EXPECT_FALSE(box.empty());
  EXPECT_DOUBLE_EQ(box.min_x, -1.0);
  EXPECT_DOUBLE_EQ(box.max_x, 1.0);
  EXPECT_DOUBLE_EQ(box.min_y, 2.0);
  EXPECT_DOUBLE_EQ(box.max_y, 5.0);
  EXPECT_TRUE(box.contains(mg::Point{2, 0.0, 3.0, 1.0f}));
  EXPECT_FALSE(box.contains(mg::Point{3, 2.0, 3.0, 1.0f}));
}

TEST(BBox, ExpandWithBoxMerges) {
  mg::BBox a;
  a.expand(mg::Point{0, 0.0, 0.0, 1.0f});
  mg::BBox b;
  b.expand(mg::Point{1, 4.0, -2.0, 1.0f});
  a.expand(b);
  EXPECT_DOUBLE_EQ(a.max_x, 4.0);
  EXPECT_DOUBLE_EQ(a.min_y, -2.0);
}

TEST(BBox, IntersectsDetectsOverlapAndTouch) {
  mg::BBox a{0.0, 0.0, 2.0, 2.0};
  mg::BBox b{1.0, 1.0, 3.0, 3.0};
  mg::BBox c{2.0, 2.0, 4.0, 4.0};  // touches at a corner
  mg::BBox d{5.0, 5.0, 6.0, 6.0};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(a.intersects(c));
  EXPECT_FALSE(a.intersects(d));
}

TEST(BBox, Dist2ToIsZeroInsideAndPositiveOutside) {
  mg::BBox box{0.0, 0.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(box.dist2_to(mg::Point{0, 1.0, 1.0, 1.0f}), 0.0);
  EXPECT_DOUBLE_EQ(box.dist2_to(mg::Point{1, 3.0, 1.0, 1.0f}), 1.0);
  EXPECT_DOUBLE_EQ(box.dist2_to(mg::Point{2, 3.0, 3.0, 1.0f}), 2.0);
}

TEST(BBox, BBoxOfSpan) {
  mg::PointSet pts{{0, 0.0, 0.0, 1.0f}, {1, 2.0, -1.0, 1.0f},
                   {2, 1.0, 4.0, 1.0f}};
  const mg::BBox box = mg::bbox_of(pts);
  EXPECT_DOUBLE_EQ(box.min_x, 0.0);
  EXPECT_DOUBLE_EQ(box.max_x, 2.0);
  EXPECT_DOUBLE_EQ(box.min_y, -1.0);
  EXPECT_DOUBLE_EQ(box.max_y, 4.0);
  EXPECT_NEAR(box.diagonal(), std::sqrt(4.0 + 25.0), 1e-12);
}

TEST(Cell, CellOfRespectsOriginAndSize) {
  mg::GridGeometry g{-10.0, -10.0, 0.5};
  EXPECT_EQ(g.cell_of(mg::Point{0, -10.0, -10.0, 1.0f}),
            (mg::CellKey{0, 0}));
  EXPECT_EQ(g.cell_of(mg::Point{1, -9.51, -10.0, 1.0f}),
            (mg::CellKey{0, 0}));
  EXPECT_EQ(g.cell_of(mg::Point{2, -9.5, -9.49, 1.0f}),
            (mg::CellKey{1, 1}));
  EXPECT_EQ(g.cell_of(mg::Point{3, -10.2, -10.0, 1.0f}),
            (mg::CellKey{-1, 0}));
}

TEST(Cell, CodeRoundTripsIncludingNegatives) {
  for (const mg::CellKey k :
       {mg::CellKey{0, 0}, mg::CellKey{-1, 7}, mg::CellKey{123456, -98765},
        mg::CellKey{-2147483647, 2147483647}}) {
    EXPECT_EQ(mg::cell_from_code(mg::cell_code(k)), k);
  }
}

TEST(Cell, OrderingIsXMajorThenY) {
  // Matches the partitioner's iteration: y varies fastest.
  EXPECT_LT((mg::CellKey{0, 5}), (mg::CellKey{1, 0}));
  EXPECT_LT((mg::CellKey{0, 0}), (mg::CellKey{0, 1}));
}

TEST(Cell, NeighborsAreEightDistinct) {
  std::vector<mg::CellKey> nbrs;
  mg::for_each_neighbor_within(mg::CellKey{3, -2}, 1,
                               [&](mg::CellKey k) { nbrs.push_back(k); });
  EXPECT_EQ(nbrs.size(), 8u);
  for (const auto& k : nbrs) {
    EXPECT_NE(k, (mg::CellKey{3, -2}));
    EXPECT_LE(std::abs(k.ix - 3), 1);
    EXPECT_LE(std::abs(k.iy + 2), 1);
  }
}

TEST(Cell, GeometryEdgesAndCenter) {
  mg::GridGeometry g{1.0, 2.0, 0.1};
  const mg::CellKey k{3, 4};
  EXPECT_NEAR(g.cell_min_x(k), 1.3, 1e-12);
  EXPECT_NEAR(g.cell_max_x(k), 1.4, 1e-12);
  EXPECT_NEAR(g.cell_min_y(k), 2.4, 1e-12);
  EXPECT_NEAR(g.cell_max_y(k), 2.5, 1e-12);
  EXPECT_EQ(g.cell_of(mg::Point{0, 1.35, 2.45}), k);  // the centre
}

TEST(Cell, CheckedCellOfRejectsPointsOutsideTheDomain) {
  const mg::GridGeometry g{-1.0, 2.0, 0.5};
  const mg::Point inside{0, 0.2, 1.7};
  EXPECT_EQ(g.checked_cell_of(inside, 2), g.cell_of(inside));
  EXPECT_EQ(g.checked_cell_of(inside, 2), (mg::CellKey{2, -1}));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(g.checked_cell_of(mg::Point{0, std::nan(""), 0.0}, 0));
  EXPECT_FALSE(g.checked_cell_of(mg::Point{0, 0.0, -inf}, 0));
  EXPECT_FALSE(g.checked_cell_of(mg::Point{0, 1e300, 0.0}, 0));
  // The last admitted index leaves room for the ring neighbourhood, on
  // both sides of the origin.
  const double top = std::numeric_limits<std::int32_t>::max() - 2;
  const double bottom = std::numeric_limits<std::int32_t>::min() + 2;
  EXPECT_TRUE(g.checked_cell_of(mg::Point{0, -1.0 + top * 0.5, 2.0}, 2));
  EXPECT_FALSE(
      g.checked_cell_of(mg::Point{0, -1.0 + (top + 1) * 0.5, 2.0}, 2));
  EXPECT_TRUE(g.checked_cell_of(mg::Point{0, -1.0, 2.0 + bottom * 0.5}, 2));
  EXPECT_FALSE(
      g.checked_cell_of(mg::Point{0, -1.0, 2.0 + (bottom - 1) * 0.5}, 2));
}
