#include "core/distance_matrix.h"

#include <gtest/gtest.h>

#include "geo/metric.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;

TEST(DistanceMatrixTest, RejectsEmptyTrajectory) {
  Trajectory empty;
  EXPECT_FALSE(DistanceMatrix::Build(empty, Euclidean()).ok());
}

TEST(DistanceMatrixTest, SelfMatrixMatchesMetric) {
  const Trajectory s = MakePlanarWalk(20, 1);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  EXPECT_EQ(dg.rows(), 20);
  EXPECT_EQ(dg.cols(), 20);
  for (Index i = 0; i < 20; ++i) {
    for (Index j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(dg.Distance(i, j), Euclidean().Distance(s[i], s[j]));
    }
  }
}

TEST(DistanceMatrixTest, SelfMatrixIsSymmetricWithZeroDiagonal) {
  const Trajectory s = MakePlanarWalk(15, 2);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  for (Index i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(dg.Distance(i, i), 0.0);
    for (Index j = 0; j < 15; ++j) {
      EXPECT_DOUBLE_EQ(dg.Distance(i, j), dg.Distance(j, i));
    }
  }
}

TEST(DistanceMatrixTest, CrossMatrixUsesBothInputs) {
  const Trajectory s = MakePlanarWalk(6, 3);
  const Trajectory t = MakePlanarWalk(9, 4);
  const DistanceMatrix dg = DistanceMatrix::Build(s, t, Euclidean()).value();
  EXPECT_EQ(dg.rows(), 6);
  EXPECT_EQ(dg.cols(), 9);
  EXPECT_DOUBLE_EQ(dg.Distance(2, 7), Euclidean().Distance(s[2], t[7]));
}

TEST(DistanceMatrixTest, FromValuesValidatesShape) {
  EXPECT_FALSE(DistanceMatrix::FromValues(2, 2, {1.0, 2.0, 3.0}).ok());
  EXPECT_FALSE(DistanceMatrix::FromValues(0, 2, {}).ok());
  StatusOr<DistanceMatrix> ok =
      DistanceMatrix::FromValues(2, 2, {0.0, 1.0, 1.0, 0.0});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok.value().Distance(0, 1), 1.0);
}

TEST(DistanceMatrixTest, ReportsMemoryFootprint) {
  const Trajectory s = MakePlanarWalk(32, 5);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  EXPECT_GE(dg.MemoryBytes(), 32u * 32u * sizeof(double));
}

TEST(PointDistancesTest, MatchesMaterializedMatrix) {
  const Trajectory s = MakePlanarWalk(18, 6);
  const Trajectory t = MakePlanarWalk(21, 7);
  const DistanceMatrix dg = DistanceMatrix::Build(s, t, Euclidean()).value();
  const PointDistances fly(s, t, Euclidean());
  EXPECT_EQ(fly.rows(), dg.rows());
  EXPECT_EQ(fly.cols(), dg.cols());
  for (Index i = 0; i < dg.rows(); ++i) {
    for (Index j = 0; j < dg.cols(); ++j) {
      EXPECT_DOUBLE_EQ(fly.Distance(i, j), dg.Distance(i, j));
    }
  }
  EXPECT_EQ(fly.MemoryBytes(), 0u);
}

TEST(PointDistancesTest, SingleTrajectoryFormIsSelfDistance) {
  const Trajectory s = MakePlanarWalk(10, 8);
  const PointDistances fly(s, Euclidean());
  EXPECT_EQ(fly.rows(), 10);
  EXPECT_EQ(fly.cols(), 10);
  EXPECT_DOUBLE_EQ(fly.Distance(3, 3), 0.0);
}

// ---------------------------------------------------------------------------
// RingDistanceMatrix eviction boundaries
// ---------------------------------------------------------------------------

// Oracle: encode the *global* (row id, col id) pair into each cell so a
// read-back proves both which entries survived an eviction and that the
// logical->physical index mapping stayed aligned after the heads moved.
double CellOf(Index row_id, Index col_id) {
  return 1000.0 * static_cast<double>(row_id) + static_cast<double>(col_id);
}

TEST(RingDistanceMatrixTest, AppendRowEvictsOldestExactlyAtCapacity) {
  RingDistanceMatrix ring(/*row_capacity=*/3, /*col_capacity=*/2);
  ring.AppendCol([](Index) { return CellOf(0, 0); });  // no rows yet
  ring.AppendCol([](Index) { return CellOf(0, 1); });

  for (Index r = 0; r < 3; ++r) {
    ring.AppendRow([r](Index j) { return CellOf(r, j); });
    EXPECT_EQ(ring.rows(), r + 1) << "no eviction below capacity";
  }
  // The window is exactly full: one more row must evict logical row 0
  // and only logical row 0.
  ring.AppendRow([](Index j) { return CellOf(3, j); });
  EXPECT_EQ(ring.rows(), 3);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 2; ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(i + 1, j))
          << "window should hold global rows 1..3 at (" << i << "," << j
          << ")";
    }
  }
}

TEST(RingDistanceMatrixTest, HeadsWrapAcrossManyEvictions) {
  RingDistanceMatrix ring(/*row_capacity=*/3, /*col_capacity=*/4);
  for (Index j = 0; j < 4; ++j) {
    ring.AppendCol([](Index) { return 0.0; });
  }
  // Enough appends to lap the physical buffer several times.
  for (Index r = 0; r < 11; ++r) {
    ring.AppendRow([r](Index j) { return CellOf(r, j); });
  }
  EXPECT_EQ(ring.rows(), 3);
  EXPECT_EQ(ring.row_capacity(), 3);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(8 + i, j));
    }
  }
}

TEST(RingDistanceMatrixTest, AppendColEvictsOldestColumn) {
  RingDistanceMatrix ring(/*row_capacity=*/2, /*col_capacity=*/3);
  ring.AppendRow([](Index) { return 0.0; });
  ring.AppendRow([](Index) { return 0.0; });
  for (Index c = 0; c < 5; ++c) {
    ring.AppendCol([c](Index i) { return CellOf(i, c); });
    EXPECT_LE(ring.cols(), 3) << "cols() must never exceed capacity";
  }
  EXPECT_EQ(ring.cols(), 3);
  for (Index i = 0; i < 2; ++i) {
    for (Index j = 0; j < 3; ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(i, j + 2));
    }
  }
}

TEST(RingDistanceMatrixTest, CapacityOneAlwaysHoldsTheNewestEntry) {
  RingDistanceMatrix ring(/*row_capacity=*/1, /*col_capacity=*/1);
  ring.AppendPoint([](Index) { return 0.0; }, [](Index) { return 0.0; },
                   /*self_distance=*/7.0);
  EXPECT_EQ(ring.rows(), 1);
  EXPECT_EQ(ring.cols(), 1);
  EXPECT_EQ(ring.Distance(0, 0), 7.0);
  ring.AppendPoint([](Index) { return 0.0; }, [](Index) { return 0.0; },
                   /*self_distance=*/9.0);
  EXPECT_EQ(ring.rows(), 1);
  EXPECT_EQ(ring.Distance(0, 0), 9.0);
}

TEST(RingDistanceMatrixTest, AppendPointEvictsBothDimensionsTogether) {
  RingDistanceMatrix ring(/*row_capacity=*/3, /*col_capacity=*/3);
  // Self-matrix over global point ids 0..4: cell (a, b) = CellOf(a, b),
  // with an asymmetric fill (row fill vs column fill differ by the
  // argument order) so a swapped callback would be caught.
  for (Index p = 0; p < 5; ++p) {
    const Index base = p >= 3 ? p - 2 : 0;  // oldest surviving global id
    ring.AppendPoint(
        [p, base](Index k) { return CellOf(p, base + k); },
        [p, base](Index k) { return CellOf(base + k, p); },
        /*self_distance=*/CellOf(p, p));
    EXPECT_EQ(ring.rows(), ring.cols()) << "self-matrix must stay square";
    EXPECT_LE(ring.rows(), 3);
  }
  // Window now holds global points 2..4 in both dimensions.
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 3; ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(2 + i, 2 + j));
    }
  }
}

TEST(RingDistanceMatrixTest, FootprintIsCapacityBoundNotSizeBound) {
  RingDistanceMatrix ring(/*row_capacity=*/4, /*col_capacity=*/5);
  const std::size_t fresh = ring.MemoryBytes();
  EXPECT_EQ(fresh, 4u * 5u * sizeof(double));
  for (Index j = 0; j < 5; ++j) ring.AppendCol([](Index) { return 0.0; });
  for (Index r = 0; r < 9; ++r) {
    ring.AppendRow([](Index) { return 0.0; });
  }
  EXPECT_EQ(ring.MemoryBytes(), fresh) << "the ring never reallocates";
}

}  // namespace
}  // namespace frechet_motif
