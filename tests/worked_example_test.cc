// A fully hand-worked example in the style of the paper's Figures 5-8:
// one small explicit ground-distance matrix, with every expected value in
// this file derived by hand from the definitions (the derivations are in
// the comments). Guards against regressions in the exact semantics of the
// DFD recurrence and each bound.
//
// The 8x8 symmetric matrix (zero diagonal), xi = 1, single-trajectory:
//
//        0   1   2   3   4   5   6   7
//   0  [ 0   4   6   5   5   3   9   7 ]
//   1  [ 4   0   3   2   2   7   4   8 ]
//   2  [ 6   3   0   5   8   1   6   2 ]
//   3  [ 5   2   5   0   6   9   3   5 ]
//   4  [ 5   2   8   6   0   4   7   6 ]
//   5  [ 3   7   1   9   4   0   5   2 ]
//   6  [ 9   4   6   3   7   5   0   3 ]
//   7  [ 7   8   2   5   6   2   3   0 ]

#include <gtest/gtest.h>

#include <limits>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "motif/bounds.h"
#include "motif/brute_dp.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "similarity/frechet.h"

namespace frechet_motif {
namespace {

DistanceMatrix WorkedMatrix() {
  // clang-format off
  const std::vector<double> values = {
      0, 4, 6, 5, 5, 3, 9, 7,
      4, 0, 3, 2, 2, 7, 4, 8,
      6, 3, 0, 5, 8, 1, 6, 2,
      5, 2, 5, 0, 6, 9, 3, 5,
      5, 2, 8, 6, 0, 4, 7, 6,
      3, 7, 1, 9, 4, 0, 5, 2,
      9, 4, 6, 3, 7, 5, 0, 3,
      7, 8, 2, 5, 6, 2, 3, 0,
  };
  // clang-format on
  return DistanceMatrix::FromValues(8, 8, values).value();
}

MotifOptions XiOne() {
  MotifOptions o;
  o.min_length_xi = 1;
  return o;
}

TEST(WorkedExampleTest, DfdOfCandidate_0_2_4_6) {
  // dF over rows 0..2, columns 4..6. Hand-computed dF table (the gray-path
  // construction of the paper's Figure 6):
  //   dF(0,0,4,4)=5            dF(0,0,4,5)=max(3,5)=5   dF(0,0,4,6)=max(9,5)=9
  //   dF(0,1,4,4)=max(2,5)=5   dF(0,1,4,5)=max(7,min(5,5,5))=7
  //   dF(0,1,4,6)=max(4,min(9,5,7))=5
  //   dF(0,2,4,4)=max(8,5)=8   dF(0,2,4,5)=max(1,min(7,5,8))=5
  //   dF(0,2,4,6)=max(6,min(5,7,5))=6
  const DistanceMatrix dg = WorkedMatrix();
  EXPECT_DOUBLE_EQ(DiscreteFrechetOnRange(dg, 0, 0, 4, 5).value(), 5.0);
  EXPECT_DOUBLE_EQ(DiscreteFrechetOnRange(dg, 0, 1, 4, 5).value(), 7.0);
  EXPECT_DOUBLE_EQ(DiscreteFrechetOnRange(dg, 0, 1, 4, 6).value(), 5.0);
  EXPECT_DOUBLE_EQ(DiscreteFrechetOnRange(dg, 0, 2, 4, 5).value(), 5.0);
  EXPECT_DOUBLE_EQ(DiscreteFrechetOnRange(dg, 0, 2, 4, 6).value(), 6.0);
}

TEST(WorkedExampleTest, NonMonotonicityWitness) {
  // Lemma 1 on this matrix: extending the first subtrajectory from
  // S[0..1] to S[0..2] moves the DFD from S[4..6] as 5 -> 6 (increase),
  // while extending S[0..0] to S[0..1] moves dF against S[4..5] as
  // 5 -> 7 then back down is impossible; instead compare (0,1,4,6)=5 with
  // (0,0,4,6)=9: containment decreased the DFD. Both directions occur.
  const DistanceMatrix dg = WorkedMatrix();
  const double shorter = DiscreteFrechetOnRange(dg, 0, 0, 4, 6).value();
  const double mid = DiscreteFrechetOnRange(dg, 0, 1, 4, 6).value();
  const double longer = DiscreteFrechetOnRange(dg, 0, 2, 4, 6).value();
  EXPECT_GT(shorter, mid);  // 9 > 5: extension decreased
  EXPECT_LT(mid, longer);   // 5 < 6: extension increased
}

TEST(WorkedExampleTest, CellBound) {
  const DistanceMatrix dg = WorkedMatrix();
  // LB_cell(0,4) = dG(0,4) = 5; the candidate (0,2,4,6) has DFD 6 >= 5.
  EXPECT_DOUBLE_EQ(LbCell(dg.View(), 0, 4), 5.0);
}

TEST(WorkedExampleTest, TightCrossBounds) {
  const DistanceMatrix dg = WorkedMatrix();
  const MotifOptions options = XiOne();
  // LB_row(0,4) = min over c in [0, j-1]=[0,3] of dG(c, 5)
  //             = min(3, 7, 1, 9) = 1.
  EXPECT_DOUBLE_EQ(LbRow(dg.View(), options, 0, 4), 1.0);
  // LB_col(0,4) = min over r in [4,7] of dG(1, r) = min(2, 7, 4, 8) = 2.
  EXPECT_DOUBLE_EQ(LbCol(dg.View(), options, 0, 4), 2.0);
  // Cross = max(1, 2) = 2.
  EXPECT_DOUBLE_EQ(LbStartCross(dg.View(), options, 0, 4), 2.0);
}

TEST(WorkedExampleTest, TightBandBoundsWithXiOne) {
  const DistanceMatrix dg = WorkedMatrix();
  const MotifOptions options = XiOne();
  // With xi = 1 the band windows have width one, so band == cross parts.
  EXPECT_DOUBLE_EQ(LbRowBand(dg.View(), options, 0, 4),
                   LbRow(dg.View(), options, 0, 4));
  EXPECT_DOUBLE_EQ(LbColBand(dg.View(), options, 0, 4),
                   LbCol(dg.View(), options, 0, 4));
}

TEST(WorkedExampleTest, RelaxedBoundArrays) {
  const DistanceMatrix dg = WorkedMatrix();
  const RelaxedBounds rb = RelaxedBounds::Build(dg.View(), XiOne());
  // Rmin[4] = min over c in [0, 3] of dG(c, 5) = min(3,7,1,9) = 1.
  EXPECT_DOUBLE_EQ(rb.Rmin(4), 1.0);
  // CminStart[0] = min over r in [3, 7] of dG(1, r)
  //              = min(2, 2, 7, 4, 8) = 2.
  EXPECT_DOUBLE_EQ(rb.CminStart(0), 2.0);
  // Cmin[0] (end-cell form) scans r in [1, 7]: includes dG(1,1)=0.
  EXPECT_DOUBLE_EQ(rb.Cmin(0), 0.0);
  // RminFull[4] = min over the whole column 5 = min(3,7,1,9,4,0,5,2) = 0
  // (the diagonal).
  EXPECT_DOUBLE_EQ(rb.RminFull(4), 0.0);
  // Relaxed start-cross at (0,4): max(CminStart=2, Rmin=1) = 2 — equal to
  // the tight bound on this matrix.
  EXPECT_DOUBLE_EQ(rb.StartCross(0, 4), 2.0);
}

TEST(WorkedExampleTest, EndCrossBound) {
  const DistanceMatrix dg = WorkedMatrix();
  const MotifOptions options = XiOne();
  // LB_end_cross(0,4, ie=1, je=5): candidates of CS(0,4) ending beyond
  // (1,5) cross row 6 at c in [0,3] -> min(9,4,6,3) = 3, and column 2 at
  // r in [4,7] -> min(8,1,6,2) = 1. Bound = max(3,1) = 3.
  EXPECT_DOUBLE_EQ(LbEndCross(dg.View(), options, 0, 4, 1, 5), 3.0);
  // The only candidate of CS(0,4) beyond (1,5) is (0,2,4,6) with DFD 6.
  EXPECT_LE(LbEndCross(dg.View(), options, 0, 4, 1, 5),
            DiscreteFrechetOnRange(dg, 0, 2, 4, 6).value());
}

TEST(WorkedExampleTest, MotifOverTheWholeMatrix) {
  // With n=8, xi=1 the valid subsets are i in [0,2], j in [i+3, 5]; the
  // smallest subset optimum is the motif. BruteDP must agree with the
  // smallest hand-checkable candidates; we verify the reported pair's DFD
  // and validity rather than enumerate all by hand.
  const DistanceMatrix dg = WorkedMatrix();
  StatusOr<MotifResult> r = BruteDpMotif(dg, XiOne());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().found);
  const Candidate best = r.value().best;
  EXPECT_TRUE(IsValidCandidate(best, XiOne(), 8, 8));
  EXPECT_DOUBLE_EQ(
      r.value().distance,
      DiscreteFrechetOnRange(dg, best.i, best.ie, best.j, best.je).value());
  // Candidate (0,1,3,5): dF table over rows {0,1}, cols {3,4,5}, with
  // dG(0,3)=5, dG(0,4)=5, dG(0,5)=3 giving the first-row prefix maxima
  // 5, 5, 5; then (1,3)=max(2,5)=5, (1,4)=max(2,min(5,5,5))=5,
  // (1,5)=max(7,min(5,5,5))=7. So dF(0,1,3,5)=7; the motif must be <= 7.
  EXPECT_LE(r.value().distance, 7.0);
}

TEST(WorkedExampleTest, SubsetCountMatchesEnumeration) {
  // i in [0, 8-2-4=2], j in [i+3, 5]: i=0 -> j in {3,4,5} (3 subsets),
  // i=1 -> {4,5} (2), i=2 -> {5} (1). Total 6.
  EXPECT_EQ(CountValidSubsets(XiOne(), 8, 8), 6);
}

}  // namespace
}  // namespace frechet_motif
