#include "motif/bounds.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/options.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "similarity/frechet.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

MotifOptions SingleOptions(Index xi) {
  MotifOptions o;
  o.min_length_xi = xi;
  return o;
}

MotifOptions CrossOptions(Index xi) {
  MotifOptions o;
  o.min_length_xi = xi;
  o.variant = MotifVariant::kCrossTrajectory;
  return o;
}

/// Soundness sweep: every bound must lower-bound the exact DFD of every
/// valid candidate in its subset, on random (metric-free) matrices.
/// Parameters: (n, xi, seed, single-variant).
class BoundSoundnessTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t, bool>> {
 protected:
  void RunSweep() {
    const auto [n, xi, seed, single] = GetParam();
    const DistanceMatrix dg = single
                                  ? MakeRandomSelfMatrix(n, seed)
                                  : MakeRandomCrossMatrix(n, n + 3, seed);
    const MotifOptions options = single ? SingleOptions(xi) : CrossOptions(xi);
    const RelaxedBounds rb = RelaxedBounds::Build(dg.View(), options);
    const Index m = dg.cols();

    ForEachValidSubset(options, dg.rows(), m, [&](Index i, Index j) {
      const double cell = LbCell(dg.View(), i, j);
      const double cross = LbStartCross(dg.View(), options, i, j);
      const double band_row = LbRowBand(dg.View(), options, i, j);
      const double band_col = LbColBand(dg.View(), options, i, j);
      const double r_cross = rb.StartCross(i, j);
      const double r_band_row = rb.BandRow(j);
      const double r_band_col = rb.BandCol(i);

      // Relaxation property (Lemma 2): relaxed <= tight.
      EXPECT_LE(r_cross, cross) << "at (" << i << "," << j << ")";
      EXPECT_LE(r_band_row, band_row) << "at (" << i << "," << j << ")";
      EXPECT_LE(r_band_col, band_col) << "at (" << i << "," << j << ")";

      // Exhaustively check all valid candidates of this subset.
      const Index ie_max = single ? j - 1 : dg.rows() - 1;
      for (Index ie = i + xi + 1; ie <= ie_max; ++ie) {
        for (Index je = j + xi + 1; je <= m - 1; ++je) {
          const double dfd =
              DiscreteFrechetOnRange(dg, i, ie, j, je).value();
          EXPECT_LE(cell, dfd);
          EXPECT_LE(cross, dfd);
          EXPECT_LE(band_row, dfd);
          EXPECT_LE(band_col, dfd);
          EXPECT_LE(r_cross, dfd);
          EXPECT_LE(r_band_row, dfd);
          EXPECT_LE(r_band_col, dfd);
        }
      }
    });
  }
};

TEST_P(BoundSoundnessTest, AllBoundsBelowExactDfd) { RunSweep(); }

INSTANTIATE_TEST_SUITE_P(
    RandomMatrices, BoundSoundnessTest,
    ::testing::Combine(::testing::Values(14, 18), ::testing::Values(1, 2, 3),
                       ::testing::Values(7u, 8u, 9u), ::testing::Bool()));

/// End-cross bound soundness: LbEndCross(i,j,ie,je) must lower-bound the
/// DFD of every candidate of CS(i,j) ending strictly beyond (ie,je), and so
/// must its relaxed form.
class EndCrossSoundnessTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(EndCrossSoundnessTest, BoundsCandidatesBeyondCell) {
  const auto [seed, single] = GetParam();
  const Index n = 16;
  const Index xi = 2;
  const DistanceMatrix dg = single ? MakeRandomSelfMatrix(n, seed)
                                   : MakeRandomCrossMatrix(n, n, seed);
  const MotifOptions options = single ? SingleOptions(xi) : CrossOptions(xi);
  const RelaxedBounds rb = RelaxedBounds::Build(dg.View(), options);
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    const Index ie_max = single ? j - 1 : n - 1;
    for (Index ie = i; ie <= ie_max; ++ie) {
      for (Index je = j; je <= n - 1; ++je) {
        const double lb = LbEndCross(dg.View(), options, i, j, ie, je);
        const double rlb = rb.EndCross(ie, je);
        EXPECT_LE(rlb, lb + 1e-12);
        for (Index ic = std::max<Index>(ie + 1, i + xi + 1); ic <= ie_max;
             ++ic) {
          for (Index jc = std::max<Index>(je + 1, j + xi + 1); jc <= n - 1;
               ++jc) {
            const double dfd =
                DiscreteFrechetOnRange(dg, i, ic, j, jc).value();
            EXPECT_LE(lb, dfd) << "(" << i << "," << j << ") end (" << ie
                               << "," << je << ") cand (" << ic << "," << jc
                               << ")";
            EXPECT_LE(rlb, dfd);
          }
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, EndCrossSoundnessTest,
                         ::testing::Combine(::testing::Values(3u, 4u),
                                            ::testing::Bool()));

TEST(BoundsTest, CellBoundIsStartDistance) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(12, 1);
  EXPECT_DOUBLE_EQ(LbCell(dg.View(), 2, 7), dg.Distance(2, 7));
}

TEST(BoundsTest, OutOfRangeRowGivesInfinity) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(12, 1);
  const MotifOptions options = SingleOptions(2);
  // j+1 beyond the last column -> no candidate can exist.
  EXPECT_EQ(LbRow(dg.View(), options, 0, 11), kInf);
}

TEST(BoundsTest, BandRequiresRoomForXiRows) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(12, 1);
  const MotifOptions options = SingleOptions(4);
  // j + xi exceeds the matrix: the band bound must disqualify the subset.
  EXPECT_EQ(LbRowBand(dg.View(), options, 0, 9), kInf);
}

TEST(SlidingWindowMaxTest, ComputesWindowMaxima) {
  const std::vector<double> v = {3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<double> out = SlidingWindowMax(v, 3);
  ASSERT_EQ(out.size(), v.size());
  EXPECT_DOUBLE_EQ(out[0], 4);
  EXPECT_DOUBLE_EQ(out[1], 4);
  EXPECT_DOUBLE_EQ(out[2], 5);
  EXPECT_DOUBLE_EQ(out[3], 9);
  EXPECT_DOUBLE_EQ(out[4], 9);
  EXPECT_DOUBLE_EQ(out[5], 9);
  EXPECT_EQ(out[6], kInf);  // window no longer fits
  EXPECT_EQ(out[7], kInf);
}

TEST(SlidingWindowMaxTest, WindowOneIsIdentity) {
  const std::vector<double> v = {2, 7, 1};
  const std::vector<double> out = SlidingWindowMax(v, 1);
  EXPECT_DOUBLE_EQ(out[0], 2);
  EXPECT_DOUBLE_EQ(out[1], 7);
  EXPECT_DOUBLE_EQ(out[2], 1);
}

TEST(SlidingWindowMaxTest, OversizedWindowIsAllInfinity) {
  const std::vector<double> v = {2, 7};
  for (double x : SlidingWindowMax(v, 5)) EXPECT_EQ(x, kInf);
}

TEST(SlidingWindowMaxTest, MatchesNaiveOnRandomInput) {
  Rng rng(99);
  std::vector<double> v(64);
  for (double& x : v) x = rng.NextDouble(0.0, 10.0);
  for (Index w : {2, 5, 13}) {
    const std::vector<double> fast = SlidingWindowMax(v, w);
    for (Index k = 0; k + w <= static_cast<Index>(v.size()); ++k) {
      double expect = -kInf;
      for (Index t = k; t < k + w; ++t) expect = std::max(expect, v[t]);
      EXPECT_DOUBLE_EQ(fast[k], expect) << "w=" << w << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace frechet_motif
