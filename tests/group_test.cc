#include "motif/group.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/options.h"
#include "motif/subset_search.h"
#include "similarity/frechet.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

MotifOptions Options(Index xi, bool single) {
  MotifOptions o;
  o.min_length_xi = xi;
  o.variant = single ? MotifVariant::kSingleTrajectory
                     : MotifVariant::kCrossTrajectory;
  return o;
}

TEST(GroupingTest, GroupBoundariesCoverAllPoints) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(13, 1);  // 13 = 4*3+1
  const Grouping g = Grouping::Build(dg.View(), Options(2, true), 4);
  EXPECT_EQ(g.num_row_groups(), 4);
  EXPECT_EQ(g.RowFirst(0), 0);
  EXPECT_EQ(g.RowLast(0), 3);
  EXPECT_EQ(g.RowFirst(3), 12);
  EXPECT_EQ(g.RowLast(3), 12);  // trailing partial group
}

TEST(GroupingTest, EnvelopesMatchBruteForceScan) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(22, 5);
  const Grouping g = Grouping::Build(dg.View(), Options(2, true), 4);
  for (Index u = 0; u < g.num_row_groups(); ++u) {
    for (Index v = 0; v < g.num_col_groups(); ++v) {
      double lo = kInf;
      double hi = -kInf;
      for (Index i = g.RowFirst(u); i <= g.RowLast(u); ++i) {
        for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
          lo = std::min(lo, dg.Distance(i, j));
          hi = std::max(hi, dg.Distance(i, j));
        }
      }
      EXPECT_DOUBLE_EQ(g.Dmin(u, v), lo);
      EXPECT_DOUBLE_EQ(g.Dmax(u, v), hi);
    }
  }
}

TEST(GroupingTest, CorollaryOneSandwich) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(20, 9);
  const Grouping g = Grouping::Build(dg.View(), Options(2, true), 5);
  for (Index u = 0; u < g.num_row_groups(); ++u) {
    for (Index v = 0; v < g.num_col_groups(); ++v) {
      for (Index i = g.RowFirst(u); i <= g.RowLast(u); ++i) {
        for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
          EXPECT_LE(g.Dmin(u, v), dg.Distance(i, j));
          EXPECT_GE(g.Dmax(u, v), dg.Distance(i, j));
        }
      }
    }
  }
}

/// Lemma 3/4 property sweep: for every group pair, the group DFD lower
/// bound must not exceed the DFD of any valid candidate starting in the
/// pair, and the upper bound must dominate at least one valid candidate.
/// Additionally the pattern bounds must lower-bound every candidate.
class GroupBoundSoundnessTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, std::uint64_t, bool>> {};

TEST_P(GroupBoundSoundnessTest, GroupBoundsSandwichCandidates) {
  const auto [n, xi, tau, seed, single] = GetParam();
  const DistanceMatrix dg = single ? MakeRandomSelfMatrix(n, seed)
                                   : MakeRandomCrossMatrix(n, n, seed);
  const MotifOptions options = Options(xi, single);
  const Grouping g = Grouping::Build(dg.View(), options, tau);

  for (Index u = 0; u < g.num_row_groups(); ++u) {
    for (Index v = 0; v < g.num_col_groups(); ++v) {
      if (!g.AdmitsCandidate(u, v)) continue;
      double glb = 0.0;
      double gub = 0.0;
      g.DfdBounds(u, v, std::numeric_limits<double>::infinity(), &glb, &gub);
      const double pattern = g.PatternLb(u, v);

      double best_in_block = kInf;
      bool any = false;
      for (Index i = g.RowFirst(u); i <= g.RowLast(u); ++i) {
        for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
          if (!IsValidSubsetStart(options, n, n, i, j)) continue;
          const Index ie_max = single ? j - 1 : n - 1;
          for (Index ie = i + xi + 1; ie <= ie_max; ++ie) {
            for (Index je = j + xi + 1; je <= n - 1; ++je) {
              const double dfd =
                  DiscreteFrechetOnRange(dg, i, ie, j, je).value();
              any = true;
              best_in_block = std::min(best_in_block, dfd);
              EXPECT_LE(pattern, dfd)
                  << "pattern bound broke at (" << u << "," << v << ") cand ("
                  << i << "," << ie << "," << j << "," << je << ")";
              EXPECT_LE(glb, dfd)
                  << "GLB broke at (" << u << "," << v << ") cand (" << i
                  << "," << ie << "," << j << "," << je << ")";
            }
          }
        }
      }
      if (any) {
        // Upper bound: some valid candidate in the block is <= GUB
        // (when GUB is finite; +inf means no witness was guaranteed).
        if (gub < kInf) {
          EXPECT_LE(best_in_block, gub)
              << "GUB not achieved at (" << u << "," << v << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomMatrices, GroupBoundSoundnessTest,
    ::testing::Combine(::testing::Values(18, 24), ::testing::Values(1, 2, 3),
                       ::testing::Values(2, 3, 4, 8),
                       ::testing::Values(12u, 13u), ::testing::Bool()));

TEST(GroupingTest, AdmitsCandidateMatchesPointLevelScan) {
  const Index n = 26;
  for (const bool single : {true, false}) {
    const DistanceMatrix dg = MakeRandomSelfMatrix(n, 4);
    const MotifOptions options = Options(3, single);
    const Grouping g = Grouping::Build(dg.View(), options, 4);
    for (Index u = 0; u < g.num_row_groups(); ++u) {
      for (Index v = 0; v < g.num_col_groups(); ++v) {
        bool expect = false;
        for (Index i = g.RowFirst(u); i <= g.RowLast(u) && !expect; ++i) {
          for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
            if (IsValidSubsetStart(options, n, n, i, j)) {
              expect = true;
              break;
            }
          }
        }
        EXPECT_EQ(g.AdmitsCandidate(u, v), expect)
            << "single=" << single << " (" << u << "," << v << ")";
      }
    }
  }
}

TEST(GroupingTest, TauOneEnvelopesEqualGroundDistance) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(15, 2);
  const Grouping g = Grouping::Build(dg.View(), Options(2, true), 1);
  for (Index i = 0; i < 15; ++i) {
    for (Index j = 0; j < 15; ++j) {
      EXPECT_DOUBLE_EQ(g.Dmin(i, j), dg.Distance(i, j));
      EXPECT_DOUBLE_EQ(g.Dmax(i, j), dg.Distance(i, j));
    }
  }
}

TEST(GroupingTest, CrossAndBandDeactivateForLargeTau) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(40, 3);
  // tau > xi+1: crossing the neighbouring group is not guaranteed.
  const Grouping g = Grouping::Build(dg.View(), Options(3, true), 8);
  EXPECT_EQ(g.CrossLb(0, 2), -kInf);
  EXPECT_EQ(g.BandLb(0, 2), -kInf);
  // The combined pattern bound then falls back to the cell bound.
  EXPECT_DOUBLE_EQ(g.PatternLb(0, 2), g.CellLb(0, 2));
}

}  // namespace
}  // namespace frechet_motif
