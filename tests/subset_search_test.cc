#include "motif/subset_search.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "motif/bounds.h"
#include "motif/relaxed_bounds.h"
#include "similarity/frechet.h"
#include "test_util.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;

MotifOptions Single(Index xi) {
  MotifOptions o;
  o.min_length_xi = xi;
  return o;
}

MotifOptions Cross(Index xi) {
  MotifOptions o;
  o.min_length_xi = xi;
  o.variant = MotifVariant::kCrossTrajectory;
  return o;
}

TEST(ForEachValidSubsetTest, VisitsExactlyTheValidStarts) {
  const Index n = 18;
  for (const MotifOptions& options : {Single(2), Single(4), Cross(3)}) {
    std::int64_t visited = 0;
    ForEachValidSubset(options, n, n, [&](Index i, Index j) {
      EXPECT_TRUE(IsValidSubsetStart(options, n, n, i, j))
          << "(" << i << "," << j << ")";
      ++visited;
    });
    EXPECT_EQ(visited, CountValidSubsets(options, n, n));
    // Complement check: everything not visited is invalid.
    std::int64_t all_valid = 0;
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        if (IsValidSubsetStart(options, n, n, i, j)) ++all_valid;
      }
    }
    EXPECT_EQ(all_valid, visited);
  }
}

TEST(ForEachValidSubsetTest, ValidStartsAdmitAtLeastOneCandidate) {
  const Index n = 16;
  const MotifOptions options = Single(3);
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    // The canonical smallest candidate must be valid.
    const Candidate c{i, static_cast<Index>(i + options.min_length_xi + 1), j,
                      static_cast<Index>(j + options.min_length_xi + 1)};
    EXPECT_TRUE(IsValidCandidate(c, options, n, n)) << c;
  });
}

TEST(EvaluateSubsetTest, FindsTheSubsetOptimum) {
  const Index n = 20;
  const Index xi = 2;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 31);
  const MotifOptions options = Single(xi);
  // Evaluate one subset and compare against per-candidate DFD calls.
  const Index i = 1;
  const Index j = 8;
  ASSERT_TRUE(IsValidSubsetStart(options, n, n, i, j));
  SearchState state;
  FrechetScratch scratch;
  EvaluateSubset(dg.View(), options, i, j, nullptr, false, EndpointCaps{},
                 &state, nullptr, &scratch);
  ASSERT_TRUE(state.found);
  double expect = std::numeric_limits<double>::infinity();
  for (Index ie = i + xi + 1; ie <= j - 1; ++ie) {
    for (Index je = j + xi + 1; je <= n - 1; ++je) {
      expect = std::min(expect,
                        DiscreteFrechetOnRange(dg, i, ie, j, je).value());
    }
  }
  EXPECT_DOUBLE_EQ(state.best_distance, expect);
}

TEST(EvaluateSubsetTest, RespectsEndpointCaps) {
  const Index n = 20;
  const Index xi = 2;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 33);
  const MotifOptions options = Single(xi);
  const Index i = 0;
  const Index j = 6;
  // Cap je at 12: the best must equal the optimum over je <= 12.
  EndpointCaps caps;
  caps.je_cap = 12;
  SearchState state;
  FrechetScratch scratch;
  EvaluateSubset(dg.View(), options, i, j, nullptr, false, caps, &state,
                 nullptr, &scratch);
  double expect = std::numeric_limits<double>::infinity();
  for (Index ie = i + xi + 1; ie <= j - 1; ++ie) {
    for (Index je = j + xi + 1; je <= 12; ++je) {
      expect = std::min(expect,
                        DiscreteFrechetOnRange(dg, i, ie, j, je).value());
    }
  }
  ASSERT_TRUE(state.found);
  EXPECT_DOUBLE_EQ(state.best_distance, expect);
}

TEST(EvaluateSubsetTest, ThresholdSemanticsRecordWithoutPruningOptimum) {
  const Index n = 18;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 35);
  const MotifOptions options = Single(2);
  const RelaxedBounds rb = RelaxedBounds::Build(dg.View(), options);
  // With end-cross pruning against a tight-but-valid threshold, the subset
  // optimum must still be found if it is <= threshold.
  SearchState no_prune;
  FrechetScratch scratch;
  EvaluateSubset(dg.View(), options, 0, 6, nullptr, false, EndpointCaps{},
                 &no_prune, nullptr, &scratch);
  ASSERT_TRUE(no_prune.found);
  SearchState pruned;
  pruned.threshold = no_prune.best_distance;  // exact optimum as threshold
  EvaluateSubset(dg.View(), options, 0, 6, &rb, true, EndpointCaps{}, &pruned,
                 nullptr, &scratch);
  ASSERT_TRUE(pruned.found);
  EXPECT_DOUBLE_EQ(pruned.best_distance, no_prune.best_distance);
}

TEST(SearchStateTest, RecordUpdatesBestAndThreshold) {
  SearchState s;
  s.Record(Candidate{0, 5, 7, 12}, 10.0);
  EXPECT_TRUE(s.found);
  EXPECT_DOUBLE_EQ(s.best_distance, 10.0);
  EXPECT_DOUBLE_EQ(s.threshold, 10.0);
  s.Record(Candidate{1, 6, 8, 13}, 12.0);  // worse: no change
  EXPECT_DOUBLE_EQ(s.best_distance, 10.0);
  s.Record(Candidate{2, 7, 9, 14}, 8.0);  // better: both update
  EXPECT_DOUBLE_EQ(s.best_distance, 8.0);
  EXPECT_DOUBLE_EQ(s.threshold, 8.0);
  EXPECT_EQ(s.best.i, 2);
}

TEST(SearchStateTest, EqualDistancesResolveToCanonicalCandidateOrder) {
  // On an exact tie, Record keeps the lexicographically smaller
  // (i, j, ie, je) — regardless of arrival order.
  SearchState first_small;
  first_small.Record(Candidate{1, 6, 8, 13}, 10.0);
  first_small.Record(Candidate{2, 7, 9, 14}, 10.0);  // lex larger: ignored
  EXPECT_EQ(first_small.best.i, 1);

  SearchState first_large;
  first_large.Record(Candidate{2, 7, 9, 14}, 10.0);
  first_large.Record(Candidate{1, 6, 8, 13}, 10.0);  // lex smaller: wins
  EXPECT_EQ(first_large.best.i, 1);
  EXPECT_DOUBLE_EQ(first_large.best_distance, 10.0);

  // The order is (i, j, ie, je) — start pair before endpoints.
  SearchState same_start;
  same_start.Record(Candidate{1, 9, 8, 13}, 10.0);
  same_start.Record(Candidate{1, 6, 8, 14}, 10.0);  // smaller ie wins
  EXPECT_EQ(same_start.best.ie, 6);
  same_start.Record(Candidate{1, 5, 7, 14}, 10.0);  // smaller j beats ie
  EXPECT_EQ(same_start.best.j, 7);
}

TEST(SearchStateTest, CandidateOrderIsShiftInvariant) {
  // The carried path of the streaming engine compares a shifted previous
  // candidate against fresh ones; shifting both sides by the same delta
  // must never change the order.
  const Candidate a{3, 9, 12, 20};
  const Candidate b{3, 9, 13, 19};
  ASSERT_TRUE(CandidateOrderedBefore(a, b));
  Candidate a_shift = a;
  Candidate b_shift = b;
  for (Candidate* c : {&a_shift, &b_shift}) {
    c->i -= 2;
    c->ie -= 2;
    c->j -= 2;
    c->je -= 2;
  }
  EXPECT_TRUE(CandidateOrderedBefore(a_shift, b_shift));
  EXPECT_FALSE(CandidateOrderedBefore(b_shift, a_shift));
}

TEST(ExactTies, AllPathsReportTheCanonicalAchiever) {
  // A constructed matrix with two exactly tied optimal candidates in
  // different subsets: constant distance c everywhere except two zero
  // bottlenecks... simpler: a constant matrix ties *every* candidate at
  // the same DFD, so every algorithm must report the very first subset's
  // first candidate under the canonical order.
  const Index n = 14;
  const Index xi = 2;
  std::vector<double> values(static_cast<std::size_t>(n) * n, 7.0);
  for (Index i = 0; i < n; ++i) {
    values[static_cast<std::size_t>(i) * n + i] = 0.0;
  }
  const DistanceMatrix dg =
      DistanceMatrix::FromValues(n, n, std::move(values)).value();
  const MotifOptions options = Single(xi);

  const RelaxedBounds rb = RelaxedBounds::Build(dg.View(), options);
  std::vector<SubsetEntry> entries;
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    entries.push_back(SubsetEntry{0.0, i, j});
  });
  SearchState state;
  RunSubsetQueue(dg.View(), options, &entries, &rb, /*use_end_cross=*/true,
                 /*sort_entries=*/true, &state, nullptr);
  ASSERT_TRUE(state.found);
  EXPECT_DOUBLE_EQ(7.0, state.best_distance);
  // The canonical minimum: the lex-smallest valid candidate overall.
  EXPECT_EQ((Candidate{0, xi + 1, xi + 2, 2 * xi + 3}), state.best);
}

TEST(SearchStateTest, ExternalThresholdDoesNotBlockRecording) {
  SearchState s;
  s.threshold = 5.0;  // e.g. from a group upper bound
  s.Record(Candidate{0, 5, 7, 12}, 6.0);  // worse than threshold but first
  EXPECT_TRUE(s.found);
  EXPECT_DOUBLE_EQ(s.best_distance, 6.0);
  EXPECT_DOUBLE_EQ(s.threshold, 5.0);  // threshold unchanged
}

TEST(RunSubsetQueueTest, SortedAndUnsortedAgree) {
  const Index n = 30;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 41);
  const MotifOptions options = Single(3);
  const RelaxedBounds rb = RelaxedBounds::Build(dg.View(), options);
  auto build_entries = [&] {
    std::vector<SubsetEntry> entries;
    ForEachValidSubset(options, n, n, [&](Index i, Index j) {
      entries.push_back(SubsetEntry{
          std::max(dg.Distance(i, j), rb.StartCross(i, j)), i, j});
    });
    return entries;
  };
  std::vector<SubsetEntry> sorted_entries = build_entries();
  std::vector<SubsetEntry> scan_entries = build_entries();
  SearchState sorted_state;
  SearchState scan_state;
  RunSubsetQueue(dg.View(), options, &sorted_entries, &rb, true, true,
                 &sorted_state, nullptr);
  RunSubsetQueue(dg.View(), options, &scan_entries, &rb, true, false,
                 &scan_state, nullptr);
  ASSERT_TRUE(sorted_state.found);
  ASSERT_TRUE(scan_state.found);
  EXPECT_DOUBLE_EQ(sorted_state.best_distance, scan_state.best_distance);
}

// --- MatrixView over a wrapped ring vs the dense window ----------------------

/// Random (asymmetric) ground distances between global point indices.
std::vector<double> RandomGlobal(Index points, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> g(static_cast<std::size_t>(points) * points);
  for (double& v : g) v = rng.NextDouble(0.0, 100.0);
  return g;
}

/// The reader-level parity bundle: every cell and LbCell, every
/// RelaxedBounds array, and EvaluateSubset over every valid subset (with
/// end-cross pruning, accumulating one search state) — values and effort
/// counters bit-identical between the two views.
void ExpectViewsAgree(MatrixView ring, MatrixView dense,
                      const MotifOptions& options) {
  ASSERT_EQ(dense.rows(), ring.rows());
  ASSERT_EQ(dense.cols(), ring.cols());
  const Index n = dense.rows();
  const Index m = dense.cols();
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < m; ++j) {
      ASSERT_EQ(dense.Distance(i, j), ring.Distance(i, j))
          << "cell (" << i << "," << j << ")";
      ASSERT_EQ(LbCell(dense, i, j), LbCell(ring, i, j));
    }
  }
  const RelaxedBounds rd = RelaxedBounds::Build(dense, options);
  const RelaxedBounds rr = RelaxedBounds::Build(ring, options);
  for (Index j = 0; j < m; ++j) {
    EXPECT_EQ(rd.Rmin(j), rr.Rmin(j)) << "Rmin " << j;
    EXPECT_EQ(rd.RminFull(j), rr.RminFull(j)) << "RminFull " << j;
    EXPECT_EQ(rd.BandRow(j), rr.BandRow(j)) << "BandRow " << j;
  }
  for (Index i = 0; i < n; ++i) {
    EXPECT_EQ(rd.Cmin(i), rr.Cmin(i)) << "Cmin " << i;
    EXPECT_EQ(rd.CminStart(i), rr.CminStart(i)) << "CminStart " << i;
    EXPECT_EQ(rd.CminFull(i), rr.CminFull(i)) << "CminFull " << i;
    EXPECT_EQ(rd.BandCol(i), rr.BandCol(i)) << "BandCol " << i;
  }
  SearchState sd;
  SearchState sr;
  MotifStats stats_d;
  MotifStats stats_r;
  FrechetScratch scratch;
  ForEachValidSubset(options, n, m, [&](Index i, Index j) {
    EvaluateSubset(dense, options, i, j, &rd, /*use_end_cross=*/true,
                   EndpointCaps{}, &sd, &stats_d, &scratch);
    EvaluateSubset(ring, options, i, j, &rr, /*use_end_cross=*/true,
                   EndpointCaps{}, &sr, &stats_r, &scratch);
  });
  ASSERT_TRUE(sd.found);
  EXPECT_EQ(sd.found, sr.found);
  EXPECT_EQ(sd.best, sr.best);
  EXPECT_EQ(sd.best_distance, sr.best_distance);
  EXPECT_EQ(sd.threshold, sr.threshold);
  EXPECT_GT(stats_d.subsets_evaluated, 0);
  EXPECT_EQ(stats_d.subsets_evaluated, stats_r.subsets_evaluated);
  EXPECT_EQ(stats_d.dfd_cells_computed, stats_r.dfd_cells_computed);
  EXPECT_EQ(stats_d.bsf_updates, stats_r.bsf_updates);
}

TEST(MatrixViewParityTest, WrappedSelfRingMatchesDenseWindow) {
  const Index w = 24;
  const Index total = w + 13;  // 13 evictions: both heads sit at 13
  const std::vector<double> g = RandomGlobal(total, 5150);
  const auto at = [&](Index a, Index b) {
    return g[static_cast<std::size_t>(a) * total + b];
  };
  RingDistanceMatrix ring(w, w);
  for (Index p = 0; p < total; ++p) {
    // Window point k is global point p - size + k (size before the
    // append, after the eviction AppendPoint performs when full).
    const Index first = std::max<Index>(0, p - (w - 1));
    ring.AppendPoint([&](Index k) { return at(p, first + k); },
                     [&](Index k) { return at(first + k, p); }, at(p, p));
  }
  const Index start = total - w;
  std::vector<double> window(static_cast<std::size_t>(w) * w);
  for (Index i = 0; i < w; ++i) {
    for (Index j = 0; j < w; ++j) {
      window[static_cast<std::size_t>(i) * w + j] = at(start + i, start + j);
    }
  }
  const DistanceMatrix dense =
      DistanceMatrix::FromValues(w, w, std::move(window)).value();
  ExpectViewsAgree(ring.View(), dense.View(), Single(3));
}

TEST(MatrixViewParityTest, WrappedCrossRingMatchesDenseWindow) {
  const Index rows = 20;
  const Index cols = 17;
  const Index total_rows = rows + 11;  // row head at 11
  const Index total_cols = cols + 9;   // column head at 9
  const Index span = std::max(total_rows, total_cols);
  const std::vector<double> g = RandomGlobal(span, 6160);
  const auto at = [&](Index a, Index b) {
    return g[static_cast<std::size_t>(a) * span + b];
  };
  RingDistanceMatrix ring(rows, cols);
  Index next_row = 0;
  Index next_col = 0;
  // Interleave the two sides so each append sees a partly filled,
  // partly wrapped opposite dimension.
  while (next_row < total_rows || next_col < total_cols) {
    if (next_row < total_rows && (next_row <= next_col ||
                                  next_col == total_cols)) {
      const Index first_col = next_col - ring.cols();
      ring.AppendRow([&](Index j) { return at(next_row, first_col + j); });
      ++next_row;
    } else {
      const Index first_row = next_row - ring.rows();
      ring.AppendCol([&](Index i) { return at(first_row + i, next_col); });
      ++next_col;
    }
  }
  const Index row_start = total_rows - rows;
  const Index col_start = total_cols - cols;
  std::vector<double> window(static_cast<std::size_t>(rows) * cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      window[static_cast<std::size_t>(i) * cols + j] =
          at(row_start + i, col_start + j);
    }
  }
  const DistanceMatrix dense =
      DistanceMatrix::FromValues(rows, cols, std::move(window)).value();
  ExpectViewsAgree(ring.View(), dense.View(), Cross(3));
}

}  // namespace
}  // namespace frechet_motif
