#include "motif/bounds.h"

#include <algorithm>
#include <limits>

namespace frechet_motif {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest admissible first-index (column of the dG-matrix path picture) a
/// candidate of CS(i,j) can reach: j-1 under the single-trajectory overlap
/// constraint ie < j, the last point otherwise.
Index MaxFirstIndex(MatrixView dist, const MotifOptions& options,
                    Index j) {
  return options.variant == MotifVariant::kSingleTrajectory ? j - 1
                                                            : dist.rows() - 1;
}

}  // namespace

double LbCell(MatrixView dist, Index i, Index j) {
  return dist.Distance(i, j);
}

double LbRow(MatrixView dist, const MotifOptions& options,
             Index i, Index j) {
  // Every path from (i,j) to a candidate endpoint crosses row j+1 at some
  // first-index c in [i, ic] ⊆ [i, MaxFirstIndex].
  if (j + 1 > dist.cols() - 1) return kInf;
  const Index c_hi = MaxFirstIndex(dist, options, j);
  if (c_hi < i) return kInf;
  double best = kInf;
  for (Index c = i; c <= c_hi; ++c) {
    best = std::min(best, dist.Distance(c, j + 1));
  }
  return best;
}

double LbCol(MatrixView dist, const MotifOptions& options,
             Index i, Index j) {
  // Every path from (i,j) crosses column i+1 at some second-index r in
  // [j, je] ⊆ [j, m-1].
  (void)options;
  if (i + 1 > dist.rows() - 1) return kInf;
  double best = kInf;
  for (Index r = j; r <= dist.cols() - 1; ++r) {
    best = std::min(best, dist.Distance(i + 1, r));
  }
  return best;
}

double LbStartCross(MatrixView dist, const MotifOptions& options,
                    Index i, Index j) {
  return std::max(LbRow(dist, options, i, j), LbCol(dist, options, i, j));
}

double LbRowBand(MatrixView dist, const MotifOptions& options,
                 Index i, Index j) {
  // Valid candidates satisfy je > j+ξ, so the path crosses each of rows
  // j+1 .. j+ξ; take the strongest of those row bounds.
  const Index xi = options.min_length_xi;
  if (j + xi > dist.cols() - 1) return kInf;  // no valid candidate
  double best = 0.0;
  for (Index jp = j; jp <= j + xi - 1; ++jp) {
    best = std::max(best, LbRow(dist, options, i, jp));
  }
  return best;
}

double LbColBand(MatrixView dist, const MotifOptions& options,
                 Index i, Index j) {
  const Index xi = options.min_length_xi;
  if (i + xi > dist.rows() - 1) return kInf;  // no valid candidate
  double best = 0.0;
  for (Index ip = i; ip <= i + xi - 1; ++ip) {
    best = std::max(best, LbCol(dist, options, ip, j));
  }
  return best;
}

double LbEndCross(MatrixView dist, const MotifOptions& options,
                  Index i, Index j, Index ie, Index je) {
  // Candidates of CS(i,j) with ic > ie and jc > je must cross row je+1
  // (at first-index in [i, MaxFirstIndex]) and column ie+1 (at second-index
  // in [j, m-1]).
  double row_part = kInf;
  if (je + 1 <= dist.cols() - 1) {
    const Index c_hi = MaxFirstIndex(dist, options, j);
    row_part = kInf;
    for (Index c = i; c <= c_hi; ++c) {
      row_part = std::min(row_part, dist.Distance(c, je + 1));
    }
  }
  double col_part = kInf;
  if (ie + 1 <= dist.rows() - 1) {
    col_part = kInf;
    for (Index r = j; r <= dist.cols() - 1; ++r) {
      col_part = std::min(col_part, dist.Distance(ie + 1, r));
    }
  }
  return std::max(row_part, col_part);
}

}  // namespace frechet_motif
