#ifndef FRECHET_MOTIF_MOTIF_BOUNDS_H_
#define FRECHET_MOTIF_MOTIF_BOUNDS_H_

#include "core/distance_matrix.h"
#include "core/options.h"

namespace frechet_motif {

/// Tight pattern-based lower bounds of Section 4.2.
///
/// Every function lower-bounds dF(i, ie, j, je) for all *valid* candidates
/// in the candidate subset CS(i,j) (band bounds additionally use the minimum
/// motif length ξ). When the subset admits no valid candidate the functions
/// may return +infinity, which safely disqualifies it.
///
/// Index convention: the first subtrajectory index (i, ie) selects the *row
/// point* of the ground-distance matrix and the second (j, je) the *column point*,
/// matching dG(i, j) in the paper. The admissible ranges of the path-crossing
/// argument depend on the problem variant (single-trajectory candidates obey
/// ie < j), which is why the options are threaded through.

/// LB_cell(i,j) = dG(i,j): the path leading to any candidate's DFD starts at
/// cell (i, j) (Observation 2). O(1).
double LbCell(MatrixView dist, Index i, Index j);

/// LB_row(i,j) = min over admissible first-indices c of dG(c, j+1): every
/// path out of (i,j) crosses row j+1 (Observation 3). O(n).
double LbRow(MatrixView dist, const MotifOptions& options,
             Index i, Index j);

/// LB_col(i,j) = min over admissible second-indices r of dG(i+1, r): every
/// path crosses column i+1 (Observation 3). O(m).
double LbCol(MatrixView dist, const MotifOptions& options,
             Index i, Index j);

/// LB_cross^start(i,j) = max(LB_row, LB_col)  (Equation 4).
double LbStartCross(MatrixView dist, const MotifOptions& options,
                    Index i, Index j);

/// LB_band^row(i,j) = max over j' in [j, j+ξ-1] of LB_row(i, j'): with the
/// minimum length constraint the path crosses each of rows j+1..j+ξ
/// (Observation 4, Equation 5). O(ξ·n).
double LbRowBand(MatrixView dist, const MotifOptions& options,
                 Index i, Index j);

/// LB_band^col(i,j) = max over i' in [i, i+ξ-1] of LB_col(i', j)
/// (Equation 6). O(ξ·m).
double LbColBand(MatrixView dist, const MotifOptions& options,
                 Index i, Index j);

/// End-cell cross bound (Equation 9): lower-bounds dF(i, ic, j, jc) for all
/// candidates of CS(i,j) that end strictly beyond (ie, je) in both
/// dimensions (ic > ie and jc > je). O(n + m).
double LbEndCross(MatrixView dist, const MotifOptions& options,
                  Index i, Index j, Index ie, Index je);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_BOUNDS_H_
