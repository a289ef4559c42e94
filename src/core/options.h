#ifndef FRECHET_MOTIF_CORE_OPTIONS_H_
#define FRECHET_MOTIF_CORE_OPTIONS_H_

#include <limits>
#include <ostream>

#include "core/trajectory.h"
#include "util/status.h"

namespace frechet_motif {

/// Which motif problem variant is being solved.
enum class MotifVariant {
  /// Problem 1: both subtrajectories come from the same trajectory and must
  /// not overlap (i < ie < j < je).
  kSingleTrajectory,
  /// The variant of Section 3: subtrajectories come from two different
  /// trajectories; no ordering constraint links their index ranges.
  kCrossTrajectory,
};

/// Options shared by every motif-discovery algorithm.
///
/// `min_length_xi` is the paper's ξ: a candidate (i, ie, j, je) is valid iff
/// ie > i + ξ and je > j + ξ (so each subtrajectory spans at least ξ+2
/// points), non-overlap ie < j for the single-trajectory variant, and
/// indices stay inside the trajectory.
struct MotifOptions {
  /// Minimum motif length ξ (paper default: 100). Must be >= 1.
  Index min_length_xi = 100;

  /// Problem variant.
  MotifVariant variant = MotifVariant::kSingleTrajectory;

  /// Worker threads for the bound-precomputation sweep and the subset
  /// verification batches. 1 (default) runs the canonical serial path;
  /// 0 means "all hardware threads". Results are bit-identical for every
  /// setting: work is partitioned statically and merged in a fixed order.
  /// With threads > 1 the ground distances are read concurrently: the
  /// matrices are read-only during a search, and a GroundMetric used for
  /// on-the-fly distances (GTM*) must be safe for concurrent const access
  /// — true of every metric in this library, but a custom metric with
  /// mutable state (e.g. a memoization cache) must synchronize internally.
  int threads = 1;
};

/// Validates options against input sizes `n` (rows) and `m` (columns; pass
/// n for the single-trajectory variant). Returns InvalidArgument when no
/// valid candidate can exist.
Status ValidateMotifInput(const MotifOptions& options, Index n, Index m);

/// A motif candidate: the pair of subtrajectories (S[i..ie], T[j..je]).
struct Candidate {
  Index i = 0;
  Index ie = 0;
  Index j = 0;
  Index je = 0;

  friend bool operator==(const Candidate& a, const Candidate& b) {
    return a.i == b.i && a.ie == b.ie && a.j == b.j && a.je == b.je;
  }
};

/// The canonical candidate order used to break exact distance ties:
/// lexicographic on (i, j, ie, je) — subset start pair first, matching the
/// (lb, i, j) order of the search queue, then endpoints. Every search path
/// (serial, threaded, streaming-carried, from-scratch) resolves equal-DFD
/// candidates to the minimum under this order, which is what makes their
/// answers bit-identical even on adversarial tied data.
inline bool CandidateOrderedBefore(const Candidate& a, const Candidate& b) {
  if (a.i != b.i) return a.i < b.i;
  if (a.j != b.j) return a.j < b.j;
  if (a.ie != b.ie) return a.ie < b.ie;
  return a.je < b.je;
}

std::ostream& operator<<(std::ostream& os, const Candidate& c);

/// True iff `c` satisfies the validity constraints for the given options and
/// sizes (see MotifOptions).
bool IsValidCandidate(const Candidate& c, const MotifOptions& options,
                      Index n, Index m);

/// Result of a motif search.
struct MotifResult {
  /// The best pair found. Meaningful only when found is true.
  Candidate best;

  /// Its exact discrete Fréchet distance.
  double distance = std::numeric_limits<double>::infinity();

  /// False iff the input admits no valid candidate (guarded by
  /// ValidateMotifInput, so normally true).
  bool found = false;

  /// Convenience accessors for the two subtrajectories.
  SubtrajectoryRef first() const { return {best.i, best.ie}; }
  SubtrajectoryRef second() const { return {best.j, best.je}; }
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_CORE_OPTIONS_H_
