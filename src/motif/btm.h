#ifndef FRECHET_MOTIF_MOTIF_BTM_H_
#define FRECHET_MOTIF_MOTIF_BTM_H_

/// BTM, the bounding-based trajectory motif algorithm (the paper's
/// Algorithm 2): precompute DFD lower bounds per candidate subset, process
/// subsets best-first, prune with the bound cascade (LB_cell, cross, band —
/// tight per Section 4.2 or relaxed per Section 4.3), and share the DFD
/// dynamic program within each surviving subset. Exact; the BtmOptions
/// toggles exist for the paper's ablation figures. Most applications
/// should call FindMotif (motif/motif.h) instead of BtmMotif directly.

#include "core/distance_matrix.h"
#include "core/options.h"
#include "core/trajectory.h"
#include "geo/metric.h"
#include "motif/stats.h"
#include "util/status.h"

namespace frechet_motif {

/// Configuration of the bounding-based trajectory motif algorithm
/// (Algorithm 2). The bound toggles exist for the paper's ablations:
/// Figure 13/14 compare `relaxed` on/off; Figure 16 compares the
/// cell / cell+cross / cell+cross+band combinations.
struct BtmOptions {
  MotifOptions motif;

  /// Enables LB_cell for subset pruning.
  bool use_cell = true;
  /// Enables the start-cross bound.
  bool use_cross = true;
  /// Enables the band bounds.
  bool use_band = true;
  /// True: O(1)-amortized relaxed bounds (Section 4.3).
  /// False: tight bounds (Section 4.2; O(n)/O(ξn) per subset).
  bool relaxed = true;
  /// Enables end-cell cross pruning inside the shared DP (Equation 9) and
  /// the global endpoint caps of Algorithm 2 lines 12-13.
  bool use_end_cross = true;
  /// Processes subsets in ascending lower-bound order (best-first). The
  /// paper's Algorithm 2 always sorts; disabling isolates the contribution
  /// of the search order in ablations.
  bool sort_subsets = true;
  /// When set (and `stats` is passed), performs a post-search pass that
  /// classifies every subset by the first bound — cell, cross, band, in the
  /// cascade order — exceeding the final threshold (Figure 15's breakdown).
  /// Costs one extra bound evaluation per subset.
  bool collect_breakdown = false;

  /// Approximation knob (the paper's Section 7 future-work direction,
  /// "trade exactness for shorter running times"): with ε > 0 a candidate
  /// subset is pruned as soon as its lower bound exceeds threshold/(1+ε),
  /// and the returned motif distance is guaranteed to be at most (1+ε)
  /// times the optimum. 0 (default) keeps BTM exact.
  double approximation_epsilon = 0.0;
};

/// BTM (Algorithm 2): computes all lower bounds, processes candidate
/// subsets best-first, prunes with the bounds, and shares DFD computation
/// within each subset. Exact: returns the same distance as BruteDpMotif.
///
/// `stats` may be null. Returns InvalidArgument when the input admits no
/// valid candidate.
StatusOr<MotifResult> BtmMotif(const DistanceMatrix& dist,
                               const BtmOptions& options,
                               MotifStats* stats = nullptr);

/// Convenience overload: precomputes the dG matrix for `s` and solves
/// Problem 1.
StatusOr<MotifResult> BtmMotif(const Trajectory& s, const GroundMetric& metric,
                               const BtmOptions& options,
                               MotifStats* stats = nullptr);

/// Convenience overload for the two-trajectory variant (sets
/// options.motif.variant accordingly).
StatusOr<MotifResult> BtmMotif(const Trajectory& s, const Trajectory& t,
                               const GroundMetric& metric,
                               const BtmOptions& options,
                               MotifStats* stats = nullptr);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_BTM_H_
