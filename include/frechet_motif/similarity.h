#ifndef FRECHET_MOTIF_PUBLIC_SIMILARITY_H_
#define FRECHET_MOTIF_PUBLIC_SIMILARITY_H_

/// \file
/// Public similarity-measure surface: the discrete Fréchet distance (DFD)
/// kernels plus the comparison measures of the paper's Table 1.
///
/// The DFD entry points (`similarity/frechet.h`) are the heart of the
/// library:
///  * `DiscreteFrechet()` — exact DFD between two trajectories;
///  * `DiscreteFrechetOnRange()` — DFD of a subtrajectory pair over a
///    ground-distance matrix, with the threshold early-exit contract the
///    motif search builds on;
///  * `DiscreteFrechetAtMost()` — the decision kernel ("is DFD ≤ θ?") the
///    similarity join and clustering use;
///  * `DiscreteFrechetCoupling()` — an optimal point alignment, for
///    rendering *why* two subtrajectories match;
///  * `FrechetScratch` — reusable DP buffers that make every evaluation
///    allocation-free after warm-up (one per thread).
///
/// The comparison measures — lock-step Euclidean (`similarity/euclidean.h`),
/// DTW (`similarity/dtw.h`), LCSS (`similarity/lcss.h`) and EDR
/// (`similarity/edr.h`) — exist for the robustness experiments
/// (Table 1, Figure 3); motif discovery itself is DFD-only.

#include "similarity/dtw.h"
#include "similarity/edr.h"
#include "similarity/euclidean.h"
#include "similarity/frechet.h"
#include "similarity/lcss.h"

#endif  // FRECHET_MOTIF_PUBLIC_SIMILARITY_H_
