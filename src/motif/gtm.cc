#include "motif/gtm.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "motif/group.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace frechet_motif {

namespace {

struct GroupEntry {
  double lb = 0.0;
  Index u = 0;
  Index v = 0;
};

/// One pruning round at the current τ: filters `pairs` down to the
/// survivors, tightening the threshold with GUB_DFD along the way
/// (Algorithm 3 lines 3-13).
///
/// `lb_scale` = 1+ε implements the approximate mode: lower-bound prunes
/// fire at lb·(1+ε) > threshold, and a GUB tightening contributes
/// gub·(1+ε) so the candidate witnessing the upper bound (dF <= gub, see
/// Grouping::DfdBounds) can never be ε-pruned — its containing pair's
/// glb <= gub keeps glb·(1+ε) <= gub·(1+ε) <= threshold at every round,
/// which preserves both found-ness and the (1+ε) result guarantee.
std::vector<std::pair<Index, Index>> PruneGroupPairs(
    const Grouping& grouping, const std::vector<std::pair<Index, Index>>& pairs,
    double lb_scale, SearchState* state, MotifStats* stats) {
  std::vector<GroupEntry> entries;
  entries.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    if (!grouping.AdmitsCandidate(u, v)) continue;
    entries.push_back(GroupEntry{grouping.PatternLb(u, v), u, v});
  }
  std::sort(entries.begin(), entries.end(),
            [](const GroupEntry& a, const GroupEntry& b) {
              return a.lb < b.lb;
            });

  std::vector<std::pair<Index, Index>> survivors;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const GroupEntry& e = entries[k];
    if (stats != nullptr) ++stats->group_pairs_total;
    if (e.lb * lb_scale > state->threshold) {
      // Sorted queue: every remaining pattern bound is at least as large.
      if (stats != nullptr) {
        stats->group_pairs_pruned_pattern +=
            static_cast<std::int64_t>(entries.size() - k);
        stats->group_pairs_total +=
            static_cast<std::int64_t>(entries.size() - k - 1);
      }
      break;
    }
    double glb = 0.0;
    double gub = 0.0;
    grouping.DfdBounds(e.u, e.v, state->threshold, &glb, &gub);
    if (gub * lb_scale < state->threshold) {
      state->threshold = gub * lb_scale;
      if (stats != nullptr) ++stats->gub_tightenings;
    }
    if (glb * lb_scale > state->threshold) {
      if (stats != nullptr) ++stats->group_pairs_pruned_dfd_bound;
      continue;
    }
    survivors.emplace_back(e.u, e.v);
  }
  return survivors;
}

}  // namespace

StatusOr<MotifResult> GtmMotif(const DistanceMatrix& dist,
                               const GtmOptions& options, MotifStats* stats) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options.motif, n, m));
  if (options.group_size_tau < 1) {
    return Status::InvalidArgument("group_size_tau must be >= 1");
  }
  if (options.approximation_epsilon < 0.0) {
    return Status::InvalidArgument("approximation_epsilon must be >= 0");
  }
  const double lb_scale = 1.0 + options.approximation_epsilon;

  Timer timer;
  if (stats != nullptr) stats->memory.Add(dist.MemoryBytes());

  // Worker pool for the bound sweeps and the final verification phase;
  // absent (null) on the default threads=1 serial path.
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  const int threads = ResolveThreadCount(options.motif.threads);
  if (threads > 1) {
    pool_storage.emplace(threads);
    pool = &*pool_storage;
  }

  // Point-level relaxed bounds, used in the final phase and for end-cross
  // pruning inside the shared DP.
  const MatrixView view = dist.View();
  const RelaxedBounds rb = RelaxedBounds::Build(view, options.motif, pool);
  if (stats != nullptr) {
    stats->memory.Add(rb.MemoryBytes());
    stats->total_subsets = CountValidSubsets(options.motif, n, m);
    stats->precompute_seconds += timer.ElapsedSeconds();
  }

  timer.Restart();
  SearchState state;

  // Multi-level grouping loop (Algorithm 3 lines 2-14).
  Index tau = options.group_size_tau;
  std::vector<std::pair<Index, Index>> pairs;
  bool have_pairs = false;
  while (tau > 1) {
    const Grouping grouping = Grouping::Build(view, options.motif, tau);
    const ScopedAllocation grouping_mem(
        stats != nullptr ? &stats->memory : nullptr, grouping.MemoryBytes());
    if (!have_pairs) {
      // First round: every group pair is a candidate.
      for (Index u = 0; u < grouping.num_row_groups(); ++u) {
        for (Index v = 0; v < grouping.num_col_groups(); ++v) {
          pairs.emplace_back(u, v);
        }
      }
      have_pairs = true;
    }
    const std::vector<std::pair<Index, Index>> survivors =
        PruneGroupPairs(grouping, pairs, lb_scale, &state, stats);

    // Halve τ: each survivor splits into the child pairs whose point spans
    // intersect the parent's (Algorithm 3 line 14). For odd τ the child
    // span per axis covers three groups, not two.
    const Index parent_tau = tau;
    tau /= 2;
    pairs.clear();
    const Index child_nu = (n + tau - 1) / tau;
    const Index child_nv = (m + tau - 1) / tau;
    for (const auto& [u, v] : survivors) {
      const Index cu_lo = (u * parent_tau) / tau;
      const Index cu_hi =
          std::min<Index>(((u + 1) * parent_tau - 1) / tau, child_nu - 1);
      const Index cv_lo = (v * parent_tau) / tau;
      const Index cv_hi =
          std::min<Index>(((v + 1) * parent_tau - 1) / tau, child_nv - 1);
      for (Index cu = cu_lo; cu <= cu_hi; ++cu) {
        for (Index cv = cv_lo; cv <= cv_hi; ++cv) {
          pairs.emplace_back(cu, cv);
        }
      }
    }
  }

  // Final phase (Algorithm 3 line 15): the surviving cells are candidate
  // subsets; run the best-first bounded search of Algorithm 2 on them.
  std::vector<SubsetEntry> entries;
  const MotifOptions& motif = options.motif;
  auto add_entry = [&](Index i, Index j) {
    entries.push_back(SubsetEntry{0.0, i, j});
  };
  if (have_pairs) {
    for (const auto& [i, j] : pairs) {
      if (IsValidSubsetStart(motif, n, m, i, j)) add_entry(i, j);
    }
  } else {
    // τ was 1 from the start: degenerate to plain BTM over all subsets.
    ForEachValidSubset(motif, n, m, add_entry);
  }
  // Bound sweep over the surviving subsets, sharded when a pool is given.
  FillSubsetBounds(&entries, pool, [&](Index i, Index j) {
    return std::max({view.Distance(i, j), rb.StartCross(i, j), rb.BandRow(j),
                     rb.BandCol(i)});
  });
  if (stats != nullptr) {
    stats->memory.Add(entries.capacity() * sizeof(SubsetEntry));
  }
  RunSubsetQueue(view, motif, &entries, &rb, options.use_end_cross,
                 /*sort_entries=*/true, &state, stats, /*caps=*/nullptr,
                 lb_scale, pool);
  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();

  MotifResult result;
  result.best = state.best;
  result.distance = state.best_distance;
  result.found = state.found;
  return result;
}

StatusOr<MotifResult> GtmMotif(const Trajectory& s, const GroundMetric& metric,
                               const GtmOptions& options, MotifStats* stats) {
  Timer timer;
  StatusOr<DistanceMatrix> dg = DistanceMatrix::Build(s, metric);
  if (!dg.ok()) return dg.status();
  if (stats != nullptr) stats->precompute_seconds += timer.ElapsedSeconds();
  return GtmMotif(dg.value(), options, stats);
}

StatusOr<MotifResult> GtmMotif(const Trajectory& s, const Trajectory& t,
                               const GroundMetric& metric,
                               const GtmOptions& options, MotifStats* stats) {
  Timer timer;
  StatusOr<DistanceMatrix> dg = DistanceMatrix::Build(s, t, metric);
  if (!dg.ok()) return dg.status();
  if (stats != nullptr) stats->precompute_seconds += timer.ElapsedSeconds();
  GtmOptions cross_options = options;
  cross_options.motif.variant = MotifVariant::kCrossTrajectory;
  return GtmMotif(dg.value(), cross_options, stats);
}

}  // namespace frechet_motif
