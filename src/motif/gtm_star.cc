#include "motif/gtm_star.h"

#include <algorithm>
#include <optional>
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

/// GTM* over either ground-distance accessor: a MatrixView (the test
/// entry point) or PointDistances (on the fly). `dist_bytes` is the
/// memory the accessor's owner retains.
template <typename Dist>
StatusOr<MotifResult> RunGtmStar(const Dist& dist, std::size_t dist_bytes,
                                 const GtmStarOptions& options,
                                 MotifStats* stats) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options.motif, n, m));
  if (options.group_size_tau < 1) {
    return Status::InvalidArgument("group_size_tau must be >= 1");
  }
  if (options.approximation_epsilon < 0.0) {
    return Status::InvalidArgument("approximation_epsilon must be >= 0");
  }
  // (1+ε) scale on every lower-bound prune; GUB tightenings contribute
  // gub·(1+ε) so the upper bound's witness stays unprunable (see
  // GtmOptions::approximation_epsilon).
  const double lb_scale = 1.0 + options.approximation_epsilon;
  const MotifOptions& motif = options.motif;

  Timer timer;
  if (stats != nullptr) stats->memory.Add(dist_bytes);

  // Worker pool for the bound sweep and the block verification batches;
  // absent (null) on the default threads=1 serial path.
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  const int threads = ResolveThreadCount(motif.threads);
  if (threads > 1) {
    pool_storage.emplace(threads);
    pool = &*pool_storage;
  }

  // Single grouping pass at τ (Idea iii) and O(n+m)-space relaxed bounds;
  // both scan the ground distances on the fly (Idea i).
  const Grouping grouping = Grouping::Build(dist, motif,
                                            options.group_size_tau);
  const RelaxedBounds rb = RelaxedBounds::Build(dist, motif, pool);
  if (stats != nullptr) {
    stats->memory.Add(grouping.MemoryBytes());
    stats->memory.Add(rb.MemoryBytes());
    stats->total_subsets = CountValidSubsets(motif, n, m);
    stats->precompute_seconds += timer.ElapsedSeconds();
  }

  timer.Restart();
  SearchState state;

  // Group-pair pruning, best-first by pattern bound.
  std::vector<GroupEntry> entries;
  for (Index u = 0; u < grouping.num_row_groups(); ++u) {
    for (Index v = 0; v < grouping.num_col_groups(); ++v) {
      if (!grouping.AdmitsCandidate(u, v)) continue;
      entries.push_back(GroupEntry{grouping.PatternLb(u, v), u, v});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const GroupEntry& a, const GroupEntry& b) {
              return a.lb < b.lb;
            });
  if (stats != nullptr) {
    stats->memory.Add(entries.capacity() * sizeof(GroupEntry));
  }

  std::vector<GroupEntry> survivors;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const GroupEntry& e = entries[k];
    if (stats != nullptr) ++stats->group_pairs_total;
    if (e.lb * lb_scale > state.threshold) {
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
    grouping.DfdBounds(e.u, e.v, state.threshold, &glb, &gub);
    if (gub * lb_scale < state.threshold) {
      state.threshold = gub * lb_scale;
      if (stats != nullptr) ++stats->gub_tightenings;
    }
    if (glb * lb_scale > state.threshold) {
      if (stats != nullptr) ++stats->group_pairs_pruned_dfd_bound;
      continue;
    }
    survivors.push_back(e);
  }

  // Point-level phase: process each surviving block with the bounded
  // best-first subset loop, keeping per-block memory at O(τ²). The
  // endpoint caps are global facts, so they persist across blocks.
  std::vector<SubsetEntry> block;
  EndpointCaps caps;
  for (const GroupEntry& e : survivors) {
    block.clear();
    for (Index i = grouping.RowFirst(e.u); i <= grouping.RowLast(e.u); ++i) {
      for (Index j = grouping.ColFirst(e.v); j <= grouping.ColLast(e.v);
           ++j) {
        if (!IsValidSubsetStart(motif, n, m, i, j)) continue;
        const double lb =
            std::max({dist.Distance(i, j), rb.StartCross(i, j),
                      rb.BandRow(j), rb.BandCol(i)});
        block.push_back(SubsetEntry{lb, i, j});
      }
    }
    RunSubsetQueue(dist, motif, &block, &rb, options.use_end_cross,
                   /*sort_entries=*/true, &state, stats, &caps,
                   lb_scale, pool);
  }
  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();

  MotifResult result;
  result.best = state.best;
  result.distance = state.best_distance;
  result.found = state.found;
  return result;
}

}  // namespace

StatusOr<MotifResult> GtmStarMotif(const DistanceMatrix& dist,
                                   const GtmStarOptions& options,
                                   MotifStats* stats) {
  return RunGtmStar(dist.View(), dist.MemoryBytes(), options, stats);
}

StatusOr<MotifResult> GtmStarMotif(const Trajectory& s,
                                   const GroundMetric& metric,
                                   const GtmStarOptions& options,
                                   MotifStats* stats) {
  const PointDistances dist(s, metric);
  return RunGtmStar(dist, dist.MemoryBytes(), options, stats);
}

StatusOr<MotifResult> GtmStarMotif(const Trajectory& s, const Trajectory& t,
                                   const GroundMetric& metric,
                                   const GtmStarOptions& options,
                                   MotifStats* stats) {
  GtmStarOptions cross_options = options;
  cross_options.motif.variant = MotifVariant::kCrossTrajectory;
  const PointDistances dist(s, t, metric);
  return RunGtmStar(dist, dist.MemoryBytes(), cross_options, stats);
}

}  // namespace frechet_motif
