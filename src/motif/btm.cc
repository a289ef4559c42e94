#include "motif/btm.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <vector>

#include "motif/bounds.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace frechet_motif {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relaxed-bound path: all bounds are O(1) after the precomputation pass,
/// so the combined bound of every subset is computed up front, the list is
/// sorted and handed to the shared best-first loop (Algorithm 2 verbatim).
MotifResult RunRelaxed(MatrixView dist, const BtmOptions& options,
                       const RelaxedBounds& rb, MotifStats* stats,
                       ThreadPool* pool) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  Timer timer;

  auto components = [&](Index i, Index j) {
    double cell = -kInf;
    double cross = -kInf;
    double band = -kInf;
    if (options.use_cell) cell = LbCell(dist, i, j);
    if (options.use_cross) cross = rb.StartCross(i, j);
    if (options.use_band) band = std::max(rb.BandRow(j), rb.BandCol(i));
    return std::array<double, 3>{cell, cross, band};
  };

  std::vector<SubsetEntry> entries;
  entries.reserve(
      static_cast<std::size_t>(CountValidSubsets(options.motif, n, m)));
  ForEachValidSubset(options.motif, n, m, [&](Index i, Index j) {
    entries.push_back(SubsetEntry{0.0, i, j});
  });
  FillSubsetBounds(&entries, pool, [&](Index i, Index j) {
    const auto c = components(i, j);
    return std::max({c[0], c[1], c[2]});
  });
  if (stats != nullptr) {
    stats->total_subsets = static_cast<std::int64_t>(entries.size());
    stats->memory.Add(entries.capacity() * sizeof(SubsetEntry));
    stats->memory.Add(2 * static_cast<std::size_t>(m) * sizeof(double));
    stats->precompute_seconds += timer.ElapsedSeconds();
  }

  timer.Restart();
  SearchState state;
  RunSubsetQueue(dist, options.motif, &entries, &rb, options.use_end_cross,
                 options.sort_subsets, &state, stats, /*caps=*/nullptr,
                 1.0 + options.approximation_epsilon, pool);
  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();

  // Figure 15 accounting: classify each subset by the first bound in the
  // cascade (cell -> cross -> band) exceeding the final threshold.
  if (stats != nullptr && options.collect_breakdown) {
    ForEachValidSubset(options.motif, n, m, [&](Index i, Index j) {
      const auto c = components(i, j);
      if (c[0] > state.threshold) {
        ++stats->pruned_by_cell;
      } else if (c[1] > state.threshold) {
        ++stats->pruned_by_cross;
      } else if (c[2] > state.threshold) {
        ++stats->pruned_by_band;
      }
    });
  }

  MotifResult result;
  result.best = state.best;
  result.distance = state.best_distance;
  result.found = state.found;
  return result;
}

/// Tight-bound path (the Section 4.2 variant benchmarked in Figures 13/14):
/// a tight cross bound costs O(n) and a tight band bound O(ξn), so they
/// cannot be computed for all O(n²) subsets up front. Instead the queue is
/// ordered by the O(1) cell bound and the expensive bounds are evaluated
/// lazily, per subset, in the cascade order — each either prunes the subset
/// or is followed by the shared DP.
MotifResult RunTight(MatrixView dist, const BtmOptions& options,
                     const RelaxedBounds* rb, MotifStats* stats,
                     ThreadPool* pool) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  Timer timer;

  std::vector<SubsetEntry> entries;
  entries.reserve(
      static_cast<std::size_t>(CountValidSubsets(options.motif, n, m)));
  ForEachValidSubset(options.motif, n, m, [&](Index i, Index j) {
    entries.push_back(SubsetEntry{0.0, i, j});
  });
  FillSubsetBounds(&entries, pool, [&](Index i, Index j) {
    return options.use_cell ? LbCell(dist, i, j) : -kInf;
  });
  if (options.sort_subsets) {
    std::sort(entries.begin(), entries.end(),
              [](const SubsetEntry& a, const SubsetEntry& b) {
                return a.lb < b.lb;
              });
  }
  if (stats != nullptr) {
    stats->total_subsets = static_cast<std::int64_t>(entries.size());
    stats->memory.Add(entries.capacity() * sizeof(SubsetEntry));
    stats->memory.Add(2 * static_cast<std::size_t>(m) * sizeof(double));
    stats->precompute_seconds += timer.ElapsedSeconds();
  }

  timer.Restart();
  SearchState state;
  const double lb_scale = 1.0 + options.approximation_epsilon;
  FrechetScratch scratch;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const SubsetEntry& e = entries[k];
    if (e.lb * lb_scale > state.threshold) {
      if (options.sort_subsets) {
        // Everything after this point has a cell bound above the threshold.
        if (stats != nullptr) {
          stats->pruned_by_cell +=
              static_cast<std::int64_t>(entries.size() - k);
        }
        break;
      }
      if (stats != nullptr) ++stats->pruned_by_cell;
      continue;
    }
    if (options.use_cross &&
        LbStartCross(dist, options.motif, e.i, e.j) * lb_scale >
            state.threshold) {
      if (stats != nullptr) ++stats->pruned_by_cross;
      continue;
    }
    if (options.use_band &&
        std::max(LbRowBand(dist, options.motif, e.i, e.j),
                 LbColBand(dist, options.motif, e.i, e.j)) *
                lb_scale >
            state.threshold) {
      if (stats != nullptr) ++stats->pruned_by_band;
      continue;
    }
    EvaluateSubset(dist, options.motif, e.i, e.j, rb, options.use_end_cross,
                   EndpointCaps{}, &state, stats, &scratch);
  }
  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();

  MotifResult result;
  result.best = state.best;
  result.distance = state.best_distance;
  result.found = state.found;
  return result;
}

}  // namespace

StatusOr<MotifResult> BtmMotif(const DistanceMatrix& dist,
                               const BtmOptions& options, MotifStats* stats) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options.motif, n, m));
  if (options.approximation_epsilon < 0.0) {
    return Status::InvalidArgument("approximation_epsilon must be >= 0");
  }

  if (stats != nullptr) stats->memory.Add(dist.MemoryBytes());

  // Worker pool for the bound sweep and the verification batches; absent
  // (null) on the default threads=1 serial path.
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  const int threads = ResolveThreadCount(options.motif.threads);
  if (threads > 1) {
    pool_storage.emplace(threads);
    pool = &*pool_storage;
  }

  // Relaxed-bound arrays serve both the relaxed subset bounds and the
  // end-cross / endpoint-cap pruning inside the DP.
  const bool need_relaxed = options.relaxed || options.use_end_cross;
  RelaxedBounds rb;
  if (need_relaxed) {
    Timer timer;
    rb = RelaxedBounds::Build(dist.View(), options.motif, pool);
    if (stats != nullptr) {
      stats->memory.Add(rb.MemoryBytes());
      stats->precompute_seconds += timer.ElapsedSeconds();
    }
  }

  if (options.relaxed) {
    return RunRelaxed(dist.View(), options, rb, stats, pool);
  }
  return RunTight(dist.View(), options, need_relaxed ? &rb : nullptr, stats,
                  pool);
}

StatusOr<MotifResult> BtmMotif(const Trajectory& s, const GroundMetric& metric,
                               const BtmOptions& options, MotifStats* stats) {
  Timer timer;
  StatusOr<DistanceMatrix> dg = DistanceMatrix::Build(s, metric);
  if (!dg.ok()) return dg.status();
  if (stats != nullptr) stats->precompute_seconds += timer.ElapsedSeconds();
  return BtmMotif(dg.value(), options, stats);
}

StatusOr<MotifResult> BtmMotif(const Trajectory& s, const Trajectory& t,
                               const GroundMetric& metric,
                               const BtmOptions& options, MotifStats* stats) {
  Timer timer;
  StatusOr<DistanceMatrix> dg = DistanceMatrix::Build(s, t, metric);
  if (!dg.ok()) return dg.status();
  if (stats != nullptr) stats->precompute_seconds += timer.ElapsedSeconds();
  BtmOptions cross_options = options;
  cross_options.motif.variant = MotifVariant::kCrossTrajectory;
  return BtmMotif(dg.value(), cross_options, stats);
}

}  // namespace frechet_motif
