#include "motif/relaxed_bounds.h"

#include <algorithm>
#include <deque>
#include <limits>

namespace frechet_motif {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::vector<double> SlidingWindowMax(const std::vector<double>& values,
                                     Index window) {
  const Index n = static_cast<Index>(values.size());
  std::vector<double> out(values.size(), kInf);
  if (window <= 0 || window > n) return out;
  // Monotone deque of indices with decreasing values.
  std::deque<Index> dq;
  for (Index k = 0; k < n; ++k) {
    while (!dq.empty() && values[dq.back()] <= values[k]) dq.pop_back();
    dq.push_back(k);
    const Index start = k - window + 1;
    if (start >= 0) {
      if (dq.front() < start) dq.pop_front();
      out[start] = values[dq.front()];
    }
  }
  return out;
}

template <typename Dist>
RelaxedBounds RelaxedBounds::Build(const Dist& dist,
                                   const MotifOptions& options,
                                   ThreadPool* pool) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  const bool single = options.variant == MotifVariant::kSingleTrajectory;

  RelaxedBounds rb;
  rb.rmin_.assign(m, kInf);
  rb.rmin_full_.assign(m, kInf);
  rb.cmin_.assign(n, kInf);
  rb.cmin_full_.assign(n, kInf);
  rb.cmin_start_.assign(n, kInf);

  // Rmin[j]: scan column j+1 over the admissible first-index prefix. Each
  // j writes only its own output slots, so the sweep shards freely.
  const auto rmin_sweep = [&](Index j_lo, Index j_hi) {
    for (Index j = j_lo; j < j_hi; ++j) {
      if (j + 1 > m - 1) continue;
      const Index c_restricted_hi = single ? j - 1 : n - 1;
      double full = kInf;
      double restricted = kInf;
      for (Index c = 0; c <= n - 1; ++c) {
        const double d = dist.Distance(c, j + 1);
        full = std::min(full, d);
        if (c <= c_restricted_hi) restricted = std::min(restricted, d);
      }
      rb.rmin_full_[j] = full;
      rb.rmin_[j] = restricted;
    }
  };

  // Cmin[i]: scan row i+1 over the admissible second-index suffix. Two
  // restrictions coexist (see header): end-cell queries admit j >= i+1,
  // start-cell and band queries admit j >= i+3.
  const auto cmin_sweep = [&](Index i_lo, Index i_hi) {
    for (Index i = i_lo; i < i_hi; ++i) {
      if (i + 1 > n - 1) continue;
      const Index r_end_lo = single ? i + 1 : 0;
      const Index r_start_lo = single ? i + 3 : 0;
      double full = kInf;
      double end_restricted = kInf;
      double start_restricted = kInf;
      for (Index r = 0; r <= m - 1; ++r) {
        const double d = dist.Distance(i + 1, r);
        full = std::min(full, d);
        if (r >= r_end_lo) end_restricted = std::min(end_restricted, d);
        if (r >= r_start_lo) start_restricted = std::min(start_restricted, d);
      }
      rb.cmin_full_[i] = full;
      rb.cmin_[i] = end_restricted;
      rb.cmin_start_[i] = start_restricted;
    }
  };

  if (pool != nullptr && pool->threads() > 1) {
    pool->ParallelFor(m, [&](int, std::int64_t lo, std::int64_t hi) {
      rmin_sweep(static_cast<Index>(lo), static_cast<Index>(hi));
    });
    pool->ParallelFor(n, [&](int, std::int64_t lo, std::int64_t hi) {
      cmin_sweep(static_cast<Index>(lo), static_cast<Index>(hi));
    });
  } else {
    rmin_sweep(0, m);
    cmin_sweep(0, n);
  }

  rb.band_row_ = SlidingWindowMax(rb.rmin_, options.min_length_xi);
  rb.band_col_ = SlidingWindowMax(rb.cmin_start_, options.min_length_xi);
  return rb;
}

template RelaxedBounds RelaxedBounds::Build(const MatrixView&,
                                            const MotifOptions&, ThreadPool*);
template RelaxedBounds RelaxedBounds::Build(const PointDistances&,
                                            const MotifOptions&, ThreadPool*);

RelaxedBounds RelaxedBounds::FromComponents(std::vector<double> rmin,
                                            std::vector<double> cmin,
                                            std::vector<double> cmin_start,
                                            std::vector<double> rmin_full,
                                            std::vector<double> cmin_full,
                                            Index min_length_xi) {
  RelaxedBounds rb;
  rb.rmin_ = std::move(rmin);
  rb.cmin_ = std::move(cmin);
  rb.cmin_start_ = std::move(cmin_start);
  rb.rmin_full_ = std::move(rmin_full);
  rb.cmin_full_ = std::move(cmin_full);
  rb.band_row_ = SlidingWindowMax(rb.rmin_, min_length_xi);
  rb.band_col_ = SlidingWindowMax(rb.cmin_start_, min_length_xi);
  return rb;
}

std::size_t RelaxedBounds::MemoryBytes() const {
  return (rmin_.capacity() + cmin_.capacity() + cmin_start_.capacity() +
          rmin_full_.capacity() +
          cmin_full_.capacity() + band_row_.capacity() +
          band_col_.capacity()) *
         sizeof(double);
}

}  // namespace frechet_motif
