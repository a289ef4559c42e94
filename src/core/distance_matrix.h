#ifndef FRECHET_MOTIF_CORE_DISTANCE_MATRIX_H_
#define FRECHET_MOTIF_CORE_DISTANCE_MATRIX_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "core/trajectory.h"
#include "geo/great_circle.h"
#include "geo/metric.h"
#include "util/status.h"

namespace frechet_motif {

/// Read-only view of a ground-distance matrix dG[i][j] between point i of
/// a "row" trajectory and point j of a "column" trajectory (for the
/// single-trajectory motif problem both roles are played by the same
/// trajectory). The paper reads one precomputed dG in BruteDP, BTM and GTM;
/// this is how the search kernels read it.
///
/// The view is trivially copyable and does not own its storage. It covers
/// both materialized layouts: a DistanceMatrix (heads 0, capacities equal
/// to the dimensions) and the sliding-window RingDistanceMatrix, whose
/// logical index (i, j) lives at physical slot
/// ((i + row_head) mod row_capacity, (j + col_head) mod col_capacity) of a
/// row-major buffer with stride col_capacity. The wrap is one compare per
/// axis, no modulo; with zero heads it never fires.
class MatrixView {
 public:
  MatrixView(const double* data, Index rows, Index cols, Index row_head,
             Index col_head, Index row_capacity, Index col_capacity)
      : data_(data),
        rows_(rows),
        cols_(cols),
        row_head_(row_head),
        col_head_(col_head),
        row_capacity_(row_capacity),
        col_capacity_(col_capacity) {}

  /// dG between row point i and column point j.
  double Distance(Index i, Index j) const {
    Index r = row_head_ + i;
    if (r >= row_capacity_) r -= row_capacity_;
    Index c = col_head_ + j;
    if (c >= col_capacity_) c -= col_capacity_;
    return data_[static_cast<std::size_t>(r) * col_capacity_ + c];
  }

  /// Number of row points (n).
  Index rows() const { return rows_; }

  /// Number of column points (m; equals rows() for the single-trajectory
  /// problem).
  Index cols() const { return cols_; }

 private:
  const double* data_;
  Index rows_;
  Index cols_;
  Index row_head_;
  Index col_head_;
  Index row_capacity_;
  Index col_capacity_;
};

/// Fully materialized dG matrix — the paper's "precompute all pairs of
/// ground distances and store them in matrix dG[·][·]" optimization.
class DistanceMatrix {
 public:
  /// Precomputes dG over all pairs of `s` (rows) and `t` (columns) points.
  /// Returns InvalidArgument when either trajectory is empty.
  static StatusOr<DistanceMatrix> Build(const Trajectory& s,
                                        const Trajectory& t,
                                        const GroundMetric& metric);

  /// Self-distance matrix for the single-trajectory problem.
  static StatusOr<DistanceMatrix> Build(const Trajectory& s,
                                        const GroundMetric& metric);

  /// Wraps an explicit matrix (row-major, `rows x cols`). Used by tests to
  /// reproduce the paper's worked examples (e.g. Figure 5). Returns
  /// InvalidArgument when the data size does not equal rows*cols or either
  /// dimension is zero.
  static StatusOr<DistanceMatrix> FromValues(Index rows, Index cols,
                                             std::vector<double> values);

  double Distance(Index i, Index j) const {
    return values_[static_cast<std::size_t>(i) * cols_ + j];
  }

  /// Contiguous row-major span of row i: Row(i)[j] == Distance(i, j) for
  /// j in [0, cols()). The DFD kernels walk it with plain pointer
  /// arithmetic.
  const double* Row(Index i) const {
    return values_.data() + static_cast<std::size_t>(i) * cols_;
  }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  /// Bytes of memory retained by the matrix (for Figure 19 accounting).
  std::size_t MemoryBytes() const {
    return values_.capacity() * sizeof(double);
  }

  /// The view the search kernels read (heads 0, no wrap).
  MatrixView View() const {
    return MatrixView(values_.data(), rows_, cols_, 0, 0, rows_, cols_);
  }

 private:
  DistanceMatrix(Index rows, Index cols, std::vector<double> values)
      : rows_(rows), cols_(cols), values_(std::move(values)) {}

  Index rows_;
  Index cols_;
  std::vector<double> values_;
};

/// Bounded sliding-window ground-distance matrix whose storage is reused
/// as a ring buffer: appending a point writes one fresh row (and, for the
/// self-matrix of the single-trajectory problem, one column) of ground
/// distances, and evicting the oldest point is O(1) head advancement —
/// surviving cells are never recomputed and the buffer is never
/// reallocated. Logical index (i, j) maps to physical slot
/// ((i + row_head) mod row_capacity, (j + col_head) mod col_capacity), so
/// algorithms see an ordinary MatrixView (View()) over the current window.
///
/// This is the incremental-matrix API behind StreamingMotifMonitor
/// (src/stream/): a window slide costs O(s·W) metric evaluations instead
/// of the O(W²) a from-scratch DistanceMatrix::Build pays. Cells are
/// bit-identical to Build's because the caller computes them with the
/// same metric on the same points — so every motif algorithm returns
/// identical results over either matrix.
class RingDistanceMatrix {
 public:
  /// A fixed-capacity rows x cols buffer; both capacities must be >= 1.
  RingDistanceMatrix(Index row_capacity, Index col_capacity);

  double Distance(Index i, Index j) const {
    return values_[static_cast<std::size_t>(PhysicalRow(i)) * col_capacity_ +
                   PhysicalCol(j)];
  }
  Index rows() const { return row_size_; }
  Index cols() const { return col_size_; }
  std::size_t MemoryBytes() const {
    return values_.capacity() * sizeof(double);
  }

  /// The current window as a MatrixView; valid until the next append.
  MatrixView View() const {
    return MatrixView(values_.data(), row_size_, col_size_, row_head_,
                      col_head_, row_capacity_, col_capacity_);
  }

  Index row_capacity() const { return row_capacity_; }
  Index col_capacity() const { return col_capacity_; }

  /// Appends a logical row at index rows(), evicting logical row 0 first
  /// when at capacity. `value_of_col(j)` must return the ground distance
  /// between the new row point and the current column point j, for
  /// j in [0, cols()).
  void AppendRow(const std::function<double(Index)>& value_of_col);

  /// Column counterpart of AppendRow: `value_of_row(i)` is the distance
  /// between row point i and the new column point.
  void AppendCol(const std::function<double(Index)>& value_of_row);

  /// Self-matrix form (square capacities, rows() == cols()): appends one
  /// point as the last row *and* last column in a single step, evicting
  /// the oldest point from both dimensions when full.
  /// `dist_new_to_k(k)` fills the new row (new point is the row point),
  /// `dist_k_to_new(k)` the new column, and `self_distance` the diagonal
  /// cell — the argument split keeps asymmetric metrics honest.
  void AppendPoint(const std::function<double(Index)>& dist_new_to_k,
                   const std::function<double(Index)>& dist_k_to_new,
                   double self_distance);

  /// Buffer counterparts of the append methods: the caller computes the
  /// fresh cells into a contiguous buffer (e.g. with
  /// SphereVecDistanceBatch) and the ring bulk-copies them — contiguous
  /// segment copies for a row, strided stores for a column — instead of
  /// paying one std::function dispatch per cell. Identical eviction and
  /// cell semantics to the std::function forms.
  /// `values[j]` for j in [0, cols()) fills the new row.
  void AppendRowFromBuffer(const double* values);
  /// `values[i]` for i in [0, rows()) fills the new column.
  void AppendColFromBuffer(const double* values);
  /// `new_to_k[k]` / `k_to_new[k]` for k in [0, rows()) fill the new row /
  /// column (pass the same buffer twice for a symmetric metric);
  /// `self_distance` fills the diagonal cell.
  void AppendPointFromBuffers(const double* new_to_k, const double* k_to_new,
                              double self_distance);

 private:
  Index PhysicalRow(Index i) const {
    const Index p = row_head_ + i;
    return p >= row_capacity_ ? p - row_capacity_ : p;
  }
  Index PhysicalCol(Index j) const {
    const Index p = col_head_ + j;
    return p >= col_capacity_ ? p - col_capacity_ : p;
  }
  double* Cell(Index i, Index j) {
    return values_.data() +
           static_cast<std::size_t>(PhysicalRow(i)) * col_capacity_ +
           PhysicalCol(j);
  }

  /// Bulk writes of logical row i / column j from a contiguous buffer of
  /// `count` values, splitting at the ring wrap point.
  void WriteRowFromBuffer(Index i, const double* values, Index count);
  void WriteColFromBuffer(Index j, const double* values, Index count);

  Index row_capacity_;
  Index col_capacity_;
  Index row_head_ = 0;
  Index col_head_ = 0;
  Index row_size_ = 0;
  Index col_size_ = 0;
  std::vector<double> values_;
};

/// Ground distances computed on demand from the trajectories, with no dG
/// matrix — GTM*'s Idea (i). Under HaversineMetric each point's unit
/// sphere vector is cached once (O(n+m) memory), so an evaluation costs
/// one sqrt + asin instead of six trigonometric calls and is bit-identical
/// to HaversineMetric (GreatCircleDistanceMeters is defined as exactly
/// this computation). Any other metric is called per access with O(1)
/// memory. Either way GTM* over these distances returns the same answer
/// as the matrix-based algorithms.
class PointDistances {
 public:
  /// The trajectories and the metric must outlive this object.
  PointDistances(const Trajectory& s, const Trajectory& t,
                 const GroundMetric& metric);

  /// Single-trajectory form.
  PointDistances(const Trajectory& s, const GroundMetric& metric)
      : PointDistances(s, s, metric) {}

  /// dG between row point i and column point j.
  double Distance(Index i, Index j) const {
    if (cached_) return SphereVecDistanceMeters(rows_vec_[i], cols_vec_[j]);
    return metric_.Distance(s_[i], t_[j]);
  }
  Index rows() const { return s_.size(); }
  Index cols() const { return t_.size(); }

  /// Bytes retained by the sphere-vector caches (0 for uncached metrics).
  std::size_t MemoryBytes() const {
    return (rows_vec_.capacity() + cols_vec_.capacity()) * sizeof(SphereVec);
  }

 private:
  const Trajectory& s_;
  const Trajectory& t_;
  const GroundMetric& metric_;
  bool cached_;
  std::vector<SphereVec> rows_vec_;
  std::vector<SphereVec> cols_vec_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_CORE_DISTANCE_MATRIX_H_
