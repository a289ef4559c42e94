#ifndef FRECHET_MOTIF_STREAM_STREAMING_MOTIF_MONITOR_H_
#define FRECHET_MOTIF_STREAM_STREAMING_MOTIF_MONITOR_H_

/// Incremental sliding-window motif maintenance for live trajectory
/// streams.
///
/// The paper treats motif discovery as an offline search over a fixed
/// trajectory; a serving system must instead keep the motif current as
/// points *arrive*. StreamingMotifMonitor ingests points one at a time
/// (or in batches) into a bounded window, maintains the ground-distance
/// matrix incrementally (RingDistanceMatrix: one fresh row/column per
/// append, O(1) eviction), keeps the RelaxedBounds row/column minima up
/// to date under eviction (IncrementalRelaxedBounds), and re-runs the
/// bounding-based subset search per slide with the previous window's
/// motif distance carried forward as the pruning threshold.
///
/// The monitor is a thin policy shell: all per-window state and the
/// search itself live in `WindowState` (stream/window_state.h), which
/// `MotifFleetEngine` reuses to maintain N windows over one arrival
/// loop. The monitor's policy is the simplest one — run the search the
/// moment `WindowState::SearchDue()` turns true.
///
/// ## Exactness
///
/// After every slide the reported motif is **bit-identical** — candidate
/// and distance, ties included — to a from-scratch `FindMotif` over the
/// same window with `StreamOptions::BaselineOptions()` (the relaxed BTM
/// configuration). The argument, in brief:
///
///  * Ring-matrix cells are the same doubles a fresh
///    DistanceMatrix::Build computes, and the maintained bound arrays
///    equal a fresh RelaxedBounds::Build (minima of identical values).
///  * On a seeded slide the search walks the baseline's sorted subset
///    queue (identical (lb, i, j) order) with two sound restrictions.
///    (1) Its initial threshold is T = the previous window's motif
///    distance, achievable because the previous best pair still lies in
///    the window — so the optimum d* <= T. (2) *Clean* candidates
///    (every point surviving from the previous window) were valid
///    candidates there, hence have DFD >= T; only *dirty* candidates —
///    reaching into the freshly appended points — can strictly improve,
///    and a dirty candidate's coupling path crosses every column from
///    its start to the dirty frontier, so subsets whose frontier
///    crossing bound (a suffix-max of Rmin) exceeds T are dropped before
///    any DP work.
///  * Every pruning rule anywhere in the search (queue skip, dirty-
///    frontier drop, endpoint caps, end-cross freeze) discards only
///    candidates *strictly* worse than the running threshold >= d*, so
///    both searches evaluate every d*-achiever that is dirty, and
///    `SearchState::Record` resolves achievers to the canonical
///    (i, j, ie, je) minimum regardless of evaluation order.
///  * Ties across the clean/dirty split resolve by comparing the
///    search's best against the previous optimum shifted into the new
///    window: candidate order is shift-invariant, so the shifted
///    previous pair — the canonical minimum of the *whole* previous
///    window, by induction — is the canonical minimum among clean
///    achievers, and the smaller of the two under (distance, candidate)
///    order is exactly the from-scratch answer. When the previous pair
///    wins, the slide reports it as `carried` without re-deriving it.
///
/// When the previous best pair was evicted (or on the first full
/// window), the slide falls back to an unseeded, unrestricted search —
/// identical to the from-scratch baseline by construction.
///
/// ## Cost per slide
///
/// O(s·W) ground-metric evaluations (s = slide step, W = window) for the
/// fresh matrix cells instead of Build's O(W²), O(s·W) amortized reads
/// for bound maintenance, plus — on seeded slides — one O(W²) pass of
/// plain matrix *reads* (no metric evaluations, no DP arithmetic) to
/// compute the dirty-frontier bounds; the subset enumeration itself is
/// already Θ(W²), so this does not change the slide's asymptotic read
/// cost. In exchange the subset search's DP work
/// (`StreamUpdate::stats.dfd_cells_computed`) is never more than the
/// from-scratch search's: the dirty-frontier restriction drops the
/// subsets far from the new points and the carried threshold prunes the
/// rest from the first evaluation on.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/trajectory.h"
#include "geo/metric.h"
#include "motif/relaxed_bounds.h"
#include "stream/window_state.h"
#include "util/binary_codec.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace frechet_motif {

/// See the file comment. Create() builds a single-trajectory monitor,
/// CreateCross() a two-trajectory one (points pushed per side via
/// Push/PushSecond; searches trigger once both windows are full). The
/// metric must outlive the monitor.
class StreamingMotifMonitor {
 public:
  static StatusOr<StreamingMotifMonitor> Create(const StreamOptions& options,
                                                const GroundMetric& metric);
  static StatusOr<StreamingMotifMonitor> CreateCross(
      const StreamOptions& options, const GroundMetric& metric);

  StreamingMotifMonitor(StreamingMotifMonitor&&) = default;
  StreamingMotifMonitor& operator=(StreamingMotifMonitor&&) = default;

  /// Appends one point (to the first trajectory) and runs a search when
  /// one is due. Returns the slide report when a search ran, std::nullopt
  /// otherwise. The timestamped overloads carry per-point timestamps into
  /// WindowTrajectory(); mixing timestamped and bare pushes on one side
  /// is an error, and so is a point with a NaN or infinite coordinate.
  /// A rejected push changes no state.
  StatusOr<std::optional<StreamUpdate>> Push(const Point& p);
  StatusOr<std::optional<StreamUpdate>> Push(const Point& p, double timestamp);

  /// Cross-mode: appends to the second trajectory.
  StatusOr<std::optional<StreamUpdate>> PushSecond(const Point& p);
  StatusOr<std::optional<StreamUpdate>> PushSecond(const Point& p,
                                                   double timestamp);

  /// Pushes a batch, returning every report the batch triggered.
  StatusOr<std::vector<StreamUpdate>> PushBatch(
      const std::vector<Point>& points);

  /// The current window contents (with timestamps when pushed), in
  /// window-relative order — exactly the trajectory a from-scratch
  /// FindMotif parity check should run on.
  Trajectory WindowTrajectory() const { return state_.WindowTrajectory(); }
  Trajectory SecondWindowTrajectory() const {
    return state_.SecondWindowTrajectory();
  }

  Index window_size() const { return state_.window_size(); }
  Index second_window_size() const { return state_.second_window_size(); }
  std::int64_t points_seen() const { return state_.points_seen(); }

  bool cross_mode() const { return state_.cross(); }
  const StreamOptions& options() const { return state_.options(); }
  const StreamEngineStats& engine_stats() const {
    return state_.engine_stats();
  }

  /// Test hook (single-trajectory mode): the relaxed-bound arrays the
  /// next search would use, for equality checks against a fresh
  /// RelaxedBounds::Build over the window. Only meaningful after at
  /// least one search.
  RelaxedBounds CurrentBounds() const { return state_.CurrentBounds(); }

  /// Serializes the monitor's complete window state (see
  /// WindowState::SaveTo for the bit-exactness contract).
  Status Snapshot(std::string* out) const {
    BinaryWriter writer;
    state_.SaveTo(&writer);
    *out = writer.Take();
    return Status::Ok();
  }

  /// Rebuilds a monitor from Snapshot()'s bytes; `options` must match
  /// the saved geometry (threads may differ). The restored monitor's
  /// future reports are bit-identical to the saved one's.
  static StatusOr<StreamingMotifMonitor> Restore(const StreamOptions& options,
                                                 const GroundMetric& metric,
                                                 std::string_view snapshot) {
    BinaryReader reader(snapshot);
    StatusOr<WindowState> state =
        WindowState::RestoreFrom(&reader, options, metric);
    if (!state.ok()) return state.status();
    if (!reader.AtEnd()) {
      return Status::DataLoss("monitor snapshot has trailing bytes");
    }
    return StreamingMotifMonitor(std::move(state).value());
  }

 private:
  explicit StreamingMotifMonitor(WindowState state);

  /// Runs a search if one is due, wrapping the report in an optional.
  StatusOr<std::optional<StreamUpdate>> MaybeSearch();

  WindowState state_;

  /// Worker pool for threaded searches, created on first use and reused
  /// across slides (workers park between searches).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_STREAM_STREAMING_MOTIF_MONITOR_H_
