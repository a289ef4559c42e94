#ifndef FMBENCH_HARNESS_H_
#define FMBENCH_HARNESS_H_

// The benchmark's own machinery: the percentile rule, span tracing with
// self time, open-loop scheduling, the seeded input generators of the
// workloads in params.h, and the host/build stamp. Everything here is
// exercised by tests/harness_test.cc.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/trajectory.h"

namespace fmbench {

using frechet_motif::Trajectory;

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// Monotonic seconds since an arbitrary process-wide origin.
double NowSeconds();

/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();

/// Peak resident set of this process so far, in MB (2^20 bytes).
double PeakRssMb();

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Median (mean of the two middle values for an even count). NaN when
/// `v` is empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile `p` (0 < p < 100) of `v`, refused (nullopt)
/// unless at least `min_beyond` samples lie strictly beyond the
/// reported rank. With the default of 10 a p90 needs >= 100 samples and
/// a p99 >= 1000, so a tail is never read off a handful of points.
std::optional<double> TailPercentile(std::vector<double> v, double p,
                                     int min_beyond = 10);

/// The highest of p50/p90/p99/p99.9 that TailPercentile accepts for
/// `count` samples, or 0 when none does.
double HighestSupportedPercentile(std::size_t count, int min_beyond = 10);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded interval. Spans of one query or row share `trace_id`;
/// `parent` is the id of the enclosing span (-1 for a root).
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t trace_id = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per call, so the untraced run can share the traced code path.
/// Thread-safe: the serve loop thread and the generator record into one
/// tracer.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span now; returns its id (-1 when disabled).
  std::int64_t Begin(const std::string& name, std::int64_t parent,
                     std::int64_t trace_id);
  /// Closes span `id` now (no-op for -1).
  void End(std::int64_t id);
  /// Records an already-measured interval.
  std::int64_t Record(const std::string& name, std::int64_t parent,
                      std::int64_t trace_id, double start, double end);

  std::vector<Span> spans() const;

  /// Writes one JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::int64_t parent,
             std::int64_t trace_id)
      : tracer_(tracer), id_(tracer.Begin(name, parent, trace_id)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children may nest
/// and overlap, e.g. parallel lanes). Indexed like `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Sum of self time per span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

/// Sum of duration per span name.
std::map<std::string, double> DurationByName(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Open-loop scheduling
// ---------------------------------------------------------------------------

/// A fixed-rate send schedule: event k is due at start + k * interval.
/// Latency is always measured from the due time, so a stall in the
/// system (or in the generator) inflates the latency of every event
/// queued behind it instead of silently lowering the offered rate.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start, double interval)
      : start_(start), interval_(interval) {}

  double Due(std::int64_t k) const {
    return start_ + static_cast<double>(k) * interval_;
  }
  /// Number of events due at time `now` (i.e. with Due(k) <= now).
  std::int64_t DueCount(double now) const;
  /// Records that event k was actually sent at `sent`; returns how late
  /// that was (>= 0).
  double MarkSent(std::int64_t k, double sent);
  double LatencyOf(std::int64_t k, double completed) const {
    return completed - Due(k);
  }
  const std::vector<double>& lateness() const { return lateness_; }

 private:
  double start_;
  double interval_;
  std::vector<double> lateness_;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Derives an independent 64-bit seed for sub-stream `stream` of `seed`
/// (SplitMix64), so every generated object has its own seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

/// Renders a trajectory as `lat,lon,timestamp` CSV with 17 significant
/// digits, so parsing it back yields bit-identical doubles.
std::string TrajectoryCsv(const Trajectory& t);

/// Moves every point by `dlon` degrees of longitude. A rotation about
/// the polar axis keeps all great-circle distances (up to rounding), so
/// the search does the same work on the moved trajectory.
Trajectory ShiftLongitude(const Trajectory& t, double dlon);

/// batch_motif inputs: one CSV document per dataset kind.
struct BatchInputs {
  std::vector<std::string> names;
  std::vector<std::string> csv;
};
BatchInputs MakeBatchInputs(std::uint64_t seed);

/// fleet_replay inputs: the GeoLife-like streams.
std::vector<Trajectory> MakeFleetStreams(std::uint64_t seed);

/// One serve_live feed row, in send order.
struct FeedRow {
  std::uint32_t stream = 0;
  double lat = 0.0;
  double lon = 0.0;
  double ts = 0.0;
  /// The wire bytes: "stream,lat,lon,ts\n".
  std::string line;
};

/// serve_live feed: the timestamped GeoLife-like streams, interleaved
/// one row per stream per round after a staggered per-stream prefix of
/// W + reorder capacity + (s mod stagger) rows. Within a stream, a seeded
/// share of adjacent row pairs is swapped, so those rows arrive out of
/// order by one position (within any reorder capacity >= 2).
/// `prefix_rows` receives the number of rows in the prefix.
std::vector<FeedRow> MakeServeFeed(std::uint64_t seed, std::size_t* prefix_rows);

/// A stable byte rendering of every generated input of `workload` for
/// `seed` (the determinism test compares these).
std::string InputFingerprintBytes(const std::string& workload,
                                  std::uint64_t seed);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 = a count or a single measurement).
  std::int64_t samples = 0;
};

/// Host and build stamp (CPU, nproc, SIMD level, compiler, build type,
/// source revision). `baseline_ok` is false for a non-release build or a
/// dirty/unknown tree.
std::string HostStampJson(const std::string& git_describe);

/// Formats a double with all its digits for the result line.
std::string JsonNumber(double v);

}  // namespace fmbench

#endif  // FMBENCH_HARNESS_H_
