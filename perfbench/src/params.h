#ifndef FMBENCH_PARAMS_H_
#define FMBENCH_PARAMS_H_

// Workload definitions. Each block says why the workload exists; the
// same text is in README.md and in BENCHMARK.json's "why" fields.

namespace fmbench {

// batch_motif — `fmotif motif`: closed loop, one query at a time. A
// GeoLife-like, a Truck-like and a Baboon-like trajectory of n=1500 are
// serialized to CSV in set-up; each query parses one with
// ReadCsvFromString and answers it with FindMotif's defaults (GTM,
// xi=100, tau=32, eps=0). Why: the motif and similarity layers do almost
// all the work (search is >97% of a query) while stream, join, durable
// and serve do nothing; the three generators stress the search
// differently, so a change that helps one and hurts another shows.
// Queries run at threads=1: with 4 threads a round's time falls into
// one of two modes far apart, and a run's median lands in either one.
inline constexpr int kBatchLength = 1500;
inline constexpr int kBatchThreads = 1;
inline constexpr int kBatchMinRounds = 3;
inline constexpr int kBatchSetupReps = 9;

// fleet_replay — `fmotif fleet <files>`: closed loop of round-robin
// MotifFleetEngine::Ingest batches (one point per stream) over four
// GeoLife-like streams with the paper-default StreamOptions (W=512,
// slide 32, xi=100), no join, no reorder, no durability. Filling the
// first windows (and their unseeded first searches) is set-up. Why: the
// stream layer's incremental bounds and seeded search do almost all the
// work, unseeded slides set the tail, and the four streams fall due in
// the same batch, so the one-window-per-lane drain fan-out runs. serve,
// durable and join are absent.
inline constexpr int kFleetStreams = 4;
inline constexpr int kFleetWindow = 512;
inline constexpr int kFleetSlide = 32;
inline constexpr int kFleetXi = 100;
inline constexpr int kFleetThreads = 4;
inline constexpr int kFleetStreamLength = 4096;
inline constexpr int kFleetMinSlides = 100;
inline constexpr int kFleetSetupReps = 3;
/// The traced run's two passes (untraced reference, traced) each need
/// fewer slides: they report sums, not percentiles.
inline constexpr int kFleetTracePassSlides = 40;
/// Every kFleetOracleStride-th slide report is checked against a
/// fresh FindMotif on the same window.
inline constexpr int kFleetOracleStride = 25;

// serve_live — `fmotif serve`: open loop. MotifServer runs under
// RunServeLoop on its own thread behind a PosixListener on 127.0.0.1;
// one generator thread holds a feeder connection and a `SUB all`
// subscriber. 16 timestamped GeoLife-like streams, a seeded share of
// rows one place out of order (within reorder_capacity), W=128, slide 8,
// xi=16, the eps-join on, and a journal with sync_each_record and the
// default checkpoint interval. Phase 1 offers a fixed rate well under
// saturation and times each slide-triggering row from its due time to
// its report frame; phase 2 sends as fast as the socket accepts, with a
// bounded number of rows in flight. Why: per-slide search is cheap at
// W=128, so parsing, reorder, ring append, join, journal fsync,
// checkpoints and frame writes carry the time — layers the other two
// workloads never touch.
inline constexpr int kServeStreams = 16;
inline constexpr int kServeWindow = 128;
inline constexpr int kServeSlide = 8;
inline constexpr int kServeXi = 16;
inline constexpr int kServeReorder = 4;
inline constexpr int kServeStagger = 8;
inline constexpr double kServeSwapShare = 0.05;
inline constexpr int kServeStreamLength = 20000;
inline constexpr double kServeRowsPerSecond = 4000.0;
inline constexpr int kServeMinSlideRows = 1000;
inline constexpr int kServeMaxInFlightRows = 2048;
inline constexpr int kServeSetupReps = 3;
/// The join threshold is this quantile of the pairwise DFDs between the
/// streams' first windows, so pairs both enter and leave as they slide.
inline constexpr double kServeJoinQuantile = 0.25;
/// Share of the run's seconds given to phase 1 (the rest is phase 2,
/// whose throughput is the gated figure and gains from the longer run).
inline constexpr double kServePhase1Share = 0.4;
/// A run whose generator sent rounds later than this (p99) did not offer
/// the rate and is invalid. A busy host delays the generator's wake-ups
/// by a few milliseconds at times; that is charged to the measured
/// latency (timed from the due time), not treated as falling behind.
inline constexpr double kServeMaxLateP99Ms = 20.0;

}  // namespace fmbench

#endif  // FMBENCH_PARAMS_H_
