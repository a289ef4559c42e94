#ifndef FRECHET_MOTIF_PUBLIC_STREAM_H_
#define FRECHET_MOTIF_PUBLIC_STREAM_H_

/// \file
/// Public streaming surface: incremental sliding-window motif
/// maintenance for live trajectory feeds.
///
/// `StreamingMotifMonitor` ingests points one at a time (or in batches)
/// into a bounded window of the last W points, and re-derives the
/// window's motif on a fixed cadence without ever rebuilding state from
/// scratch: the ground-distance matrix is maintained as a ring buffer
/// (one fresh row/column per arrival, O(1) eviction), the relaxed-bound
/// minima are updated under eviction, and each search carries the
/// previous window's motif distance forward as its pruning threshold.
///
/// ```
/// StreamOptions options;                     // W = 512, slide 32, ξ = 100
/// auto monitor = StreamingMotifMonitor::Create(options, Haversine());
/// for (const Point& p : feed) {
///   auto update = monitor.value().Push(p);
///   if (update.ok() && update.value().has_value()) {
///     // update->motif is bit-identical to FindMotif over the window
///     // with options.BaselineOptions().
///   }
/// }
/// ```
///
/// Every per-slide answer — candidate *and* distance, exact ties
/// included — is bit-identical to a from-scratch `FindMotif` on the
/// identical window configured with `StreamOptions::BaselineOptions()`;
/// streaming trades no exactness for its incrementality. (Equal-distance
/// candidates resolve everywhere to the canonical lexicographic
/// (i, j, ie, je) minimum — see `CandidateOrderedBefore` — which is what
/// makes the parity exact even on adversarial tied data.) For many
/// streams behind one arrival loop, see `<frechet_motif/fleet.h>`. The
/// `fmotif stream` subcommand runs a one-stream fleet through
/// `DurableFleet` (`<frechet_motif/durable.h>`, in memory unless
/// `--state-dir` is given): its reports equal this monitor's on an
/// in-order feed, and a timestamp below the latest one kept is dropped
/// and counted by the fleet's watermark rather than ingested.

#include "stream/ingest_frontend.h"
#include "stream/streaming_motif_monitor.h"
#include "stream/window_state.h"

#endif  // FRECHET_MOTIF_PUBLIC_STREAM_H_
