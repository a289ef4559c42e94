#ifndef FRECHET_MOTIF_PUBLIC_DURABLE_H_
#define FRECHET_MOTIF_PUBLIC_DURABLE_H_

/// \file
/// Public durability surface: crash-safe snapshot + journal persistence
/// for the streaming engines.
///
/// `DurableFleet` wraps a `MotifFleetEngine` with a state directory:
/// every state-changing engine call (`AddStream`, `Ingest` with its
/// raw batch, `Flush`, `Drain`) is appended to a CRC-framed journal,
/// and the engine's full manifest — ring distance matrices,
/// incremental bounds, carried thresholds and tie-break state, reorder
/// buffers, scheduler, join verdict cache — is checkpointed into
/// versioned, checksummed snapshot generations with atomic rename
/// rotation. Reopening the same directory after a crash recovers the
/// newest valid snapshot, replays the journal tail (skipping a torn or
/// corrupt trailing record), and continues **bit-identically**: every
/// future report — candidate, distance, tie resolution, DP-cell
/// counters, join deltas — matches the run that never crashed. The
/// guarantee is enforced by a fault-injection harness
/// (tests/durable_recovery_fuzz_test.cc) that kills the "process"
/// between writes, syncs, and renames, tears trailing writes, and
/// flips bits in snapshots.
///
/// With an empty `DurableOptions::state_dir` the same handle runs in
/// memory: no journal, no snapshots, no filesystem access. Front ends
/// (`fmotif stream`/`fleet`/`serve`) therefore hold one `DurableFleet`
/// whether or not the run is durable. Per-member `StreamOptions`
/// (`AddStream`/`AddCrossPair` overloads) are in-memory only.
///
/// ```
/// DurableOptions durable;
/// durable.state_dir = "/var/lib/fmotif/fleet";
/// auto fleet = DurableFleet::Open(options, Haversine(), durable);
/// // fleet->recovery().replayed_records == journal tail replayed
/// fleet->AddStream();
/// fleet->Push(0, p, t);            // journaled + synced before return
/// ```
///
/// Single-stream monitors snapshot through the same machinery:
/// `StreamingMotifMonitor::Snapshot`/`Restore` round-trips a monitor
/// through raw bytes (`fmotif stream` runs a one-stream DurableFleet
/// instead, gaining the journal under `--state-dir`).

#include "durable/durable_fleet.h"
#include "durable/durable_fs.h"
#include "durable/state_store.h"

#endif  // FRECHET_MOTIF_PUBLIC_DURABLE_H_
