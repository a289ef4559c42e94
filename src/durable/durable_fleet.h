#ifndef FRECHET_MOTIF_DURABLE_DURABLE_FLEET_H_
#define FRECHET_MOTIF_DURABLE_DURABLE_FLEET_H_

/// Crash-safe wrapper around `MotifFleetEngine`: snapshot + journal
/// durability with bit-exact recovery.
///
/// ## The journal holds engine calls
///
/// The engine is deterministic given its call sequence, and its
/// snapshot holds everything that sequence built — reorder buffers and
/// their counters included. So the journal records each state-changing
/// call itself — `AddStream`, `Ingest` with its raw batch, `Flush`,
/// `Drain` — once the engine has accepted it, and recovery restores the
/// newest snapshot and re-issues the journaled calls on it. The
/// recovered engine is byte-identical to the one that stopped, and
/// the live path is the plain engine's: a durable fleet's state equals
/// a `MotifFleetEngine` fed the same calls, crash or no crash.
///
/// A call that changes nothing writes no record: an `Ingest` with no
/// arrivals, or a `Flush` or `Drain` that released nothing, when it
/// also reported nothing. A call the engine rejects writes none either
/// (`CheckBatch` refuses a bad batch before any state moves).
///
/// ## Durability semantics
///
/// An arrival is durable once its call's record has synced
/// (`sync_each_record`, default on) — whether the engine released it
/// into a window or still holds it in a reorder buffer. A restart,
/// graceful or not, keeps buffered points buffered.
///
/// `Open` recovers (newest valid snapshot + journal tail, see
/// state_store.h), then immediately checkpoints, so new records never
/// extend a journal whose tail was just found torn.
///
/// ## In memory
///
/// With an empty `DurableOptions::state_dir` the fleet is the plain
/// engine behind the same handle: no state store, no filesystem, no
/// snapshot work. `Checkpoint` and `Sync` return Ok, `generation()` is
/// 0 and `recovery()` is empty. So a front end holds one fleet and
/// never asks whether its run is durable.
///
/// Per-member options (`AddStream`/`AddCrossPair` taking StreamOptions)
/// are in-memory only: the journal records no member options, so with
/// a state directory they fail with InvalidArgument before any state
/// changes.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "durable/durable_fs.h"
#include "durable/state_store.h"
#include "geo/metric.h"
#include "stream/motif_fleet_engine.h"
#include "util/status.h"

namespace frechet_motif {

/// Durability configuration, orthogonal to the engine's FleetOptions.
struct DurableOptions {
  /// State directory (created if missing) holding snapshots + journals.
  /// Empty runs the fleet in memory: nothing is journaled or
  /// checkpointed, and the remaining fields are unused.
  std::string state_dir;

  /// Auto-checkpoint after this many journal records (0 = only explicit
  /// Checkpoint calls).
  std::uint64_t checkpoint_interval_records = 1024;

  /// fsync the journal after every committed record. Off trades the
  /// last few records on crash for throughput (recovery still finds a
  /// valid prefix — the frames are CRC'd).
  bool sync_each_record = true;

  /// Filesystem override for fault injection (tests/fault_fs.h); null
  /// uses a process-owned PosixFs. Must outlive the fleet.
  DurableFs* fs = nullptr;
};

/// What `DurableFleet::Open` did to get back to the pre-crash state.
struct RecoveryInfo {
  bool restored_snapshot = false;
  std::uint64_t replayed_records = 0;
  /// Reports the re-issued calls regenerated, in journal order.
  std::vector<FleetReport> replay_reports;
};

class DurableFleet {
 public:
  /// Opens (recovering if state exists) a durable fleet, or an
  /// in-memory one when `durable.state_dir` is empty. `metric` and
  /// `durable.fs` (when set) must outlive the fleet. `options` must
  /// match any recovered snapshot's configuration (threads excepted).
  static StatusOr<DurableFleet> Open(const FleetOptions& options,
                                     const GroundMetric& metric,
                                     const DurableOptions& durable);

  DurableFleet(DurableFleet&&) = default;
  DurableFleet& operator=(DurableFleet&&) = default;

  const RecoveryInfo& recovery() const { return recovery_; }

  /// Adds a stream (journaled). Ids are dense, starting at 0.
  StatusOr<std::size_t> AddStream();

  /// Adds a member with its own window configuration (see
  /// MotifFleetEngine). In memory only: with a state directory these
  /// fail with InvalidArgument and change nothing.
  StatusOr<std::size_t> AddStream(const StreamOptions& stream_options);
  StatusOr<std::pair<std::size_t, std::size_t>> AddCrossPair(
      const StreamOptions& stream_options);

  /// Engine-call mirrors of MotifFleetEngine's ingest surface. Each
  /// call that changes engine state commits one journal record.
  StatusOr<FleetReport> Push(std::size_t stream, const Point& p);
  StatusOr<FleetReport> Push(std::size_t stream, const Point& p,
                             double timestamp);
  StatusOr<FleetReport> Ingest(const std::vector<FleetArrival>& batch);
  StatusOr<FleetReport> Drain();
  StatusOr<FleetReport> Flush();

  /// Rotates to a fresh snapshot generation now (Ok in memory).
  Status Checkpoint();

  /// Forces any unsynced journal records to stable storage (a no-op
  /// with `sync_each_record`, and in memory).
  Status Sync();

  /// The wrapped engine, for queries and parity checks. All mutation
  /// must go through the fleet — direct engine writes would bypass the
  /// journal.
  const MotifFleetEngine& engine() const { return engine_; }

  std::size_t stream_count() const { return engine_.stream_count(); }

  FleetStats stats() const { return engine_.stats(); }

  /// The current snapshot generation; 0 in memory.
  std::uint64_t generation() const {
    return store_.has_value() ? store_->generation() : 0;
  }

 private:
  DurableFleet(MotifFleetEngine engine, std::optional<StateStore> store,
               std::unique_ptr<DurableFs> owned_fs,
               const DurableOptions& durable);

  /// Journals one engine call that succeeded: appends `record`, syncs
  /// and rotates per the options. Callers skip it in memory.
  Status Commit(const std::string& record);

  /// InvalidArgument when a journal is open (it cannot record member
  /// options); Ok in memory.
  Status CheckUnjournaled() const;

  MotifFleetEngine engine_;
  /// Empty in memory.
  std::optional<StateStore> store_;
  /// Set only when DurableOptions::fs was null.
  std::unique_ptr<DurableFs> owned_fs_;

  std::uint64_t checkpoint_interval_ = 1024;
  bool sync_each_record_ = true;

  RecoveryInfo recovery_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_DURABLE_DURABLE_FLEET_H_
