#include "durable/durable_fleet.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/binary_codec.h"

namespace frechet_motif {

namespace {

/// Journal record kinds (first payload byte).
constexpr std::uint8_t kBatchRecord = 1;
constexpr std::uint8_t kAddStreamRecord = 2;

std::string EncodeBatch(const std::vector<FleetArrival>& released) {
  BinaryWriter writer;
  writer.PutU8(kBatchRecord);
  writer.PutU64(released.size());
  for (const FleetArrival& a : released) {
    writer.PutU32(static_cast<std::uint32_t>(a.stream));
    writer.PutBool(a.has_timestamp);
    writer.PutDouble(a.point.x);
    writer.PutDouble(a.point.y);
    if (a.has_timestamp) writer.PutDouble(a.timestamp);
  }
  return writer.Take();
}

std::string EncodeAddStream() {
  BinaryWriter writer;
  writer.PutU8(kAddStreamRecord);
  return writer.Take();
}

Status DecodeBatch(BinaryReader* reader, std::vector<FleetArrival>* out) {
  std::uint64_t count = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&count));
  out->clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    FleetArrival a;
    std::uint32_t stream = 0;
    FM_RETURN_IF_ERROR(reader->GetU32(&stream));
    a.stream = stream;
    FM_RETURN_IF_ERROR(reader->GetBool(&a.has_timestamp));
    FM_RETURN_IF_ERROR(reader->GetDouble(&a.point.x));
    FM_RETURN_IF_ERROR(reader->GetDouble(&a.point.y));
    if (a.has_timestamp) FM_RETURN_IF_ERROR(reader->GetDouble(&a.timestamp));
    out->push_back(a);
  }
  if (!reader->AtEnd()) {
    return Status::DataLoss("journal batch record has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

DurableFleet::DurableFleet(MotifFleetEngine engine, StateStore store,
                           std::unique_ptr<DurableFs> owned_fs,
                           const DurableOptions& durable)
    : engine_(std::move(engine)),
      store_(std::move(store)),
      owned_fs_(std::move(owned_fs)),
      checkpoint_interval_(durable.checkpoint_interval_records),
      sync_each_record_(durable.sync_each_record) {}

StatusOr<DurableFleet> DurableFleet::Open(const FleetOptions& options,
                                          const GroundMetric& metric,
                                          const DurableOptions& durable) {
  if (durable.state_dir.empty()) {
    return Status::InvalidArgument("DurableOptions::state_dir is empty");
  }
  std::unique_ptr<DurableFs> owned_fs;
  DurableFs* fs = durable.fs;
  if (fs == nullptr) {
    owned_fs = std::make_unique<PosixFs>();
    fs = owned_fs.get();
  }

  StatusOr<StateStore> store = StateStore::Open(fs, durable.state_dir);
  if (!store.ok()) return store.status();
  const RecoveredState& recovered = store.value().recovered();

  StatusOr<MotifFleetEngine> engine =
      recovered.has_snapshot
          ? MotifFleetEngine::Restore(options, metric, recovered.snapshot)
          : MotifFleetEngine::Create(options, metric);
  if (!engine.ok()) return engine.status();

  DurableFleet fleet(std::move(engine).value(), std::move(store).value(),
                     std::move(owned_fs), durable);
  // `recovered` dangles once `store` is moved into the fleet; report the
  // recovery from the store's own (moved-along) state.
  fleet.recovery_.restored_snapshot = fleet.store_.recovered().has_snapshot;
  fleet.recovery_.replayed_records = fleet.store_.recovered().records.size();

  // Redo the journal tail: every record is one engine call the original
  // process completed after the snapshot.
  for (const std::string& record : fleet.store_.recovered().records) {
    BinaryReader reader(record);
    std::uint8_t kind = 0;
    FM_RETURN_IF_ERROR(reader.GetU8(&kind));
    if (kind == kAddStreamRecord) {
      if (!reader.AtEnd()) {
        return Status::DataLoss("journal add-stream record has trailing bytes");
      }
      StatusOr<std::size_t> id = fleet.engine_.AddStream();
      if (!id.ok()) return id.status();
    } else if (kind == kBatchRecord) {
      std::vector<FleetArrival> batch;
      FM_RETURN_IF_ERROR(DecodeBatch(&reader, &batch));
      StatusOr<FleetReport> report = fleet.engine_.ReplayReleased(batch);
      if (!report.ok()) return report.status();
      fleet.recovery_.replay_reports.push_back(std::move(report).value());
    } else {
      return Status::DataLoss("unknown journal record kind");
    }
  }

  // Journal-side frontends: fresh buffers (in-flight points are not
  // durable by design), watermarks re-seeded so the late-drop boundary
  // matches the original run.
  fleet.frontends_.clear();
  fleet.frontends_.reserve(fleet.engine_.stream_count());
  for (std::size_t s = 0; s < fleet.engine_.stream_count(); ++s) {
    fleet.frontends_.emplace_back(options.reorder_capacity);
    const double watermark = fleet.engine_.stream_watermark(s);
    if (watermark > -std::numeric_limits<double>::infinity()) {
      fleet.frontends_.back().SeedWatermark(watermark);
    }
  }

  // Rotate immediately: new records must never extend a journal whose
  // tail was just found torn.
  FM_RETURN_IF_ERROR(fleet.Checkpoint());
  return fleet;
}

StatusOr<std::size_t> DurableFleet::AddStream() {
  StatusOr<std::size_t> id = engine_.AddStream();
  if (!id.ok()) return id.status();
  frontends_.emplace_back(engine_.options().reorder_capacity);
  FM_RETURN_IF_ERROR(store_.AppendRecord(EncodeAddStream()));
  if (sync_each_record_) FM_RETURN_IF_ERROR(store_.SyncJournal());
  return id;
}

StatusOr<FleetReport> DurableFleet::CommitBatch(
    const std::vector<FleetArrival>& released, bool force_commit) {
  if (released.empty() && !force_commit) {
    // Nothing left the reorder buffers: the engine never ran, so there
    // is nothing to journal (buffered points are volatile by contract).
    return FleetReport();
  }
  StatusOr<FleetReport> report = engine_.ReplayReleased(released);
  if (!report.ok()) return report.status();
  if (!released.empty() || !report.value().empty()) {
    FM_RETURN_IF_ERROR(store_.AppendRecord(EncodeBatch(released)));
    if (sync_each_record_) FM_RETURN_IF_ERROR(store_.SyncJournal());
    if (checkpoint_interval_ > 0 &&
        store_.records_in_journal() >= checkpoint_interval_) {
      FM_RETURN_IF_ERROR(Checkpoint());
    }
  }
  return report;
}

StatusOr<FleetReport> DurableFleet::Ingest(
    const std::vector<FleetArrival>& batch) {
  // Validated whole before any frontend moves: a bad arrival must not
  // strand earlier ones as released-but-never-journaled.
  FM_RETURN_IF_ERROR(engine_.CheckBatch(batch));
  std::vector<FleetArrival> released;
  for (const FleetArrival& a : batch) {
    const double* ts = a.has_timestamp ? &a.timestamp : nullptr;
    FM_RETURN_IF_ERROR(frontends_[a.stream].Offer(
        a.point, ts, [&](const Point& p, const double* timestamp) {
          FleetArrival out;
          out.stream = a.stream;
          out.point = p;
          out.has_timestamp = timestamp != nullptr;
          out.timestamp = timestamp != nullptr ? *timestamp : 0.0;
          released.push_back(out);
          return Status::Ok();
        }));
  }
  return CommitBatch(released, /*force_commit=*/false);
}

StatusOr<FleetReport> DurableFleet::Push(std::size_t stream, const Point& p) {
  FleetArrival a;
  a.stream = stream;
  a.point = p;
  return Ingest({a});
}

StatusOr<FleetReport> DurableFleet::Push(std::size_t stream, const Point& p,
                                         double timestamp) {
  FleetArrival a;
  a.stream = stream;
  a.point = p;
  a.has_timestamp = true;
  a.timestamp = timestamp;
  return Ingest({a});
}

StatusOr<FleetReport> DurableFleet::Drain() {
  // A budgeted drain can run deferred searches with no new deliveries;
  // the call boundary itself must then be journaled so replay runs the
  // same number of drains.
  return CommitBatch({}, /*force_commit=*/true);
}

StatusOr<FleetReport> DurableFleet::Flush() {
  std::vector<FleetArrival> released;
  for (std::size_t s = 0; s < frontends_.size(); ++s) {
    FM_RETURN_IF_ERROR(
        frontends_[s].Flush([&](const Point& p, const double* timestamp) {
          FleetArrival out;
          out.stream = s;
          out.point = p;
          out.has_timestamp = timestamp != nullptr;
          out.timestamp = timestamp != nullptr ? *timestamp : 0.0;
          released.push_back(out);
          return Status::Ok();
        }));
  }
  return CommitBatch(released, /*force_commit=*/false);
}

Status DurableFleet::Checkpoint() {
  std::string snapshot;
  FM_RETURN_IF_ERROR(engine_.Snapshot(&snapshot));
  return store_.Checkpoint(snapshot);
}

Status DurableFleet::Sync() { return store_.SyncJournal(); }

FleetStats DurableFleet::stats() const {
  FleetStats stats = engine_.stats();
  stats.reordered = 0;
  stats.late_dropped = 0;
  stats.reorder_buffered = 0;
  stats.reorder_buffered_peak = 0;
  for (const IngestFrontend& frontend : frontends_) {
    stats.reordered += frontend.stats().reordered;
    stats.late_dropped += frontend.stats().late_dropped;
    stats.reorder_buffered += static_cast<std::int64_t>(frontend.buffered());
    stats.reorder_buffered_peak =
        std::max(stats.reorder_buffered_peak, frontend.stats().buffered_peak);
  }
  return stats;
}

}  // namespace frechet_motif
