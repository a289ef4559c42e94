#include "durable/durable_fleet.h"

#include <utility>

#include "util/binary_codec.h"

namespace frechet_motif {

namespace {

/// Journal record kinds (first payload byte), one per state-changing
/// engine call. Kind 1 (a released, post-reorder batch) is retired: a
/// journal holding it fails Open as an unknown kind.
constexpr std::uint8_t kAddStreamRecord = 2;
constexpr std::uint8_t kIngestRecord = 3;
constexpr std::uint8_t kFlushRecord = 4;
constexpr std::uint8_t kDrainRecord = 5;

std::string EncodeKind(std::uint8_t kind) {
  BinaryWriter writer;
  writer.PutU8(kind);
  return writer.Take();
}

std::string EncodeIngest(const std::vector<FleetArrival>& batch) {
  BinaryWriter writer;
  writer.PutU8(kIngestRecord);
  writer.PutU64(batch.size());
  for (const FleetArrival& a : batch) {
    writer.PutU32(static_cast<std::uint32_t>(a.stream));
    writer.PutBool(a.has_timestamp);
    writer.PutDouble(a.point.x);
    writer.PutDouble(a.point.y);
    if (a.has_timestamp) writer.PutDouble(a.timestamp);
  }
  return writer.Take();
}

Status DecodeIngest(BinaryReader* reader, std::vector<FleetArrival>* out) {
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
  return Status::Ok();
}

/// Re-issues one journaled call on `engine`; the reports of the calls
/// that return one are appended to `reports`.
Status ReplayRecord(const std::string& record, MotifFleetEngine* engine,
                    std::vector<FleetReport>* reports) {
  BinaryReader reader(record);
  std::uint8_t kind = 0;
  FM_RETURN_IF_ERROR(reader.GetU8(&kind));
  if (kind < kAddStreamRecord || kind > kDrainRecord) {
    return Status::DataLoss("unknown journal record kind");
  }
  std::vector<FleetArrival> batch;
  if (kind == kIngestRecord) FM_RETURN_IF_ERROR(DecodeIngest(&reader, &batch));
  if (!reader.AtEnd()) {
    return Status::DataLoss("journal record has trailing bytes");
  }
  if (kind == kAddStreamRecord) return engine->AddStream().status();
  StatusOr<FleetReport> report = kind == kIngestRecord ? engine->Ingest(batch)
                                 : kind == kFlushRecord ? engine->Flush()
                                                        : engine->Drain();
  if (!report.ok()) return report.status();
  reports->push_back(std::move(report).value());
  return Status::Ok();
}

}  // namespace

DurableFleet::DurableFleet(MotifFleetEngine engine,
                           std::optional<StateStore> store,
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
    StatusOr<MotifFleetEngine> engine =
        MotifFleetEngine::Create(options, metric);
    if (!engine.ok()) return engine.status();
    return DurableFleet(std::move(engine).value(), std::nullopt, nullptr,
                        durable);
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
  const RecoveredState& replay = fleet.store_->recovered();
  fleet.recovery_.restored_snapshot = replay.has_snapshot;
  fleet.recovery_.replayed_records = replay.records.size();

  // Redo the journal tail: every record is one engine call the original
  // process completed after the snapshot.
  for (const std::string& record : replay.records) {
    FM_RETURN_IF_ERROR(ReplayRecord(record, &fleet.engine_,
                                    &fleet.recovery_.replay_reports));
  }

  // Rotate immediately: new records must never extend a journal whose
  // tail was just found torn.
  FM_RETURN_IF_ERROR(fleet.Checkpoint());
  return fleet;
}

Status DurableFleet::Commit(const std::string& record) {
  FM_RETURN_IF_ERROR(store_->AppendRecord(record));
  if (sync_each_record_) FM_RETURN_IF_ERROR(store_->SyncJournal());
  if (checkpoint_interval_ > 0 &&
      store_->records_in_journal() >= checkpoint_interval_) {
    FM_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::Ok();
}

Status DurableFleet::CheckUnjournaled() const {
  if (!store_.has_value()) return Status::Ok();
  return Status::InvalidArgument(
      "per-member stream options cannot be journaled; run the fleet "
      "without a state directory");
}

StatusOr<std::size_t> DurableFleet::AddStream() {
  StatusOr<std::size_t> id = engine_.AddStream();
  if (!id.ok()) return id.status();
  if (store_.has_value()) {
    FM_RETURN_IF_ERROR(Commit(EncodeKind(kAddStreamRecord)));
  }
  return id;
}

StatusOr<std::size_t> DurableFleet::AddStream(
    const StreamOptions& stream_options) {
  FM_RETURN_IF_ERROR(CheckUnjournaled());
  return engine_.AddStream(stream_options);
}

StatusOr<std::pair<std::size_t, std::size_t>> DurableFleet::AddCrossPair(
    const StreamOptions& stream_options) {
  FM_RETURN_IF_ERROR(CheckUnjournaled());
  return engine_.AddCrossPair(stream_options);
}

StatusOr<FleetReport> DurableFleet::Ingest(
    const std::vector<FleetArrival>& batch) {
  StatusOr<FleetReport> report = engine_.Ingest(batch);
  if (!report.ok()) return report.status();
  if (store_.has_value() && (!batch.empty() || !report.value().empty())) {
    FM_RETURN_IF_ERROR(Commit(EncodeIngest(batch)));
  }
  return report;
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
  StatusOr<FleetReport> report = engine_.Drain();
  if (!report.ok()) return report.status();
  if (store_.has_value() && !report.value().empty()) {
    FM_RETURN_IF_ERROR(Commit(EncodeKind(kDrainRecord)));
  }
  return report;
}

StatusOr<FleetReport> DurableFleet::Flush() {
  const bool buffered = engine_.stats().reorder_buffered > 0;
  StatusOr<FleetReport> report = engine_.Flush();
  if (!report.ok()) return report.status();
  if (store_.has_value() && (buffered || !report.value().empty())) {
    FM_RETURN_IF_ERROR(Commit(EncodeKind(kFlushRecord)));
  }
  return report;
}

Status DurableFleet::Checkpoint() {
  if (!store_.has_value()) return Status::Ok();
  std::string snapshot;
  FM_RETURN_IF_ERROR(engine_.Snapshot(&snapshot));
  return store_->Checkpoint(snapshot);
}

Status DurableFleet::Sync() {
  return store_.has_value() ? store_->SyncJournal() : Status::Ok();
}

}  // namespace frechet_motif
