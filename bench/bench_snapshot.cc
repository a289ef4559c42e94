// Self-timed benchmark of the durability layer (src/durable/): snapshot
// size and write latency, the journal-append overhead a durable fleet
// pays per ingested point, and — the acceptance signal — recovery time
// versus replaying the whole feed from scratch:
//
//   ./bench_snapshot [--smoke] [--lengths=256] [--n=STREAMS]
//       [--xi=N] [--threads=N] [--json[=path]]
//
// For each window length W it synthesizes N (--n, default 2)
// GeoLife-like streams of 3W points and runs four kernels against a real
// on-disk state directory (a fresh temp dir per run):
//
//   plain_ingest         MotifFleetEngine alone — the no-durability
//                        baseline.
//   durable_ingest       the same feed through DurableFleet: every
//                        Ingest call is encoded, CRC-framed and
//                        appended to the journal (auto-checkpointing
//                        every 100 records). journal_overhead_ratio is
//                        durable seconds / plain seconds.
//   snapshot_checkpoint  explicit Checkpoint() on the full engine state:
//                        serialize + write + fsync + atomic rename.
//   recovery_open        DurableFleet::Open over a pristine copy of the
//                        run's state dir: newest valid snapshot loaded,
//                        journal tail replayed, then the mandatory
//                        post-recovery rotation. recovery_vs_replay_ratio
//                        (in the paired full_replay kernel) divides this
//                        by a from-scratch re-ingest of every point and
//                        must stay < 1.0 — recovery that loses to a full
//                        replay would make the subsystem pointless.
//
// Reports are written in the same JSON schema as the other benches.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/datasets.h"
#include "durable/durable_fleet.h"
#include "geo/metric.h"
#include "stream/motif_fleet_engine.h"
#include "util/timer.h"

namespace frechet_motif {
namespace bench {
namespace {

void Die(const Status& status, const char* where) {
  std::fprintf(stderr, "%s: %s\n", where, status.ToString().c_str());
  std::exit(1);
}

struct SnapshotMeasurement {
  std::int64_t points = 0;
  double plain_seconds = 0.0;
  double durable_seconds = 0.0;
  double checkpoint_seconds = 0.0;  // mean per checkpoint
  std::int64_t checkpoints = 0;
  std::int64_t snapshot_bytes = 0;
  double recovery_seconds = 0.0;  // mean per Open
  std::int64_t recovery_opens = 0;
  std::int64_t replayed_records = 0;
  double full_replay_seconds = 0.0;
};

/// One full measurement at window length `window`: feed, checkpoint,
/// recover, replay. All state lives under `root` (wiped afterwards).
SnapshotMeasurement Measure(Index window, Index streams,
                            const std::filesystem::path& root,
                            const BenchConfig& config) {
  StreamOptions stream_options;
  stream_options.window_length = window;
  stream_options.slide_step = std::max<Index>(1, window / 16);
  stream_options.min_length_xi =
      config.xi > 0 ? static_cast<Index>(config.xi) : window / 8;
  stream_options.threads = static_cast<int>(config.threads);
  FleetOptions options;
  options.stream = stream_options;

  const HaversineMetric metric;
  std::vector<Trajectory> data;
  for (Index s = 0; s < streams; ++s) {
    DatasetOptions dataset;
    dataset.length = static_cast<Index>(3 * window);
    dataset.seed = config.seed + static_cast<std::uint64_t>(s);
    data.push_back(MakeDataset(DatasetKind::kGeoLifeLike, dataset).value());
  }
  const Index points_per_stream = data[0].size();

  SnapshotMeasurement m;
  m.points = static_cast<std::int64_t>(streams) * points_per_stream;

  // --- Baseline: the same feed with no durability at all. ---
  auto plain = MotifFleetEngine::Create(options, metric);
  if (!plain.ok()) Die(plain.status(), "plain create");
  for (Index s = 0; s < streams; ++s) {
    if (!plain.value().AddStream().ok()) Die(Status::Internal(""), "add");
  }
  Timer timer;
  for (Index k = 0; k < points_per_stream; ++k) {
    for (Index s = 0; s < streams; ++s) {
      auto report =
          plain.value().Push(static_cast<std::size_t>(s), data[s][k]);
      if (!report.ok()) Die(report.status(), "plain push");
    }
  }
  m.plain_seconds = timer.ElapsedSeconds();

  // --- Durable feed: journal every Ingest call, checkpoint every
  // 100 records, one final Sync (per-record fsync would time the disk,
  // not the layer). ---
  DurableOptions durable_options;
  durable_options.state_dir = (root / "state").string();
  durable_options.checkpoint_interval_records = 100;
  durable_options.sync_each_record = false;
  auto durable = DurableFleet::Open(options, metric, durable_options);
  if (!durable.ok()) Die(durable.status(), "durable open");
  for (Index s = 0; s < streams; ++s) {
    if (!durable.value().AddStream().ok()) Die(Status::Internal(""), "add");
  }
  timer.Restart();
  for (Index k = 0; k < points_per_stream; ++k) {
    for (Index s = 0; s < streams; ++s) {
      auto report =
          durable.value().Push(static_cast<std::size_t>(s), data[s][k]);
      if (!report.ok()) Die(report.status(), "durable push");
    }
  }
  if (!durable.value().Sync().ok()) Die(Status::Internal(""), "sync");
  m.durable_seconds = timer.ElapsedSeconds();

  std::string snapshot;
  if (!durable.value().engine().Snapshot(&snapshot).ok()) {
    Die(Status::Internal(""), "snapshot");
  }
  m.snapshot_bytes = static_cast<std::int64_t>(snapshot.size());

  // Freeze the post-feed state (journal tail included) before the
  // explicit checkpoints below rotate it away.
  const std::filesystem::path pristine = root / "pristine";
  std::filesystem::copy(root / "state", pristine,
                        std::filesystem::copy_options::recursive);

  // --- Explicit checkpoint cost: serialize + write + fsync + rename. ---
  m.checkpoints = config.smoke ? 3 : 10;
  timer.Restart();
  for (std::int64_t c = 0; c < m.checkpoints; ++c) {
    if (!durable.value().Checkpoint().ok()) {
      Die(Status::Internal(""), "checkpoint");
    }
  }
  m.checkpoint_seconds =
      timer.ElapsedSeconds() / static_cast<double>(m.checkpoints);

  // --- Recovery: Open over a copy of the pristine state. Each Open
  // consumes its copy (recovery rotates the journal), so every
  // iteration gets a fresh one. ---
  m.recovery_opens = config.smoke ? 3 : 10;
  double recovery_total = 0.0;
  for (std::int64_t r = 0; r < m.recovery_opens; ++r) {
    const std::filesystem::path copy = root / "recover";
    std::filesystem::remove_all(copy);
    std::filesystem::copy(pristine, copy,
                          std::filesystem::copy_options::recursive);
    DurableOptions recover_options = durable_options;
    recover_options.state_dir = copy.string();
    timer.Restart();
    auto recovered = DurableFleet::Open(options, metric, recover_options);
    recovery_total += timer.ElapsedSeconds();
    if (!recovered.ok()) Die(recovered.status(), "recovery open");
    if (!recovered.value().recovery().restored_snapshot) {
      Die(Status::Internal("recovery found no snapshot"), "recovery");
    }
    m.replayed_records = static_cast<std::int64_t>(
        recovered.value().recovery().replayed_records);
  }
  m.recovery_seconds =
      recovery_total / static_cast<double>(m.recovery_opens);

  // --- The alternative to recovery: replay the entire feed. ---
  auto replay = MotifFleetEngine::Create(options, metric);
  if (!replay.ok()) Die(replay.status(), "replay create");
  for (Index s = 0; s < streams; ++s) {
    if (!replay.value().AddStream().ok()) Die(Status::Internal(""), "add");
  }
  timer.Restart();
  for (Index k = 0; k < points_per_stream; ++k) {
    for (Index s = 0; s < streams; ++s) {
      auto report =
          replay.value().Push(static_cast<std::size_t>(s), data[s][k]);
      if (!report.ok()) Die(report.status(), "replay push");
    }
  }
  m.full_replay_seconds = timer.ElapsedSeconds();
  return m;
}

}  // namespace
}  // namespace bench
}  // namespace frechet_motif

int main(int argc, char** argv) {
  using namespace frechet_motif;
  using namespace frechet_motif::bench;
  BenchConfig config = ParseBenchConfig(argc, argv, /*default_lengths=*/
                                        {256}, /*default_xis=*/{},
                                        /*default_xi=*/0, /*default_n=*/2);
  if (config.smoke) config.lengths = {128};
  if (config.json_path == "BENCH_kernels.json") {
    config.json_path = "BENCH_snapshot.json";
  }
  const Index streams =
      static_cast<Index>(std::max<std::int64_t>(1, config.n));
  PrintHeader("snapshot",
              "Durability layer: snapshot latency, journal overhead, and "
              "recovery time vs full replay",
              config);

  std::error_code ec;
  const std::filesystem::path root =
      std::filesystem::temp_directory_path(ec) / "fmotif_bench_snapshot";
  std::filesystem::remove_all(root, ec);
  std::filesystem::create_directories(root, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", root.string().c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::vector<KernelResult> results;
  for (std::int64_t length : config.lengths) {
    const Index window = static_cast<Index>(length);
    const SnapshotMeasurement m = Measure(window, streams, root, config);
    std::filesystem::remove_all(root, ec);
    std::filesystem::create_directories(root, ec);
    const double points = static_cast<double>(m.points);

    KernelResult plain;
    plain.name = "plain_ingest";
    plain.n = window;
    plain.threads = config.threads;
    plain.ns_per_op = m.plain_seconds * 1e9 / points;
    plain.iterations = m.points;
    plain.extras["streams"] = static_cast<double>(streams);
    plain.extras["points_per_sec"] = points / m.plain_seconds;
    results.push_back(plain);

    KernelResult durable;
    durable.name = "durable_ingest";
    durable.n = window;
    durable.threads = config.threads;
    durable.ns_per_op = m.durable_seconds * 1e9 / points;
    durable.iterations = m.points;
    durable.extras["streams"] = static_cast<double>(streams);
    durable.extras["points_per_sec"] = points / m.durable_seconds;
    durable.extras["journal_overhead_ratio"] =
        m.plain_seconds > 0.0 ? m.durable_seconds / m.plain_seconds : 0.0;
    results.push_back(durable);

    KernelResult checkpoint;
    checkpoint.name = "snapshot_checkpoint";
    checkpoint.n = window;
    checkpoint.threads = config.threads;
    checkpoint.ns_per_op = m.checkpoint_seconds * 1e9;
    checkpoint.iterations = m.checkpoints;
    checkpoint.extras["snapshot_bytes"] =
        static_cast<double>(m.snapshot_bytes);
    results.push_back(checkpoint);

    KernelResult recovery;
    recovery.name = "recovery_open";
    recovery.n = window;
    recovery.threads = config.threads;
    recovery.ns_per_op = m.recovery_seconds * 1e9;
    recovery.iterations = m.recovery_opens;
    recovery.extras["replayed_records"] =
        static_cast<double>(m.replayed_records);
    results.push_back(recovery);

    KernelResult replay;
    replay.name = "full_replay";
    replay.n = window;
    replay.threads = config.threads;
    replay.ns_per_op = m.full_replay_seconds * 1e9 / points;
    replay.iterations = m.points;
    replay.extras["seconds"] = m.full_replay_seconds;
    replay.extras["recovery_vs_replay_ratio"] =
        m.full_replay_seconds > 0.0
            ? m.recovery_seconds / m.full_replay_seconds
            : 0.0;
    results.push_back(replay);

    std::printf(
        "W=%-5d snapshot %lld B, checkpoint %.2f ms, recovery %.2f ms "
        "(%lld records replayed), full replay %.2f ms, ratio %.3f\n",
        window, static_cast<long long>(m.snapshot_bytes),
        m.checkpoint_seconds * 1e3, m.recovery_seconds * 1e3,
        static_cast<long long>(m.replayed_records),
        m.full_replay_seconds * 1e3,
        m.full_replay_seconds > 0.0
            ? m.recovery_seconds / m.full_replay_seconds
            : 0.0);
  }
  std::filesystem::remove_all(root, ec);

  if (!config.json_path.empty() &&
      !WriteKernelJson(config.json_path, "snapshot", config, results)) {
    return 1;
  }
  return 0;
}
