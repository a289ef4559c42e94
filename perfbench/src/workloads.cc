#include "workloads.h"

#include <algorithm>
#include <functional>
#include <thread>

namespace fmbench {

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"throughput_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"data.read_csv_s", "s", "lower"},
      {"core.matrix_build_s", "s", "lower"},
      {"core.ground_distances", "count", "lower"},
      {"motif.precompute_s", "s", "lower"},
      {"motif.search_s", "s", "lower"},
      {"motif.subsets_evaluated", "count", "lower"},
      {"motif.evaluated_share", "share", "lower"},
      {"motif.group_pairs_total", "count", "lower"},
      {"motif.group_pairs_pruned_share", "share", "higher"},
      {"motif.gub_tightenings", "count", "higher"},
      {"motif.bsf_updates", "count", "lower"},
      {"motif.peak_bytes", "bytes", "lower"},
      {"similarity.dfd_cells", "count", "lower"},
      {"similarity.cells_per_s", "1/s", "higher"},
      {"stream.ingest_s", "s", "lower"},
      {"stream.append_s", "s", "lower"},
      {"stream.bounds_s", "s", "lower"},
      {"stream.search_s", "s", "lower"},
      {"stream.slides", "count", "higher"},
      {"stream.seeded_share", "share", "higher"},
      {"stream.carried_share", "share", "higher"},
      {"stream.dfd_cells_per_slide", "count", "lower"},
      {"stream.bound_rescans", "count", "lower"},
      {"stream.reordered", "count", "lower"},
      {"stream.late_dropped", "count", "lower"},
      {"stream.coalesced_slides", "count", "lower"},
      {"join.pairs_reverified", "count", "lower"},
      {"join.verdicts_carried", "count", "higher"},
      {"join.carried_share", "share", "higher"},
      {"join.entered", "count", "lower"},
      {"join.left", "count", "lower"},
      {"durable.append_s", "s", "lower"},
      {"durable.appends", "count", "lower"},
      {"durable.bytes", "bytes", "lower"},
      {"durable.sync_s", "s", "lower"},
      {"durable.syncs", "count", "lower"},
      {"durable.checkpoint_s", "s", "lower"},
      {"durable.checkpoints", "count", "lower"},
      {"durable.snapshot_bytes", "bytes", "lower"},
      {"durable.recovery_open_s", "s", "lower"},
      {"durable.replayed_records", "count", "lower"},
      {"serve.read_s", "s", "lower"},
      {"serve.write_s", "s", "lower"},
      {"serve.bytes_in", "bytes", "lower"},
      {"serve.bytes_out", "bytes", "lower"},
      {"serve.frames_pushed", "count", "lower"},
      {"serve.frames_dropped", "count", "lower"},
      {"serve.loop_cpu_s", "s", "lower"},
      {"serve.self_s", "s", "lower"},
      {"serve.backlog_peak_rows", "count", "lower"},
      {"gen.late_p99_ms", "ms", "lower"},
      {"trace.overhead_share", "share", "lower"},
      {"trace.unattributed_share", "share", "lower"},
  };
  return specs;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"batch_motif", "fleet_replay",
                                                 "serve_live"};
  return names;
}

int LibraryThreads(int wanted) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(wanted, cores);
}

double MedianSetupSeconds(int reps, const std::function<double()>& setup) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) times.push_back(setup());
  return Median(times);
}

}  // namespace fmbench
