// fleet_replay: round-robin Ingest batches over a fleet of W=512
// windows (see params.h).

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "geo/metric.h"
#include "motif/motif.h"
#include "params.h"
#include "stream/motif_fleet_engine.h"
#include "stream/window_state.h"
#include "workloads.h"

namespace fmbench {
namespace {

namespace fm = frechet_motif;

fm::FleetOptions MakeOptions(int threads) {
  fm::FleetOptions options;
  options.stream.window_length = kFleetWindow;
  options.stream.slide_step = kFleetSlide;
  options.stream.min_length_xi = kFleetXi;
  options.stream.threads = threads;
  return options;
}

std::vector<fm::FleetArrival> Batch(const std::vector<Trajectory>& streams,
                                    int index) {
  std::vector<fm::FleetArrival> batch;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    fm::FleetArrival a;
    a.stream = s;
    a.point = streams[s][index];
    a.has_timestamp = true;
    a.timestamp = streams[s].timestamp(index);
    batch.push_back(a);
  }
  return batch;
}

/// A slide report kept for the off-clock oracle.
struct Sample {
  std::size_t stream = 0;
  fm::Trajectory window;
  fm::MotifResult motif;
};

struct Pass {
  std::vector<double> slide_ms;  // one per slide report
  double wall_s = 0.0;
  std::int64_t points = 0;
  std::int64_t slides = 0;
  std::int64_t seeded = 0;
  std::int64_t carried = 0;
  std::int64_t dfd_cells = 0;
  double bounds_s = 0.0;
  double search_s = 0.0;
  std::vector<Sample> samples;
};

/// Ingests batch `index` into `engine` and accounts it into `pass`: the
/// time to build and ingest the batch, and one latency sample per slide
/// report it produced. With `sample_stride` > 0, every that-many-th
/// report's window is captured (off the clock) for the oracle.
void Step(fm::MotifFleetEngine& engine, const std::vector<Trajectory>& streams,
          int index, Tracer* tracer, int sample_stride, Pass* pass,
          RunResult* out) {
  const double start = NowSeconds();
  const std::vector<fm::FleetArrival> batch = Batch(streams, index);
  const double t0 = NowSeconds();
  fm::StatusOr<fm::FleetReport> report = engine.Ingest(batch);
  const double t1 = NowSeconds();
  pass->wall_s += t1 - start;
  if (tracer != nullptr) tracer->Record("stream.ingest", -1, index, t0, t1);
  pass->points += static_cast<std::int64_t>(batch.size());
  if (!report.ok()) {
    out->Fail("Ingest failed: " + report.status().message());
    return;
  }
  for (const fm::FleetStreamUpdate& u : report.value().updates) {
    pass->slide_ms.push_back(1e3 * (t1 - t0));
    pass->seeded += u.update.seeded ? 1 : 0;
    pass->carried += u.update.carried ? 1 : 0;
    pass->dfd_cells += u.update.stats.dfd_cells_computed;
    pass->bounds_s += u.update.stats.precompute_seconds;
    pass->search_s += u.update.stats.search_seconds;
    if (sample_stride > 0 && pass->slides % sample_stride == sample_stride / 2) {
      pass->samples.push_back(
          {u.stream, engine.WindowTrajectory(u.stream), u.update.motif});
    }
    ++pass->slides;
  }
}

/// Set-up: streams, engine, and the first full windows (whose first,
/// unseeded searches run here).
double Setup(std::uint64_t seed, int threads, std::vector<Trajectory>* streams,
             std::optional<fm::MotifFleetEngine>* engine, int* next,
             RunResult* out) {
  const double t0 = NowSeconds();
  *streams = MakeFleetStreams(seed);
  *engine = std::move(fm::MotifFleetEngine::Create(MakeOptions(threads),
                                                   fm::Haversine()))
                .value();
  for (int s = 0; s < kFleetStreams; ++s) (void)(*engine)->AddStream();
  for (*next = 0; *next < kFleetWindow; ++*next) {
    if (!(*engine)->Ingest(Batch(*streams, *next)).ok()) {
      out->Fail("set-up Ingest failed");
    }
  }
  return NowSeconds() - t0;
}

}  // namespace

RunResult RunFleetReplay(const RunConfig& config) {
  RunResult out;
  const int threads = LibraryThreads(kFleetThreads);
  std::vector<Trajectory> streams;
  std::optional<fm::MotifFleetEngine> engine;
  int next = 0;
  const double setup_s = MedianSetupSeconds(kFleetSetupReps, [&] {
    return Setup(config.seed, threads, &streams, &engine, &next, &out);
  });

  // Timed batches until --seconds have passed and enough slides were
  // reported. The traced run feeds a second, traced engine the same
  // batches in lockstep, so both see the same slides under the same host
  // conditions; its reference pass needs no percentile, so fewer slides.
  const int min_slides = config.trace ? kFleetTracePassSlides : kFleetMinSlides;
  Tracer tracer(config.trace);
  std::optional<fm::MotifFleetEngine> traced_engine;
  if (config.trace) {
    int traced_next = 0;
    (void)Setup(config.seed, threads, &streams, &traced_engine, &traced_next, &out);
  }
  Pass plain;
  std::optional<Pass> traced;
  if (config.trace) traced.emplace();
  const int length = streams[0].size();
  const double start = NowSeconds();
  while (next < length &&
         (plain.slides < min_slides || NowSeconds() - start < config.seconds)) {
    Step(*engine, streams, next, nullptr, kFleetOracleStride, &plain, &out);
    if (traced) Step(*traced_engine, streams, next, &tracer, 0, &*traced, &out);
    ++next;
  }
  const double peak_rss = PeakRssMb();

  // Oracle, off the clock: sampled windows against a fresh search.
  const fm::FindMotifOptions baseline = MakeOptions(threads).stream.BaselineOptions();
  for (const Sample& s : plain.samples) {
    fm::StatusOr<fm::MotifResult> r =
        fm::FindMotif(s.window, fm::Haversine(), baseline);
    if (!r.ok() || !(r.value().best == s.motif.best) ||
        std::memcmp(&r.value().distance, &s.motif.distance, sizeof(double)) != 0) {
      out.Fail("stream " + std::to_string(s.stream) +
               ": slide differs from FindMotif(window, BaselineOptions())");
    }
  }
  out.attempted = plain.slides + (traced ? traced->slides : 0);

  if (plain.slides < min_slides) {
    out.invalid_reason = "fewer than " + std::to_string(min_slides) +
                         " slides: the generated streams ran out";
    return out;
  }
  const double p50 = Median(plain.slide_ms);
  // The traced run reports no percentiles, so its shorter pass may
  // lack the samples a p90 needs.
  const double p90 = TailPercentile(plain.slide_ms, 90.0).value_or(0.0);
  const double rate = static_cast<double>(plain.points) / plain.wall_s;
  out.values["setup_s"] = setup_s;
  out.values["throughput_per_s"] = rate;
  out.values["peak_rss_mb"] = peak_rss;
  const auto n = static_cast<std::int64_t>(plain.slide_ms.size());
  out.figures = {
      {"setup_s", setup_s, "s", kFleetSetupReps},
      {"slide_p50_ms", p50, "ms", n},
      {"slide_p90_ms", p90, "ms", n},
      {"replay_points_per_s", rate, "points/s", plain.points},
      {"seeded_share", static_cast<double>(plain.seeded) / static_cast<double>(n),
       "share", n},
      {"threads", static_cast<double>(threads), "count", 0},
      {"peak_rss_mb", peak_rss, "MB", 0},
  };

  if (traced) {
    const Pass& t = *traced;
    const double slides = static_cast<double>(t.slides);
    const fm::FleetStats fleet = traced_engine->stats();
    std::int64_t rescans = 0;
    for (std::size_t s = 0; s < traced_engine->stream_count(); ++s) {
      rescans += traced_engine->stream_stats(s).bound_rescans;
    }
    const std::map<std::string, double> dur = DurationByName(tracer.spans());
    auto& v = out.values;
    v["stream.ingest_s"] = dur.count("stream.ingest") ? dur.at("stream.ingest") : 0.0;
    v["stream.bounds_s"] = t.bounds_s;
    v["stream.search_s"] = t.search_s;
    v["stream.slides"] = slides;
    v["stream.seeded_share"] = static_cast<double>(t.seeded) / slides;
    v["stream.carried_share"] = static_cast<double>(t.carried) / slides;
    v["stream.dfd_cells_per_slide"] = static_cast<double>(t.dfd_cells) / slides;
    v["stream.bound_rescans"] = static_cast<double>(rescans);
    v["stream.coalesced_slides"] = static_cast<double>(fleet.coalesced_slides);
    v["stream.reordered"] = static_cast<double>(fleet.reordered);
    v["stream.late_dropped"] = static_cast<double>(fleet.late_dropped);
    v["core.ground_distances"] = static_cast<double>(fleet.ground_distances_computed);
    v["similarity.dfd_cells"] = static_cast<double>(t.dfd_cells);
    v["similarity.cells_per_s"] =
        t.search_s > 0 ? static_cast<double>(t.dfd_cells) / t.search_s : 0.0;

    // WindowState::Append alone, replayed over stream 0: the window fill
    // untimed, then the traced pass's points timed and scaled to the fleet.
    fm::WindowState window = std::move(fm::WindowState::Create(
                                           MakeOptions(threads).stream,
                                           fm::Haversine(), false))
                                 .value();
    const Trajectory& s0 = streams[0];
    const int replay_end = kFleetWindow + static_cast<int>(t.points / kFleetStreams);
    double append_s = 0.0;
    for (int i = 0; i < replay_end; ++i) {
      const double ts = s0.timestamp(i);
      const double a0 = NowSeconds();
      (void)window.Append(0, s0[i], &ts);
      const double a1 = NowSeconds();
      if (i >= kFleetWindow) {
        tracer.Record("stream.append", -1, i, a0, a1);
        append_s += a1 - a0;
      }
    }
    v["stream.append_s"] = append_s * kFleetStreams;

    const double per_point_plain = plain.wall_s / static_cast<double>(plain.points);
    const double per_point_traced = t.wall_s / static_cast<double>(t.points);
    v["trace.overhead_share"] = per_point_traced / per_point_plain - 1.0;
    const double ingest_per_point = v["stream.ingest_s"] / static_cast<double>(t.points);
    v["trace.unattributed_share"] = (per_point_plain - ingest_per_point) / per_point_plain;
    tracer.WriteJsonl(config.work_dir + "/fleet_replay-seed" +
                      std::to_string(config.seed) + ".spans.jsonl");
  }
  return out;
}

}  // namespace fmbench
