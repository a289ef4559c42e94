// Microbenchmarks for the computational kernels the paper's complexity
// analysis is built on: the haversine ground distance, the dG matrix build,
// the O(l^2) DFD dynamic program (matrix path at the dispatched SIMD level
// and pinned to scalar, with and without the threshold early exit), the
// relaxed-bound precomputation pass, the group-envelope construction and
// the end-to-end BTM search (serial and thread-pooled).
//
// Self-contained harness (no Google Benchmark): each kernel is run until a
// minimum wall-clock budget is spent and reported as mean ns/op. With
// --json[=path] the results are also written machine-readably (see
// docs/PERFORMANCE.md for the schema); --smoke shrinks everything to a
// CI-sized sanity run. --threads=N sizes the pooled kernels.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/distance_matrix.h"
#include "data/datasets.h"
#include "geo/metric.h"
#include "motif/btm.h"
#include "motif/group.h"
#include "motif/relaxed_bounds.h"
#include "similarity/frechet.h"
#include "stream/motif_fleet_engine.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace frechet_motif {
namespace {

using bench::BenchConfig;
using bench::KernelResult;

/// Accumulator the kernels fold their outputs into so the optimizer cannot
/// delete the measured work; printed once at the end.
double g_sink = 0.0;

Trajectory Dataset(Index n, std::uint64_t seed) {
  DatasetOptions options;
  options.length = n;
  options.seed = seed;
  return MakeDataset(DatasetKind::kGeoLifeLike, options).value();
}

/// Runs `fn` until the time budget is spent (at least once) and records the
/// mean ns/op under `name`.
KernelResult Measure(const std::string& name, std::int64_t n,
                     std::int64_t threads, double min_seconds,
                     const std::function<void()>& fn) {
  // One untimed warm-up pass populates caches and scratch buffers.
  fn();
  std::int64_t iters = 0;
  Timer timer;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedSeconds() < min_seconds);
  KernelResult r;
  r.name = name;
  r.n = n;
  r.threads = threads;
  r.iterations = iters;
  r.ns_per_op = static_cast<double>(timer.ElapsedNanos()) /
                static_cast<double>(iters);
  std::printf("%-34s n=%-6lld threads=%-2lld %14.1f ns/op  (%lld iters)\n",
              name.c_str(), static_cast<long long>(n),
              static_cast<long long>(threads), r.ns_per_op,
              static_cast<long long>(iters));
  return r;
}

std::vector<KernelResult> RunAll(const BenchConfig& config) {
  std::vector<KernelResult> results;
  const double budget = config.smoke ? 0.02 : 0.25;
  const Index l = config.smoke ? 64 : 256;     // DFD subtrajectory length
  const Index n = config.smoke ? 160 : 512;    // matrix side
  const int threads = ResolveThreadCount(static_cast<int>(config.threads));

  const Trajectory t = Dataset(n, 7);
  const DistanceMatrix dg = DistanceMatrix::Build(t, Haversine()).value();
  FrechetScratch scratch;

  // -- Ground distance ------------------------------------------------
  const Trajectory two = Dataset(2, 7);
  results.push_back(Measure("haversine_distance", 2, 1, budget, [&] {
    g_sink += Haversine().Distance(two[0], two[1]);
  }));

  // -- dG matrix build (blocked, cached unit vectors) -----------------
  results.push_back(Measure("distance_matrix_build", n, 1, budget, [&] {
    g_sink += DistanceMatrix::Build(t, Haversine()).value().Distance(1, 2);
  }));

  // -- The DFD kernel: per SIMD level, with and without early exit ----
  // Each matrix-path row carries the SIMD level it dispatched to
  // (0=scalar 1=sse2 2=avx2 3=avx512) so the committed JSON records what
  // the numbers mean; *_scalar rows pin the level to 0 via the
  // programmatic cap, isolating the vectorization speedup.
  const double simd_level = static_cast<double>(ActiveSimdLevel());
  const std::vector<Index> range_lengths =
      config.smoke ? std::vector<Index>{32, 64}
                   : std::vector<Index>{64, 128, 256};
  const Index i0 = 0;
  const Index j0 = n / 2;
  for (const Index len : range_lengths) {
    const auto range_exact =
        DiscreteFrechetOnRange(dg, i0, i0 + len - 1, j0, j0 + len - 1)
            .value();
    results.push_back(Measure("dfd_on_range_matrix", len, 1, budget, [&] {
      g_sink += DiscreteFrechetOnRange(dg, i0, i0 + len - 1, j0,
                                       j0 + len - 1, kNoFrechetThreshold,
                                       &scratch)
                    .value();
    }));
    results.back().extras["simd_level"] = simd_level;
    SetSimdLevelCap(SimdLevel::kScalar);
    results.push_back(
        Measure("dfd_on_range_matrix_scalar", len, 1, budget, [&] {
          g_sink += DiscreteFrechetOnRange(dg, i0, i0 + len - 1, j0,
                                           j0 + len - 1, kNoFrechetThreshold,
                                           &scratch)
                        .value();
        }));
    ClearSimdLevelCap();
    results.push_back(
        Measure("dfd_on_range_matrix_threshold", len, 1, budget, [&] {
          g_sink += DiscreteFrechetOnRange(dg, i0, i0 + len - 1, j0,
                                           j0 + len - 1, range_exact * 0.5,
                                           &scratch)
                        .value();
        }));
    results.back().extras["simd_level"] = simd_level;
    SetSimdLevelCap(SimdLevel::kScalar);
    results.push_back(Measure("dfd_on_range_matrix_threshold_scalar", len, 1,
                              budget, [&] {
                                g_sink += DiscreteFrechetOnRange(
                                              dg, i0, i0 + len - 1, j0,
                                              j0 + len - 1, range_exact * 0.5,
                                              &scratch)
                                              .value();
                              }));
    ClearSimdLevelCap();
  }

  // -- Whole-trajectory kernels ---------------------------------------
  const Trajectory a = Dataset(l, 1);
  const Trajectory b = Dataset(l, 2);
  results.push_back(Measure("discrete_frechet", l, 1, budget, [&] {
    g_sink += DiscreteFrechet(a, b, Haversine(), &scratch).value();
  }));
  results.push_back(Measure("dfd_at_most", l, 1, budget, [&] {
    g_sink += DiscreteFrechetAtMost(a, b, Haversine(), 500.0, &scratch).value()
                  ? 1.0
                  : 0.0;
  }));

  // -- Bound precomputation and grouping ------------------------------
  MotifOptions motif;
  motif.min_length_xi = config.smoke ? 10 : 30;
  results.push_back(Measure("relaxed_bounds_build", n, 1, budget, [&] {
    g_sink += RelaxedBounds::Build(dg.View(), motif).Rmin(1);
  }));
  if (threads > 1) {
    ThreadPool pool(threads);
    results.push_back(
        Measure("relaxed_bounds_build", n, threads, budget, [&] {
          g_sink += RelaxedBounds::Build(dg.View(), motif, &pool).Rmin(1);
        }));
  }
  results.push_back(Measure("grouping_build", n, 1, budget, [&] {
    g_sink += static_cast<double>(
        Grouping::Build(dg.View(), motif, static_cast<Index>(config.tau))
            .num_row_groups());
  }));

  // -- End-to-end search: serial vs pooled ----------------------------
  const double search_budget = config.smoke ? 0.02 : 1.0;
  BtmOptions btm;
  btm.motif = motif;
  results.push_back(Measure("btm_relaxed", n, 1, search_budget, [&] {
    g_sink += BtmMotif(dg, btm).value().distance;
  }));
  if (threads > 1) {
    BtmOptions pooled = btm;
    pooled.motif.threads = threads;
    results.push_back(
        Measure("btm_relaxed", n, threads, search_budget, [&] {
          g_sink += BtmMotif(dg, pooled).value().distance;
        }));
  }

  // -- Fleet drain fan-out: 16 windows, serial vs threaded ------------
  // One op = one Ingest of slide_step points per stream (blocked), which
  // makes all 16 windows due in the same batch-end drain — the threaded
  // fleet fans those searches out one window per lane. Results are
  // bit-identical either way (tests/fleet_drain_test.cc); this measures
  // the wall-clock. `hw_threads` is recorded so the CI gate only
  // compares the curves on machines that actually have the cores.
  constexpr std::size_t kFleetStreams = 16;
  const double hw_threads = static_cast<double>(ResolveThreadCount(0));
  StreamOptions drain_stream;
  drain_stream.window_length = config.smoke ? 70 : 128;
  drain_stream.slide_step = config.smoke ? 10 : 16;
  drain_stream.min_length_xi = config.smoke ? 10 : 16;
  const Index drain_batch = drain_stream.slide_step;
  std::vector<Trajectory> drain_walks;
  for (std::size_t s = 0; s < kFleetStreams; ++s) {
    drain_walks.push_back(Dataset(4096, 500 + s));
  }
  for (const int fleet_threads : {1, 4}) {
    FleetOptions fleet_options;
    fleet_options.stream = drain_stream;
    fleet_options.stream.threads = fleet_threads;
    MotifFleetEngine fleet =
        MotifFleetEngine::Create(fleet_options, Haversine()).value();
    for (std::size_t s = 0; s < kFleetStreams; ++s) {
      g_sink += static_cast<double>(fleet.AddStream().value());
    }
    std::vector<Index> cursor(kFleetStreams, 0);
    const auto ingest_per_stream = [&](Index count) {
      std::vector<FleetArrival> batch;
      batch.reserve(kFleetStreams * static_cast<std::size_t>(count));
      for (std::size_t s = 0; s < kFleetStreams; ++s) {
        for (Index k = 0; k < count; ++k) {
          FleetArrival arrival;
          arrival.stream = s;
          arrival.point =
              drain_walks[s][(cursor[s] + k) % drain_walks[s].size()];
          batch.push_back(arrival);
        }
        cursor[s] = (cursor[s] + count) % drain_walks[s].size();
      }
      g_sink += static_cast<double>(
          fleet.Ingest(batch).value().updates.size());
    };
    ingest_per_stream(drain_stream.window_length);  // fill all windows
    results.push_back(Measure("fleet_drain_16w", kFleetStreams,
                              fleet_threads, search_budget, [&] {
                                ingest_per_stream(drain_batch);
                              }));
    results.back().extras["hw_threads"] = hw_threads;
  }
  return results;
}

int Main(int argc, char** argv) {
  const BenchConfig config =
      bench::ParseBenchConfig(argc, argv, {}, {}, 0, 0);
  bench::PrintHeader("micro-kernels",
                     "per-kernel ns/op (DFD matrix path per SIMD level, "
                     "bounds, grouping, BTM)",
                     config);

  const std::vector<KernelResult> results = RunAll(config);

  std::printf("\n(sink %g)\n", g_sink);

  if (!config.json_path.empty() &&
      !bench::WriteKernelJson(config.json_path, "bench_micro_kernels", config,
                              results)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace frechet_motif

int main(int argc, char** argv) { return frechet_motif::Main(argc, argv); }
