// Tests of the fleet streaming engine and its components: the
// dirty/staleness SearchScheduler, the watermark IngestFrontend, parity
// of MotifFleetEngine against independent monitors, budgeted slide
// coalescing, the incremental ε-join deltas, and arrival validation in
// both fleet engines (MotifFleetEngine and DurableFleet).

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "durable/durable_fleet.h"
#include "fault_fs.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "join/similarity_join.h"
#include "motif/motif.h"
#include "stream/ingest_frontend.h"
#include "stream/motif_fleet_engine.h"
#include "stream/search_scheduler.h"
#include "stream/streaming_motif_monitor.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

Trajectory GeoWalk(Index n, std::uint64_t seed) {
  DatasetOptions options;
  options.length = n;
  options.seed = seed;
  return MakeDataset(DatasetKind::kGeoLifeLike, options).value();
}

// --- SearchScheduler ---------------------------------------------------------

TEST(SearchScheduler, OrdersByDirtyAppendsThenStalenessThenId) {
  SearchScheduler scheduler;
  ASSERT_EQ(0u, scheduler.Register());
  ASSERT_EQ(1u, scheduler.Register());
  ASSERT_EQ(2u, scheduler.Register());
  ASSERT_EQ(3u, scheduler.Register());

  // Stream 1 is dirtiest; 0 and 2 tie on dirt but 2 was searched less
  // recently (never); 3 ties with 0 on everything except id.
  scheduler.NoteSearched(0);
  scheduler.NoteSearched(3);
  scheduler.NoteSearched(0);  // 0 searched most recently
  for (int k = 0; k < 3; ++k) scheduler.NoteAppend(1);
  scheduler.NoteAppend(0);
  scheduler.NoteAppend(2);
  scheduler.NoteAppend(3);
  for (std::size_t id = 0; id < 4; ++id) scheduler.MarkDue(id);

  const std::vector<std::size_t> order = scheduler.DrainOrder();
  ASSERT_EQ(4u, order.size());
  EXPECT_EQ(1u, order[0]);  // dirtiest
  EXPECT_EQ(2u, order[1]);  // never searched => most stale
  EXPECT_EQ(3u, order[2]);  // searched before 0's second search
  EXPECT_EQ(0u, order[3]);
}

TEST(SearchScheduler, NoteSearchedClearsDueAndDirt) {
  SearchScheduler scheduler;
  scheduler.Register();
  scheduler.NoteAppend(0);
  scheduler.MarkDue(0);
  EXPECT_TRUE(scheduler.IsDue(0));
  EXPECT_EQ(1u, scheduler.due_count());
  scheduler.NoteSearched(0);
  EXPECT_FALSE(scheduler.IsDue(0));
  EXPECT_EQ(0u, scheduler.due_count());
  EXPECT_TRUE(scheduler.DrainOrder().empty());
}

// --- IngestFrontend ----------------------------------------------------------

struct SinkLog {
  std::vector<double> timestamps;
  IngestFrontend::Sink AsSink() {
    return [this](const Point&, const double* ts) -> Status {
      timestamps.push_back(ts != nullptr ? *ts : -1.0);
      return Status::Ok();
    };
  }
};

TEST(IngestFrontend, ReordersWithinCapacity) {
  IngestFrontend frontend(/*reorder_capacity=*/3);
  SinkLog log;
  const Point p = LatLon(0, 0);
  // Arrivals 2, 1, 3, 0-late?, ... shuffled within a window of 3.
  for (const double ts : {2.0, 1.0, 3.0, 5.0, 4.0, 6.0, 7.0}) {
    ASSERT_TRUE(frontend.Offer(p, &ts, log.AsSink()).ok());
  }
  ASSERT_TRUE(frontend.Flush(log.AsSink()).ok());
  EXPECT_EQ((std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}),
            log.timestamps);
  EXPECT_EQ(0, frontend.stats().late_dropped);
  EXPECT_EQ(2, frontend.stats().reordered);
  EXPECT_EQ(7, frontend.stats().released);
}

TEST(IngestFrontend, DropsBelowWatermarkAndCounts) {
  IngestFrontend frontend(/*reorder_capacity=*/2);
  SinkLog log;
  const Point p = LatLon(0, 0);
  for (const double ts : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    ASSERT_TRUE(frontend.Offer(p, &ts, log.AsSink()).ok());
  }
  // Capacity 2 => 1, 2, 3 already released; 2.5 is below the watermark.
  const double late = 2.5;
  ASSERT_TRUE(frontend.Offer(p, &late, log.AsSink()).ok());
  ASSERT_TRUE(frontend.Flush(log.AsSink()).ok());
  EXPECT_EQ((std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}), log.timestamps);
  EXPECT_EQ(1, frontend.stats().late_dropped);
}

TEST(IngestFrontend, InOrderFeedPassesThroughUnchanged) {
  IngestFrontend frontend(/*reorder_capacity=*/4);
  SinkLog log;
  const Point p = LatLon(0, 0);
  for (const double ts : {1.0, 2.0, 2.0, 3.0}) {  // equal stamps allowed
    ASSERT_TRUE(frontend.Offer(p, &ts, log.AsSink()).ok());
  }
  ASSERT_TRUE(frontend.Flush(log.AsSink()).ok());
  EXPECT_EQ((std::vector<double>{1.0, 2.0, 2.0, 3.0}), log.timestamps);
  EXPECT_EQ(0, frontend.stats().reordered);
  EXPECT_EQ(0, frontend.stats().late_dropped);
}

TEST(IngestFrontend, RejectsNonFiniteTimestamps) {
  // NaN keys would break the reorder buffer's ordering invariant and a
  // NaN watermark would silently disable late-drop.
  SinkLog log;
  const Point p = LatLon(0, 0);
  const double nan_ts = std::numeric_limits<double>::quiet_NaN();
  const double inf_ts = std::numeric_limits<double>::infinity();
  IngestFrontend buffered(2);
  EXPECT_FALSE(buffered.Offer(p, &nan_ts, log.AsSink()).ok());
  EXPECT_FALSE(buffered.Offer(p, &inf_ts, log.AsSink()).ok());
  IngestFrontend pass_through(0);
  EXPECT_FALSE(pass_through.Offer(p, &nan_ts, log.AsSink()).ok());
  EXPECT_TRUE(log.timestamps.empty());
}

TEST(IngestFrontend, RejectsNonFiniteCoordinatesWithoutStateChange) {
  SinkLog log;
  const Point bad = LatLon(std::numeric_limits<double>::quiet_NaN(), 116.3);
  const double ts = 5.0;
  IngestFrontend buffered(2);
  EXPECT_EQ(StatusCode::kInvalidArgument,
            buffered.Offer(bad, &ts, log.AsSink()).code());
  EXPECT_EQ(0, buffered.buffered());
  IngestFrontend pass_through(0);
  EXPECT_EQ(StatusCode::kInvalidArgument,
            pass_through.Offer(bad, &ts, log.AsSink()).code());
  EXPECT_EQ(0, pass_through.stats().released);
  // The rejected stamp did not advance the watermark.
  EXPECT_EQ(-std::numeric_limits<double>::infinity(),
            pass_through.watermark());
  EXPECT_TRUE(log.timestamps.empty());
}

TEST(IngestFrontend, ZeroCapacityIsPassThrough) {
  IngestFrontend frontend(0);
  SinkLog log;
  const Point p = LatLon(0, 0);
  const double t1 = 5.0;
  const double t0 = 1.0;  // out of order, nothing to fix it with
  ASSERT_TRUE(frontend.Offer(p, &t1, log.AsSink()).ok());
  ASSERT_TRUE(frontend.Offer(p, &t0, log.AsSink()).ok());
  EXPECT_EQ((std::vector<double>{5.0}), log.timestamps);
  EXPECT_EQ(1, frontend.stats().late_dropped);
}

// --- Fleet <-> monitors parity ----------------------------------------------

StreamOptions SmallStreamOptions() {
  StreamOptions options;
  options.window_length = 70;
  options.slide_step = 10;
  options.min_length_xi = 10;
  return options;
}

void ExpectUpdateEq(const StreamUpdate& expected, const StreamUpdate& actual) {
  EXPECT_EQ(expected.window_start, actual.window_start);
  EXPECT_EQ(expected.motif.best, actual.motif.best);
  EXPECT_EQ(expected.motif.distance, actual.motif.distance);
  EXPECT_EQ(expected.seeded, actual.seeded);
  EXPECT_EQ(expected.carried, actual.carried);
  EXPECT_EQ(expected.stats.dfd_cells_computed, actual.stats.dfd_cells_computed);
}

/// Every deterministic field of a slide report (timings excluded).
void ExpectReportBitIdentical(const StreamUpdate& expected,
                              const StreamUpdate& actual) {
  EXPECT_EQ(expected.window_start, actual.window_start);
  EXPECT_EQ(expected.window_start_second, actual.window_start_second);
  EXPECT_EQ(expected.window_points, actual.window_points);
  EXPECT_EQ(expected.seeded, actual.seeded);
  EXPECT_EQ(expected.seed_threshold, actual.seed_threshold);
  EXPECT_EQ(expected.carried, actual.carried);
  EXPECT_EQ(expected.motif.found, actual.motif.found);
  EXPECT_EQ(expected.motif.best, actual.motif.best);
  EXPECT_EQ(expected.motif.distance, actual.motif.distance);
  const MotifStats& e = expected.stats;
  const MotifStats& a = actual.stats;
  EXPECT_EQ(e.total_subsets, a.total_subsets);
  EXPECT_EQ(e.pruned_by_band, a.pruned_by_band);
  EXPECT_EQ(e.subsets_evaluated, a.subsets_evaluated);
  EXPECT_EQ(e.dfd_cells_computed, a.dfd_cells_computed);
  EXPECT_EQ(e.bsf_updates, a.bsf_updates);
  EXPECT_EQ(e.memory.peak_bytes(), a.memory.peak_bytes());
}

TEST(FleetEngine, RoundRobinBitIdenticalToIndependentMonitors) {
  const HaversineMetric metric;
  const StreamOptions stream_options = SmallStreamOptions();
  constexpr std::size_t kStreams = 3;
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < kStreams; ++s) {
    data.push_back(GeoWalk(220, 100 + s));
  }

  std::vector<StreamingMotifMonitor> monitors;
  std::vector<std::vector<StreamUpdate>> expected(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    monitors.push_back(
        StreamingMotifMonitor::Create(stream_options, metric).value());
  }

  FleetOptions options;
  options.stream = stream_options;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(s, fleet.value().AddStream().value());
  }

  std::vector<std::vector<StreamUpdate>> actual(kStreams);
  for (Index k = 0; k < 220; ++k) {
    std::vector<FleetArrival> batch;
    for (std::size_t s = 0; s < kStreams; ++s) {
      auto mu = monitors[s].Push(data[s][k]);
      ASSERT_TRUE(mu.ok()) << mu.status();
      if (mu.value().has_value()) expected[s].push_back(*mu.value());
      batch.push_back(FleetArrival{s, data[s][k], false, 0.0});
    }
    auto report = fleet.value().Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      actual[fu.stream].push_back(fu.update);
    }
  }

  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(expected[s].size(), actual[s].size()) << "stream " << s;
    for (std::size_t k = 0; k < expected[s].size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "stream " << s << " update " << k);
      ExpectUpdateEq(expected[s][k], actual[s][k]);
    }
    // Window contents match too.
    EXPECT_EQ(monitors[s].WindowTrajectory().points(),
              fleet.value().WindowTrajectory(s).points());
  }
}

TEST(FleetEngine, MidBatchParityGuardRunsDueSearchBeforeFurtherAppends) {
  // Feed one stream's whole trajectory as a single Ingest batch: searches
  // must fire at exactly the same positions (same windows) as a monitor
  // pushing point by point.
  const HaversineMetric metric;
  const StreamOptions stream_options = SmallStreamOptions();
  const Trajectory t = GeoWalk(200, 7);

  auto monitor = StreamingMotifMonitor::Create(stream_options, metric);
  std::vector<StreamUpdate> expected;
  for (Index k = 0; k < t.size(); ++k) {
    auto mu = monitor.value().Push(t[k]);
    ASSERT_TRUE(mu.ok());
    if (mu.value().has_value()) expected.push_back(*mu.value());
  }

  FleetOptions options;
  options.stream = stream_options;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  std::vector<FleetArrival> batch;
  for (Index k = 0; k < t.size(); ++k) {
    batch.push_back(FleetArrival{0, t[k], false, 0.0});
  }
  auto report = fleet.value().Ingest(batch);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(expected.size(), report.value().updates.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "update " << k);
    ExpectUpdateEq(expected[k], report.value().updates[k].update);
  }
}

TEST(FleetEngine, ReorderedFeedMatchesInOrderMonitor) {
  // Shuffle the arrival order within a disorder bound; a fleet with a
  // reorder buffer of that bound must report exactly what a monitor sees
  // on the in-order feed.
  const HaversineMetric metric;
  const StreamOptions stream_options = SmallStreamOptions();
  const Trajectory t = GeoWalk(200, 11);

  auto monitor = StreamingMotifMonitor::Create(stream_options, metric);
  std::vector<StreamUpdate> expected;
  for (Index k = 0; k < t.size(); ++k) {
    auto mu = monitor.value().Push(t[k], 10.0 * k);
    ASSERT_TRUE(mu.ok());
    if (mu.value().has_value()) expected.push_back(*mu.value());
  }

  // Deterministic local shuffle: swap adjacent pairs (disorder 1).
  std::vector<Index> order;
  for (Index k = 0; k + 1 < t.size(); k += 2) {
    order.push_back(k + 1);
    order.push_back(k);
  }
  if (t.size() % 2 == 1) order.push_back(t.size() - 1);

  FleetOptions options;
  options.stream = stream_options;
  options.reorder_capacity = 2;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  std::vector<StreamUpdate> actual;
  for (const Index k : order) {
    auto report = fleet.value().Push(0, t[k], 10.0 * k);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      actual.push_back(fu.update);
    }
  }
  auto flushed = fleet.value().Flush();
  ASSERT_TRUE(flushed.ok());
  for (const FleetStreamUpdate& fu : flushed.value().updates) {
    actual.push_back(fu.update);
  }

  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "update " << k);
    ExpectUpdateEq(expected[k], actual[k]);
  }
  EXPECT_EQ(0, fleet.value().stats().late_dropped);
  EXPECT_GT(fleet.value().stats().reordered, 0);
}

TEST(FleetEngine, LateDropsAreCountedAndDoNotCorruptTheWindow) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.reorder_capacity = 2;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  const Trajectory t = GeoWalk(120, 13);
  for (Index k = 0; k < t.size(); ++k) {
    ASSERT_TRUE(fleet.value().Push(0, t[k], 10.0 * k).ok());
  }
  // Far below the watermark: dropped, window untouched.
  const Index before = fleet.value().window_size(0);
  ASSERT_TRUE(fleet.value().Push(0, t[0], 5.0).ok());
  EXPECT_EQ(before, fleet.value().window_size(0));
  EXPECT_EQ(1, fleet.value().stats().late_dropped);
}

// --- Budgeted drains (slide coalescing) -------------------------------------

TEST(FleetEngine, BudgetedDrainCoalescesAndStaysExact) {
  const HaversineMetric metric;
  const StreamOptions stream_options = SmallStreamOptions();
  constexpr std::size_t kStreams = 4;
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < kStreams; ++s) {
    data.push_back(GeoWalk(240, 300 + s));
  }

  FleetOptions options;
  options.stream = stream_options;
  options.max_searches_per_drain = 2;  // half the fleet per drain
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(s, fleet.value().AddStream().value());
  }

  std::int64_t searches = 0;
  // Ingest one slide period at a time; each call may run at most 2
  // searches, and every update must match a from-scratch FindMotif on
  // the window at search time (checked right after the drain, before
  // any further appends).
  for (Index k0 = 0; k0 < 240; k0 += stream_options.slide_step) {
    std::vector<FleetArrival> batch;
    for (Index k = k0;
         k < std::min<Index>(240, k0 + stream_options.slide_step); ++k) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        batch.push_back(FleetArrival{s, data[s][k], false, 0.0});
      }
    }
    auto report = fleet.value().Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_LE(report.value().updates.size(), 2u);
    searches += static_cast<std::int64_t>(report.value().updates.size());
    for (const FleetStreamUpdate& fu : report.value().updates) {
      const Trajectory window = fleet.value().WindowTrajectory(fu.stream);
      auto scratch =
          FindMotif(window, metric, stream_options.BaselineOptions());
      ASSERT_TRUE(scratch.ok()) << scratch.status();
      EXPECT_EQ(scratch.value().best, fu.update.motif.best);
      EXPECT_EQ(scratch.value().distance, fu.update.motif.distance);
    }
  }
  // The budget forced deferrals: slides coalesced, fewer searches than
  // an unbudgeted fleet would have run.
  EXPECT_GT(fleet.value().stats().coalesced_slides, 0);
  const std::int64_t unbudgeted_slides =
      static_cast<std::int64_t>(kStreams) *
      ((240 - stream_options.window_length) / stream_options.slide_step + 1);
  EXPECT_LT(searches, unbudgeted_slides);
}

// --- Join deltas -------------------------------------------------------------

TEST(FleetEngine, JoinDeltasAccumulateToFromScratchSelfJoin) {
  const HaversineMetric metric;
  StreamOptions stream_options;
  stream_options.window_length = 60;
  stream_options.slide_step = 12;
  stream_options.min_length_xi = 8;

  FleetOptions options;
  options.stream = stream_options;
  options.join_epsilon = 2500.0;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());

  // Streams 0 and 1 replay near-identical commutes (same seed family),
  // stream 2 a different vehicle profile: pairs should enter/leave ε as
  // the windows slide.
  constexpr std::size_t kStreams = 3;
  std::vector<Trajectory> data;
  data.push_back(GeoWalk(220, 41));
  data.push_back(GeoWalk(220, 41));
  {
    DatasetOptions truck;
    truck.length = 220;
    truck.seed = 99;
    data.push_back(MakeDataset(DatasetKind::kTruckLike, truck).value());
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(s, fleet.value().AddStream().value());
  }

  // Accumulate deltas and re-derive the expected matches from scratch
  // after every report. With one point per stream per batch, drains run
  // at batch end, so the windows at return time are exactly the
  // snapshots the searches (and the join) saw.
  std::vector<JoinPair> accumulated;
  int checks = 0;
  for (Index k = 0; k < 220; ++k) {
    std::vector<FleetArrival> batch;
    for (std::size_t s = 0; s < kStreams; ++s) {
      batch.push_back(FleetArrival{s, data[s][k], false, 0.0});
    }
    auto report = fleet.value().Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const JoinPair& p : report.value().join_delta.entered) {
      accumulated.push_back(p);
    }
    for (const JoinPair& p : report.value().join_delta.left) {
      const auto at = std::find(accumulated.begin(), accumulated.end(), p);
      ASSERT_NE(accumulated.end(), at) << "left a pair never entered";
      accumulated.erase(at);
    }
    if (report.value().updates.empty()) continue;
    ++checks;

    // The engine's own accumulated set matches the delta accumulation.
    std::vector<JoinPair> sorted = accumulated;
    std::sort(sorted.begin(), sorted.end(),
              [](const JoinPair& a, const JoinPair& b) {
                return a.li != b.li ? a.li < b.li : a.ri < b.ri;
              });
    EXPECT_EQ(sorted, fleet.value().CurrentJoinMatches());

    // All streams share one cadence, so every stream searched this batch:
    // the accumulated set must equal a from-scratch self-join over the
    // current windows.
    ASSERT_EQ(kStreams, report.value().updates.size());
    std::vector<Trajectory> windows;
    for (std::size_t s = 0; s < kStreams; ++s) {
      windows.push_back(fleet.value().WindowTrajectory(s));
    }
    auto scratch =
        DfdSelfJoin(windows, metric, options.JoinConfig());
    ASSERT_TRUE(scratch.ok()) << scratch.status();
    EXPECT_EQ(scratch.value(), sorted) << "after batch ending at point " << k;
  }
  EXPECT_GT(checks, 5);
  // At least the identical pair (0,1) must currently match.
  const std::vector<JoinPair> matches = fleet.value().CurrentJoinMatches();
  EXPECT_NE(matches.end(),
            std::find(matches.begin(), matches.end(), JoinPair{0, 1}));
}

// --- API edges ---------------------------------------------------------------

TEST(FleetEngine, ValidatesOptionsAndStreamIds) {
  const HaversineMetric metric;
  FleetOptions bad_window;
  bad_window.stream.window_length = 20;
  bad_window.stream.min_length_xi = 10;
  EXPECT_FALSE(MotifFleetEngine::Create(bad_window, metric).ok());

  FleetOptions bad_budget;
  bad_budget.stream = SmallStreamOptions();
  bad_budget.max_searches_per_drain = -1;
  EXPECT_FALSE(MotifFleetEngine::Create(bad_budget, metric).ok());

  FleetOptions bad_eps;
  bad_eps.stream = SmallStreamOptions();
  bad_eps.join_epsilon = 100.0;
  ASSERT_TRUE(MotifFleetEngine::Create(bad_eps, metric).ok());

  FleetOptions ok_options;
  ok_options.stream = SmallStreamOptions();
  auto fleet = MotifFleetEngine::Create(ok_options, metric);
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            fleet.value().Push(0, LatLon(0, 0)).status().code());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  EXPECT_TRUE(fleet.value().Push(0, LatLon(39.9, 116.3)).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            fleet.value().Push(7, LatLon(0, 0)).status().code());
}

TEST(FleetEngine, StatsAggregateAcrossStreams) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  ASSERT_EQ(1u, fleet.value().AddStream().value());
  const Trajectory t = GeoWalk(150, 5);
  for (Index k = 0; k < t.size(); ++k) {
    ASSERT_TRUE(fleet.value().Push(0, t[k]).ok());
    ASSERT_TRUE(fleet.value().Push(1, t[k]).ok());
  }
  const FleetStats stats = fleet.value().stats();
  EXPECT_EQ(2, stats.streams);
  EXPECT_EQ(300, stats.points_ingested);
  EXPECT_GT(stats.searches, 0);
  EXPECT_GT(stats.ground_distances_computed, 0);
  EXPECT_EQ(stats.searches, 2 * ((150 - 70) / 10 + 1));
  // Identical streams do identical work.
  EXPECT_EQ(fleet.value().stream_stats(0).dfd_cells_computed,
            fleet.value().stream_stats(1).dfd_cells_computed);
}

// --- heterogeneous fleets ----------------------------------------------------

TEST(FleetEngine, CrossPairOccupiesTwoConsecutiveStreamIds) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  const auto pair = fleet.value().AddCrossPair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  EXPECT_EQ(1u, pair.value().first);
  EXPECT_EQ(2u, pair.value().second);
  ASSERT_EQ(3u, fleet.value().AddStream().value());
  EXPECT_EQ(4u, fleet.value().stream_count());
  EXPECT_EQ(3u, fleet.value().member_count());
}

TEST(FleetEngine, PerMemberOptionsAreHonoured) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());

  StreamOptions relaxed = options.stream;
  relaxed.approximation_epsilon = 0.25;
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  ASSERT_EQ(1u, fleet.value().AddStream(relaxed).value());
  const auto pair = fleet.value().AddCrossPair(relaxed);
  ASSERT_TRUE(pair.ok()) << pair.status();

  EXPECT_EQ(0.0, fleet.value().stream_options(0).approximation_epsilon);
  EXPECT_EQ(0.25, fleet.value().stream_options(1).approximation_epsilon);
  EXPECT_EQ(0.25, fleet.value().stream_options(2).approximation_epsilon);
  EXPECT_EQ(0.25, fleet.value().stream_options(3).approximation_epsilon);

  // An invalid per-member configuration is rejected at Add time.
  StreamOptions bad = options.stream;
  bad.approximation_epsilon = -0.1;
  EXPECT_FALSE(fleet.value().AddStream(bad).ok());
  EXPECT_FALSE(fleet.value().AddCrossPair(bad).ok());
}

TEST(FleetEngine, HeterogeneousMembersMatchIndependentMonitors) {
  // One exact single stream, one ε-relaxed single stream, and one cross
  // pair behind the same scheduler — every member's reports must be
  // bit-identical to an independent monitor with that member's options.
  const HaversineMetric metric;
  const StreamOptions base = SmallStreamOptions();
  StreamOptions relaxed = base;
  relaxed.approximation_epsilon = 0.1;

  const Trajectory t0 = GeoWalk(200, 41);
  const Trajectory t1 = GeoWalk(200, 42);
  const Trajectory ta = GeoWalk(200, 43);
  const Trajectory tb = GeoWalk(200, 44);

  auto exact_monitor = StreamingMotifMonitor::Create(base, metric);
  auto relaxed_monitor = StreamingMotifMonitor::Create(relaxed, metric);
  auto cross_monitor = StreamingMotifMonitor::CreateCross(base, metric);
  ASSERT_TRUE(exact_monitor.ok());
  ASSERT_TRUE(relaxed_monitor.ok());
  ASSERT_TRUE(cross_monitor.ok());

  FleetOptions options;
  options.stream = base;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  ASSERT_EQ(1u, fleet.value().AddStream(relaxed).value());
  const auto pair = fleet.value().AddCrossPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_EQ(2u, pair.value().first);
  ASSERT_EQ(3u, pair.value().second);

  // Per-stream expected updates, keyed by primary stream id.
  std::vector<std::vector<StreamUpdate>> expected(3);
  std::vector<std::vector<StreamUpdate>> actual(3);
  const auto collect = [](StatusOr<std::optional<StreamUpdate>> u,
                          std::vector<StreamUpdate>* into) {
    ASSERT_TRUE(u.ok()) << u.status();
    if (u.value().has_value()) into->push_back(*u.value());
  };
  for (Index k = 0; k < 200; ++k) {
    collect(exact_monitor.value().Push(t0[k]), &expected[0]);
    collect(relaxed_monitor.value().Push(t1[k]), &expected[1]);
    collect(cross_monitor.value().Push(ta[k]), &expected[2]);
    collect(cross_monitor.value().PushSecond(tb[k]), &expected[2]);

    std::vector<FleetArrival> batch;
    batch.push_back(FleetArrival{0, t0[k], false, 0.0});
    batch.push_back(FleetArrival{1, t1[k], false, 0.0});
    batch.push_back(FleetArrival{2, ta[k], false, 0.0});
    batch.push_back(FleetArrival{3, tb[k], false, 0.0});
    auto report = fleet.value().Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      ASSERT_LT(fu.stream, 3u);  // cross reports carry the side-0 id
      actual[fu.stream].push_back(fu.update);
    }
  }

  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(expected[s].size(), actual[s].size()) << "stream " << s;
    for (std::size_t k = 0; k < expected[s].size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "stream " << s << " update " << k);
      ExpectUpdateEq(expected[s][k], actual[s][k]);
      EXPECT_EQ(expected[s][k].approximation_epsilon,
                actual[s][k].approximation_epsilon);
    }
  }
  // Side-aware window accessors expose both cross windows.
  EXPECT_EQ(cross_monitor.value().WindowTrajectory().points(),
            fleet.value().WindowTrajectory(2).points());
  EXPECT_EQ(cross_monitor.value().SecondWindowTrajectory().points(),
            fleet.value().WindowTrajectory(3).points());
}

TEST(FleetEngine, HeterogeneousSnapshotRestoreContinuesBitIdentically) {
  const HaversineMetric metric;
  const StreamOptions base = SmallStreamOptions();
  StreamOptions relaxed = base;
  relaxed.approximation_epsilon = 0.05;

  const Trajectory t0 = GeoWalk(220, 51);
  const Trajectory ta = GeoWalk(220, 52);
  const Trajectory tb = GeoWalk(220, 53);

  FleetOptions options;
  options.stream = base;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream(relaxed).value());
  ASSERT_TRUE(fleet.value().AddCrossPair().ok());

  const auto push_round = [&](MotifFleetEngine* engine, Index k,
                              std::vector<FleetStreamUpdate>* into) {
    std::vector<FleetArrival> batch;
    batch.push_back(FleetArrival{0, t0[k], false, 0.0});
    batch.push_back(FleetArrival{1, ta[k], false, 0.0});
    batch.push_back(FleetArrival{2, tb[k], false, 0.0});
    auto report = engine->Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      into->push_back(fu);
    }
  };

  std::vector<FleetStreamUpdate> reference;
  for (Index k = 0; k < 120; ++k) {
    push_round(&fleet.value(), k, &reference);
  }

  std::string snapshot;
  ASSERT_TRUE(fleet.value().Snapshot(&snapshot).ok());
  auto restored = MotifFleetEngine::Restore(options, metric, snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(3u, restored.value().stream_count());
  EXPECT_EQ(2u, restored.value().member_count());
  EXPECT_EQ(0.05,
            restored.value().stream_options(0).approximation_epsilon);

  // Both engines continue in lockstep; every future report must agree
  // bit for bit.
  std::vector<FleetStreamUpdate> original_tail;
  std::vector<FleetStreamUpdate> restored_tail;
  for (Index k = 120; k < 220; ++k) {
    push_round(&fleet.value(), k, &original_tail);
    push_round(&restored.value(), k, &restored_tail);
  }
  ASSERT_EQ(original_tail.size(), restored_tail.size());
  ASSERT_FALSE(original_tail.empty());
  for (std::size_t k = 0; k < original_tail.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "tail update " << k);
    EXPECT_EQ(original_tail[k].stream, restored_tail[k].stream);
    ExpectUpdateEq(original_tail[k].update, restored_tail[k].update);
  }
}

// --- Non-finite points --------------------------------------------------------

/// Poison arrivals injected before stream position k, in a feed whose
/// point k is stamped k when the feed is timed: NaN and infinite
/// coordinates on either axis and NaN and infinite timestamps, on an empty
/// window, while it fills, when it is exactly full and mid-slide.
struct Poison {
  Index before;
  Point point;
  double timestamp;  // `before` itself unless the stamp is the poison
};

/// The schedule for a timed or a bare feed. A bare feed carries no
/// stamps, so the stamp-only poisons are left out of it.
std::vector<Poison> PoisonSchedule(bool timed) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Point fine = LatLon(39.9, 116.3);
  const std::vector<Poison> all = {
      {0, LatLon(kNan, 116.3), 0.0},   {25, fine, kNan},
      {40, LatLon(39.9, kInf), 40.0},  {60, fine, kInf},
      {70, LatLon(-kInf, 116.3), 70.0}, {95, LatLon(kNan, kNan), 95.0},
      {120, fine, -kInf},              {151, LatLon(39.9, -kInf), 151.0}};
  std::vector<Poison> schedule;
  for (const Poison& poison : all) {
    if (timed || std::isfinite(poison.timestamp)) schedule.push_back(poison);
  }
  return schedule;
}

/// Whether the poison before point k is stamped. The first poison, on an
/// empty window, goes in the other mode from the feed: had the rejected
/// push set the window's timestamp mode, every later push would fail.
bool PoisonStamped(bool timed, Index k) { return timed != (k == 0); }

TEST(NonFinitePoints, MonitorRejectsWithoutChangingLaterReports) {
  const HaversineMetric metric;
  const StreamOptions options = SmallStreamOptions();
  const Trajectory t = GeoWalk(200, 7);
  for (const bool timed : {false, true}) {
    SCOPED_TRACE(timed ? "timed feed" : "bare feed");
    auto clean = StreamingMotifMonitor::Create(options, metric).value();
    auto poisoned = StreamingMotifMonitor::Create(options, metric).value();
    const std::vector<Poison> poison = PoisonSchedule(timed);
    std::size_t next = 0;
    int reports = 0;
    for (Index k = 0; k < t.size(); ++k) {
      if (next < poison.size() && poison[next].before == k) {
        const Poison& bad = poison[next];
        auto rejected = PoisonStamped(timed, k)
                            ? poisoned.Push(bad.point, bad.timestamp)
                            : poisoned.Push(bad.point);
        EXPECT_EQ(StatusCode::kInvalidArgument, rejected.status().code())
            << "poison before point " << k;
        ++next;
      }
      const double stamp = static_cast<double>(k);
      auto expected = timed ? clean.Push(t[k], stamp) : clean.Push(t[k]);
      auto actual = timed ? poisoned.Push(t[k], stamp) : poisoned.Push(t[k]);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      ASSERT_EQ(expected.value().has_value(), actual.value().has_value())
          << "point " << k;
      if (!expected.value().has_value()) continue;
      SCOPED_TRACE(::testing::Message() << "report at point " << k);
      ExpectReportBitIdentical(*expected.value(), *actual.value());
      ++reports;
    }
    EXPECT_EQ(poison.size(), next);
    EXPECT_GT(reports, 10);
    EXPECT_EQ(clean.WindowTrajectory().points(),
              poisoned.WindowTrajectory().points());
    EXPECT_EQ(clean.points_seen(), poisoned.points_seen());
    const StreamEngineStats& e = clean.engine_stats();
    const StreamEngineStats& a = poisoned.engine_stats();
    EXPECT_EQ(e.points_ingested, a.points_ingested);
    EXPECT_EQ(e.ground_distances_computed, a.ground_distances_computed);
    EXPECT_EQ(e.dfd_cells_computed, a.dfd_cells_computed);
    EXPECT_EQ(e.bound_rescans, a.bound_rescans);
  }
}

TEST(NonFinitePoints, FleetIngestRejectsWithoutChangingLaterReports) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();  // reorder_capacity 0
  constexpr std::size_t kStreams = 2;
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < kStreams; ++s) {
    data.push_back(GeoWalk(200, 300 + s));
  }
  for (const bool timed : {false, true}) {
    SCOPED_TRACE(timed ? "timed feed" : "bare feed");
    auto clean = MotifFleetEngine::Create(options, metric).value();
    auto poisoned = MotifFleetEngine::Create(options, metric).value();
    for (std::size_t s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(clean.AddStream().ok());
      ASSERT_TRUE(poisoned.AddStream().ok());
    }
    const std::vector<Poison> poison = PoisonSchedule(timed);
    std::size_t next = 0;
    int reports = 0;
    for (Index k = 0; k < 200; ++k) {
      if (next < poison.size() && poison[next].before == k) {
        const Poison& bad = poison[next];
        auto rejected = poisoned.Ingest({FleetArrival{
            next % kStreams, bad.point, PoisonStamped(timed, k),
            bad.timestamp}});
        EXPECT_EQ(StatusCode::kInvalidArgument, rejected.status().code())
            << "poison before point " << k;
        ++next;
      }
      std::vector<FleetArrival> batch;
      for (std::size_t s = 0; s < kStreams; ++s) {
        batch.push_back(
            FleetArrival{s, data[s][k], timed, static_cast<double>(k)});
      }
      auto expected = clean.Ingest(batch);
      auto actual = poisoned.Ingest(batch);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      const std::vector<FleetStreamUpdate>& eu = expected.value().updates;
      const std::vector<FleetStreamUpdate>& au = actual.value().updates;
      ASSERT_EQ(eu.size(), au.size()) << "batch " << k;
      for (std::size_t u = 0; u < eu.size(); ++u) {
        SCOPED_TRACE(::testing::Message()
                     << "batch " << k << " update " << u);
        EXPECT_EQ(eu[u].stream, au[u].stream);
        ExpectReportBitIdentical(eu[u].update, au[u].update);
        ++reports;
      }
    }
    EXPECT_EQ(poison.size(), next);
    EXPECT_GT(reports, 20);
    for (std::size_t s = 0; s < kStreams; ++s) {
      EXPECT_EQ(clean.WindowTrajectory(s).points(),
                poisoned.WindowTrajectory(s).points());
      EXPECT_EQ(clean.ingest_stats(s).released,
                poisoned.ingest_stats(s).released);
    }
    const FleetStats e = clean.stats();
    const FleetStats a = poisoned.stats();
    EXPECT_EQ(e.points_ingested, a.points_ingested);
    EXPECT_EQ(e.searches, a.searches);
    EXPECT_EQ(e.ground_distances_computed, a.ground_distances_computed);
    EXPECT_EQ(e.dfd_cells_computed, a.dfd_cells_computed);
  }
}

// --- Bad arrivals inside a batch ---------------------------------------------

const MotifFleetEngine& EngineOf(const MotifFleetEngine& engine) {
  return engine;
}
const MotifFleetEngine& EngineOf(const DurableFleet& fleet) {
  return fleet.engine();
}

/// Feeds `clean` and `poisoned` (fresh fleets, same options) the same
/// two-stream timed feed. Three times, `poisoned` alone is also offered a
/// bad batch: three valid arrivals for stream 0 followed by one bad
/// arrival — for unknown stream 99, then with a NaN stamp — and then a
/// timed arrival for stream 0 followed by a bare one. Each bad batch must
/// fail whole, moving no counter and no snapshot byte, and every later
/// report must match `clean`'s bits.
template <typename Fleet>
void ExpectBadBatchesLeaveNoTrace(Fleet& clean, Fleet& poisoned) {
  constexpr std::size_t kStreams = 2;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < kStreams; ++s) {
    data.push_back(GeoWalk(160, 500 + s));
    ASSERT_TRUE(clean.AddStream().ok());
    ASSERT_TRUE(poisoned.AddStream().ok());
  }
  int reports = 0;
  for (Index k = 0; k < 160; ++k) {
    const double stamp = static_cast<double>(k);
    if (k == 40 || k == 100 || k == 130) {
      std::vector<FleetArrival> bad;
      if (k == 130) {
        bad.push_back(FleetArrival{0, data[0][k], true, stamp});
        bad.push_back(FleetArrival{0, data[0][k + 1], false, 0.0});
      } else {
        for (Index r = 0; r < 3; ++r) {
          bad.push_back(
              FleetArrival{0, data[0][k + r], true, stamp + 0.25 * r});
        }
        bad.push_back(k == 40 ? FleetArrival{99, data[1][k], true, stamp}
                              : FleetArrival{1, data[1][k], true, kNan});
      }
      const std::int64_t ingested = poisoned.stats().points_ingested;
      std::vector<std::int64_t> released;
      for (std::size_t s = 0; s < kStreams; ++s) {
        released.push_back(EngineOf(poisoned).ingest_stats(s).released);
      }
      std::string before;
      ASSERT_TRUE(EngineOf(poisoned).Snapshot(&before).ok());
      EXPECT_EQ(StatusCode::kInvalidArgument,
                poisoned.Ingest(bad).status().code())
          << "bad batch before point " << k;
      EXPECT_EQ(ingested, poisoned.stats().points_ingested);
      for (std::size_t s = 0; s < kStreams; ++s) {
        EXPECT_EQ(released[s], EngineOf(poisoned).ingest_stats(s).released)
            << "stream " << s;
      }
      std::string after;
      ASSERT_TRUE(EngineOf(poisoned).Snapshot(&after).ok());
      EXPECT_TRUE(before == after) << "bad batch before point " << k;
    }
    std::vector<FleetArrival> batch;
    for (std::size_t s = 0; s < kStreams; ++s) {
      batch.push_back(FleetArrival{s, data[s][k], true, stamp});
    }
    auto expected = clean.Ingest(batch);
    auto actual = poisoned.Ingest(batch);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    const std::vector<FleetStreamUpdate>& eu = expected.value().updates;
    const std::vector<FleetStreamUpdate>& au = actual.value().updates;
    ASSERT_EQ(eu.size(), au.size()) << "batch " << k;
    for (std::size_t u = 0; u < eu.size(); ++u) {
      SCOPED_TRACE(::testing::Message() << "batch " << k << " update " << u);
      EXPECT_EQ(eu[u].stream, au[u].stream);
      ExpectReportBitIdentical(eu[u].update, au[u].update);
      ++reports;
    }
  }
  EXPECT_GT(reports, 10);
  EXPECT_EQ(clean.stats().points_ingested, poisoned.stats().points_ingested);
  EXPECT_EQ(clean.stats().dfd_cells_computed,
            poisoned.stats().dfd_cells_computed);
}

TEST(BadArrivals, FleetEngineRejectsTheWholeBatch) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  auto clean = MotifFleetEngine::Create(options, metric).value();
  auto poisoned = MotifFleetEngine::Create(options, metric).value();
  ExpectBadBatchesLeaveNoTrace(clean, poisoned);
}

TEST(BadArrivals, DurableFleetRejectsTheWholeBatch) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  testing_util::FaultFs clean_fs(1);
  testing_util::FaultFs poisoned_fs(2);
  DurableOptions durable;
  durable.state_dir = "state";
  std::int64_t clean_ingested = 0;
  {
    durable.fs = &clean_fs;
    auto clean = DurableFleet::Open(options, metric, durable).value();
    durable.fs = &poisoned_fs;
    auto poisoned = DurableFleet::Open(options, metric, durable).value();
    ExpectBadBatchesLeaveNoTrace(clean, poisoned);
    clean_ingested = clean.stats().points_ingested;
  }
  // Nothing of the bad batches reached the journal either: recovery
  // replays exactly the clean fleet's arrivals.
  auto recovered = DurableFleet::Open(options, metric, durable).value();
  EXPECT_EQ(clean_ingested, recovered.stats().points_ingested);
}

}  // namespace
}  // namespace frechet_motif
