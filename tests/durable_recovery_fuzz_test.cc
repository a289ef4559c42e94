// Randomized crash-recovery parity for the durable fleet. Every round
// builds a fault-free oracle (a plain MotifFleetEngine, or a never-
// killed DurableFleet) and a fault run on a FaultFs, injects crashes —
// op-level tears inside the commit protocol, hard kills between calls,
// bit flips on stable snapshots, unsynced journal tails — recovers, and
// requires the recovered engine to end **byte-identical** to the
// oracle's `Snapshot()`, join matches included.
//
// The resume rule after a crash is the one a real writer would use: the
// recovered per-stream arrival counts (`ingest_stats().released`, plus
// the buffered and late-dropped ones when the feed reorders) say how far
// the committed global prefix got, and the feed re-pushes everything
// after it. Committed records always form a prefix of the call sequence (the
// tolerant tail parse stops at the first torn frame), so counts are
// enough to realign an interleaved schedule.
//
// Failures print the fuzz seed; rerun with FMOTIF_FUZZ_SEED=<seed>.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "durable/durable_fleet.h"
#include "fault_fs.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "stream/motif_fleet_engine.h"
#include "test_util.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

struct FuzzConfig {
  FleetOptions options;
  std::size_t streams = 0;
  Index points = 0;  // per stream
};

FuzzConfig DrawConfig(Rng* rng, Index reorder_capacity) {
  FuzzConfig config;
  const Index xi = static_cast<Index>(rng->NextInt(6, 8));
  config.options.stream.min_length_xi = xi;
  config.options.stream.window_length =
      static_cast<Index>(rng->NextInt(2 * xi + 4, 2 * xi + 14));
  config.options.stream.slide_step = static_cast<Index>(
      rng->NextInt(1, std::max<Index>(1, config.options.stream.window_length / 3)));
  config.options.reorder_capacity = reorder_capacity;
  // Join on in about half the rounds, radius wide enough to flip pairs.
  config.options.join_epsilon = rng->NextInt(0, 1) == 0 ? 250.0 : -1.0;
  config.streams = static_cast<std::size_t>(rng->NextInt(1, 3));
  config.points = config.options.stream.window_length +
                  static_cast<Index>(rng->NextInt(30, 60));
  return config;
}

// A shuffled multiset of stream ids: each stream appears `points` times.
std::vector<std::size_t> DrawSchedule(Rng* rng, const FuzzConfig& config) {
  std::vector<std::size_t> schedule;
  for (std::size_t s = 0; s < config.streams; ++s) {
    for (Index k = 0; k < config.points; ++k) schedule.push_back(s);
  }
  for (std::size_t k = schedule.size(); k > 1; --k) {
    std::swap(schedule[k - 1],
              schedule[static_cast<std::size_t>(rng->NextInt(0, k - 1))]);
  }
  return schedule;
}

std::vector<Trajectory> DrawData(const FuzzConfig& config,
                                 std::uint64_t data_seed) {
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < config.streams; ++s) {
    data.push_back(testing_util::MakePlanarWalk(config.points, data_seed + s));
  }
  return data;
}

// The master parity check: the whole engine state — ring matrices,
// bounds, scheduler, join cache, counters — serialized and compared as
// bytes, plus the join's current matches for a semantic cross-check.
void ExpectSameEngineState(const MotifFleetEngine& expected,
                           const MotifFleetEngine& actual) {
  std::string want;
  std::string got;
  ASSERT_TRUE(expected.Snapshot(&want).ok());
  ASSERT_TRUE(actual.Snapshot(&got).ok());
  EXPECT_TRUE(want == got)
      << "engine snapshots diverge (" << want.size() << " vs " << got.size()
      << " bytes)";
  EXPECT_EQ(expected.CurrentJoinMatches(), actual.CurrentJoinMatches());
}

// Round family A: crashes injected at the filesystem-operation level,
// landing inside append/sync/rename windows of the commit protocol —
// including during Open's recovery checkpoint and during rotation.
TEST(DurableRecoveryFuzz, OpLevelCrashesRecoverBitExact) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260801);
  const int rounds = testing_util::FuzzRounds(4);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const FuzzConfig config = DrawConfig(&rng, /*reorder_capacity=*/0);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.options.stream.window_length
                 << " slide=" << config.options.stream.slide_step
                 << " streams=" << config.streams << " n=" << config.points
                 << " eps=" << config.options.join_epsilon);
    const std::vector<std::size_t> schedule = DrawSchedule(&rng, config);
    const std::vector<Trajectory> data =
        DrawData(config, seed + 1000 + 10 * static_cast<std::uint64_t>(round));

    auto oracle = MotifFleetEngine::Create(config.options, metric);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    std::vector<std::size_t> cursor(config.streams, 0);
    for (std::size_t s = 0; s < config.streams; ++s) {
      ASSERT_EQ(s, oracle.value().AddStream().value());
    }
    for (const std::size_t s : schedule) {
      ASSERT_TRUE(oracle.value().Push(s, data[s][static_cast<Index>(cursor[s]++)]).ok());
    }

    testing_util::FaultFs fs(seed + 77 * static_cast<std::uint64_t>(round));
    DurableOptions durable;
    durable.state_dir = "state";
    durable.fs = &fs;
    durable.checkpoint_interval_records =
        static_cast<std::uint64_t>(rng.NextInt(5, 20));
    int crashes = 0;
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 500) << "crash loop did not converge";
      auto fleet = DurableFleet::Open(config.options, metric, durable);
      if (!fleet.ok()) {
        ASSERT_TRUE(fs.crashed()) << fleet.status();
        fs.Restart();
        ++crashes;
        continue;
      }
      while (fleet.value().stream_count() < config.streams &&
             fleet.value().AddStream().ok()) {
      }
      if (fs.crashed()) {
        fs.Restart();
        ++crashes;
        continue;
      }
      ASSERT_EQ(config.streams, fleet.value().stream_count());

      // Resume where the committed prefix ended.
      for (std::size_t s = 0; s < config.streams; ++s) {
        cursor[s] = static_cast<std::size_t>(
            fleet.value().engine().ingest_stats(s).released);
      }
      std::vector<std::size_t> seen(config.streams, 0);
      bool armed = false;
      int pushed = 0;
      for (const std::size_t s : schedule) {
        const std::size_t index = seen[s]++;
        if (index < cursor[s]) continue;
        // Arm at most one crash per attempt, and only once this attempt
        // has committed something — guarantees forward progress.
        if (!armed && pushed > 0 && rng.NextInt(0, 7) == 0) {
          fs.CrashAfter(rng.NextInt(1, 25));
          armed = true;
        }
        auto push = fleet.value().Push(s, data[s][static_cast<Index>(index)]);
        if (!push.ok()) {
          ASSERT_TRUE(fs.crashed()) << push.status();
          break;
        }
        ++pushed;
        if (rng.NextInt(0, 19) == 0) {
          const Status rotated = fleet.value().Checkpoint();
          if (!rotated.ok()) {
            ASSERT_TRUE(fs.crashed()) << rotated;
            break;
          }
        }
      }
      if (fs.crashed()) {
        fs.Restart();
        ++crashes;
        continue;
      }
      ExpectSameEngineState(oracle.value(), fleet.value().engine());
      break;
    }
    // A fault-injection fuzz that never crashes tests nothing; with a
    // crash armed on ~1/8 of pushes this is deterministic given the seed.
    EXPECT_GT(crashes, 0);
  }
}

// Round family B: out-of-order timestamped feeds through the reorder
// buffers, hard kills between calls at segment boundaries. A coin flip
// per segment decides whether it ends in Flush, so kills land with
// points still buffered. The oracle is a plain MotifFleetEngine fed the
// same calls; the recovered engine must match it after every recovery
// and every segment, buffered points included.
TEST(DurableRecoveryFuzz, ReorderedSegmentsSurviveKillsBetweenCalls) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260802);
  const int rounds = testing_util::FuzzRounds(3);
  Rng rng(seed);
  const EuclideanMetric metric;
  int buffered_kills = 0;
  for (int round = 0; round < rounds; ++round) {
    const Index capacity = static_cast<Index>(rng.NextInt(2, 5));
    const FuzzConfig config = DrawConfig(&rng, capacity);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.options.stream.window_length
                 << " capacity=" << capacity << " streams=" << config.streams
                 << " n=" << config.points
                 << " eps=" << config.options.join_epsilon);
    const std::vector<std::size_t> schedule = DrawSchedule(&rng, config);
    const std::vector<Trajectory> data =
        DrawData(config, seed + 2000 + 10 * static_cast<std::uint64_t>(round));

    // Per-stream timestamps: mostly increasing with bounded disorder
    // from random adjacent swaps (occasionally beyond the buffer bound,
    // so deterministic late-drops happen too).
    std::vector<std::vector<double>> stamps(config.streams);
    for (std::size_t s = 0; s < config.streams; ++s) {
      for (Index k = 0; k < config.points; ++k) {
        stamps[s].push_back(static_cast<double>(k));
      }
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k + 1 < stamps[s].size(); ++k) {
          if (rng.NextInt(0, 2) == 0) std::swap(stamps[s][k], stamps[s][k + 1]);
        }
      }
    }

    auto oracle = MotifFleetEngine::Create(config.options, metric);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    for (std::size_t s = 0; s < config.streams; ++s) {
      ASSERT_EQ(s, oracle.value().AddStream().value());
    }

    testing_util::FaultFs fs(seed + 5 * static_cast<std::uint64_t>(round));
    DurableOptions durable;
    durable.state_dir = "state";
    durable.fs = &fs;
    durable.checkpoint_interval_records =
        static_cast<std::uint64_t>(rng.NextInt(8, 32));

    const int segments = static_cast<int>(rng.NextInt(3, 5));
    std::vector<std::size_t> cursor(config.streams, 0);
    std::size_t fed = 0;
    for (int segment = 0; segment < segments; ++segment) {
      if (segment > 0) fs.Restart();  // hard kill between calls
      auto fleet = DurableFleet::Open(config.options, metric, durable);
      ASSERT_TRUE(fleet.ok()) << fleet.status();
      if (segment == 0) {
        for (std::size_t s = 0; s < config.streams; ++s) {
          ASSERT_EQ(s, fleet.value().AddStream().value());
        }
      }
      ASSERT_EQ(config.streams, fleet.value().stream_count());
      ExpectSameEngineState(oracle.value(), fleet.value().engine());
      if (fleet.value().stats().reorder_buffered > 0) ++buffered_kills;

      // Resume where the recovered engine stands: every arrival it has
      // seen was released, is buffered, or was dropped late.
      const MotifFleetEngine& engine = fleet.value().engine();
      for (std::size_t s = 0; s < config.streams; ++s) {
        const IngestStats& ingest = engine.ingest_stats(s);
        cursor[s] = static_cast<std::size_t>(ingest.released +
                                             engine.stream_buffered(s) +
                                             ingest.late_dropped);
      }
      const std::size_t until = segment + 1 == segments
                                    ? schedule.size()
                                    : schedule.size() * (segment + 1) / segments;
      std::vector<std::size_t> seen(config.streams, 0);
      std::size_t position = 0;
      for (const std::size_t s : schedule) {
        if (position++ == until) break;
        const std::size_t index = seen[s]++;
        if (index < cursor[s]) continue;
        const Point& p = data[s][static_cast<Index>(index)];
        const double ts = stamps[s][index];
        auto live = fleet.value().Push(s, p, ts);
        auto want = oracle.value().Push(s, p, ts);
        ASSERT_TRUE(live.ok()) << live.status();
        ASSERT_TRUE(want.ok()) << want.status();
        ASSERT_EQ(want.value().updates.size(), live.value().updates.size());
        ++fed;
      }
      if (rng.NextInt(0, 1) == 0) {
        ASSERT_TRUE(fleet.value().Flush().ok());
        ASSERT_TRUE(oracle.value().Flush().ok());
      }
      ExpectSameEngineState(oracle.value(), fleet.value().engine());
    }
    EXPECT_EQ(schedule.size(), fed);
  }
  // Deterministic given the seed: some kill must land mid-buffer, or
  // the buffered-state recovery went untested.
  EXPECT_GT(buffered_kills, 0);
}

// Round family C: a bit flipped in the newest snapshot on stable
// storage. Recovery must fall back one generation and rebuild the same
// state from the older snapshot plus the full journal chain — never
// silently restart empty (that is a separate DataLoss test in
// durable_test.cc when no generation validates).
TEST(DurableRecoveryFuzz, CorruptSnapshotFallsBackAGeneration) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260803);
  const int rounds = testing_util::FuzzRounds(3);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const FuzzConfig config = DrawConfig(&rng, /*reorder_capacity=*/0);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.options.stream.window_length
                 << " streams=" << config.streams << " n=" << config.points
                 << " eps=" << config.options.join_epsilon);
    const std::vector<std::size_t> schedule = DrawSchedule(&rng, config);
    const std::vector<Trajectory> data =
        DrawData(config, seed + 4000 + 10 * static_cast<std::uint64_t>(round));

    auto oracle = MotifFleetEngine::Create(config.options, metric);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    for (std::size_t s = 0; s < config.streams; ++s) {
      ASSERT_EQ(s, oracle.value().AddStream().value());
    }

    testing_util::FaultFs fs(seed + 11 * static_cast<std::uint64_t>(round));
    DurableOptions durable;
    durable.state_dir = "cstate";
    durable.fs = &fs;
    durable.checkpoint_interval_records = 0;  // explicit checkpoints only

    std::uint64_t generation = 0;
    std::size_t tail_records = 0;
    {
      auto fleet = DurableFleet::Open(config.options, metric, durable);
      ASSERT_TRUE(fleet.ok()) << fleet.status();
      for (std::size_t s = 0; s < config.streams; ++s) {
        ASSERT_EQ(s, fleet.value().AddStream().value());
      }
      std::vector<std::size_t> cursor(config.streams, 0);
      const std::size_t half = schedule.size() / 2;
      for (std::size_t k = 0; k < schedule.size(); ++k) {
        if (k == half) {
          ASSERT_TRUE(fleet.value().Checkpoint().ok());
        }
        const std::size_t s = schedule[k];
        const Point& p = data[s][static_cast<Index>(cursor[s]++)];
        ASSERT_TRUE(fleet.value().Push(s, p).ok());
        ASSERT_TRUE(oracle.value().Push(s, p).ok());
        if (k >= half) ++tail_records;
      }
      generation = fleet.value().generation();
      ASSERT_GE(generation, 2u);
    }
    fs.Restart();  // everything was synced; this is a clean shutdown

    char name[64];
    std::snprintf(name, sizeof(name), "cstate/snap-%06llu",
                  static_cast<unsigned long long>(generation));
    ASSERT_TRUE(fs.FlipBit(name, rng.NextUint64()));

    auto reopened = DurableFleet::Open(config.options, metric, durable);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_TRUE(reopened.value().recovery().restored_snapshot);
    // Fallback replays the previous generation's journal too, not just
    // the records written after the (corrupt) newest snapshot.
    EXPECT_GT(reopened.value().recovery().replayed_records, tail_records);
    ExpectSameEngineState(oracle.value(), reopened.value().engine());
  }
}

// Round family D: `sync_each_record = false`. A hard kill may lose an
// unsynced journal tail — but only the tail: recovery lands on a clean
// prefix, and re-pushing from the recovered released counts reconverges
// on the oracle.
TEST(DurableRecoveryFuzz, UnsyncedJournalTailLosesOnlyTheTail) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260804);
  const int rounds = testing_util::FuzzRounds(3);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const FuzzConfig config = DrawConfig(&rng, /*reorder_capacity=*/0);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.options.stream.window_length
                 << " streams=" << config.streams << " n=" << config.points
                 << " eps=" << config.options.join_epsilon);
    const std::vector<std::size_t> schedule = DrawSchedule(&rng, config);
    const std::vector<Trajectory> data =
        DrawData(config, seed + 6000 + 10 * static_cast<std::uint64_t>(round));

    auto oracle = MotifFleetEngine::Create(config.options, metric);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    std::vector<std::size_t> cursor(config.streams, 0);
    for (std::size_t s = 0; s < config.streams; ++s) {
      ASSERT_EQ(s, oracle.value().AddStream().value());
    }
    for (const std::size_t s : schedule) {
      ASSERT_TRUE(oracle.value().Push(s, data[s][static_cast<Index>(cursor[s]++)]).ok());
    }

    testing_util::FaultFs fs(seed + 13 * static_cast<std::uint64_t>(round));
    DurableOptions durable;
    durable.state_dir = "dstate";
    durable.fs = &fs;
    durable.sync_each_record = false;
    durable.checkpoint_interval_records = 0;  // keep the tail unsynced

    const std::size_t prefix =
        static_cast<std::size_t>(rng.NextInt(1, schedule.size() - 1));
    {
      auto fleet = DurableFleet::Open(config.options, metric, durable);
      ASSERT_TRUE(fleet.ok()) << fleet.status();
      for (std::size_t s = 0; s < config.streams; ++s) {
        ASSERT_EQ(s, fleet.value().AddStream().value());
      }
      std::vector<std::size_t> seen(config.streams, 0);
      for (std::size_t k = 0; k < prefix; ++k) {
        const std::size_t s = schedule[k];
        ASSERT_TRUE(fleet.value().Push(s, data[s][static_cast<Index>(seen[s]++)]).ok());
      }
    }
    fs.Restart();  // hard kill: the unsynced tail collapses

    auto fleet = DurableFleet::Open(config.options, metric, durable);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    ASSERT_EQ(config.streams, fleet.value().stream_count());
    std::size_t recovered = 0;
    for (std::size_t s = 0; s < config.streams; ++s) {
      cursor[s] = static_cast<std::size_t>(
          fleet.value().engine().ingest_stats(s).released);
      recovered += cursor[s];
    }
    // Only the tail may be gone — never more than was pushed, and the
    // committed records form a prefix of the schedule.
    ASSERT_LE(recovered, prefix);
    std::vector<std::size_t> seen(config.streams, 0);
    for (const std::size_t s : schedule) {
      const std::size_t index = seen[s]++;
      if (index < cursor[s]) continue;
      ASSERT_TRUE(fleet.value().Push(s, data[s][static_cast<Index>(index)]).ok());
    }
    ASSERT_TRUE(fleet.value().Sync().ok());
    ExpectSameEngineState(oracle.value(), fleet.value().engine());
  }
}

}  // namespace
}  // namespace frechet_motif
