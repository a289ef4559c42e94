// Protocol-level unit tests of the serve tier: handshake, commands,
// ingest routing, tolerant parsing, admission control, bounded write
// queues, idle eviction, graceful drain, and the wire-schema golden.
// Everything runs the transport-independent MotifServer core over
// in-memory FaultConn sockets — no network, no clocks, no threads.
// The randomized fault schedules live in serve_fault_test.cc; the
// real-socket loop is covered by serve_integration_test.cc.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault_fs.h"
#include "fault_socket.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "serve/motif_server.h"
#include "serve_test_util.h"
#include "stream/motif_fleet_engine.h"

namespace frechet_motif {
namespace {

using testing_util::FaultConn;
using testing_util::Frames;
using testing_util::FramesOfType;
using testing_util::HasFrame;
using testing_util::OracleReportFrames;

/// Small, fast engine shape shared by most tests: slides every 2
/// points over an 8-point window, xi=2 so motifs exist quickly.
ServeOptions SmallOptions() {
  ServeOptions options;
  options.fleet.stream.window_length = 8;
  options.fleet.stream.slide_step = 2;
  options.fleet.stream.min_length_xi = 2;
  return options;
}

MotifServer MakeServer(const ServeOptions& options) {
  return std::move(MotifServer::Create(options, Euclidean())).value();
}

/// One ingest row in the fleet CSV dialect.
std::string Row(std::size_t stream, double lat, double lon) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%zu,%.6f,%.6f\n", stream, lat, lon);
  return buf;
}

FleetArrival Arrival(std::size_t stream, double lat, double lon) {
  FleetArrival a;
  a.stream = stream;
  a.point = LatLon(lat, lon);
  return a;
}

// ---------------------------------------------------------------------------
// Handshake and commands
// ---------------------------------------------------------------------------

TEST(Serve, HelloOnAccept) {
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  ASSERT_NE(0u, id);
  const std::vector<std::string> hello =
      FramesOfType(conn.TakeOutput(), "hello");
  ASSERT_EQ(1u, hello.size());
  EXPECT_NE(std::string::npos, hello[0].find("\"proto\":1"));
  EXPECT_NE(std::string::npos, hello[0].find("\"durable\":false"));
  EXPECT_EQ(1, server.stats().accepted);
}

TEST(Serve, PingPongAndCaseInsensitiveVerbs) {
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed("ping\nPiNg\r\n");
  server.OnReadable(id, 0);
  EXPECT_EQ(2u, FramesOfType(conn.TakeOutput(), "pong").size());
}

TEST(Serve, SubscribeModesAndUnsub) {
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();

  conn.Feed("SUB reports\n");
  server.OnReadable(id, 0);
  std::vector<std::string> subscribed =
      FramesOfType(conn.TakeOutput(), "subscribed");
  ASSERT_EQ(1u, subscribed.size());
  EXPECT_NE(std::string::npos, subscribed[0].find("\"mode\":\"reports\""));

  conn.Feed("SUB\n");  // defaults to all
  server.OnReadable(id, 0);
  subscribed = FramesOfType(conn.TakeOutput(), "subscribed");
  ASSERT_EQ(1u, subscribed.size());
  EXPECT_NE(std::string::npos, subscribed[0].find("\"mode\":\"all\""));

  conn.Feed("SUB nonsense\n");
  server.OnReadable(id, 0);
  EXPECT_TRUE(HasFrame(conn.TakeOutput(), "error"));

  conn.Feed("UNSUB\n");
  server.OnReadable(id, 0);
  EXPECT_TRUE(HasFrame(conn.TakeOutput(), "unsubscribed"));
}

TEST(Serve, QuitFlushesThenCloses) {
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed("QUIT\n");
  server.OnReadable(id, 0);
  EXPECT_TRUE(HasFrame(conn.TakeOutput(), "bye"));
  EXPECT_TRUE(conn.closed());
  EXPECT_FALSE(server.Connected(id));
}

// ---------------------------------------------------------------------------
// Ingest and parity
// ---------------------------------------------------------------------------

TEST(Serve, SubscriberSeesOracleReportBytes) {
  const ServeOptions options = SmallOptions();
  MotifServer server = MakeServer(options);

  FaultConn sub;
  const MotifServer::ConnId sub_id = server.OnAccept(sub.NewSocket(), 0);
  sub.Feed("SUB reports\n");
  server.OnReadable(sub_id, 0);
  sub.TakeOutput();

  FaultConn feed;
  const MotifServer::ConnId feed_id = server.OnAccept(feed.NewSocket(), 0);
  feed.TakeOutput();

  std::vector<FleetArrival> arrivals;
  for (int i = 0; i < 24; ++i) {
    const double lat = 40.0 + 0.002 * (i % 7);
    const double lon = -70.0 + 0.001 * i;
    arrivals.push_back(Arrival(0, lat, lon));
    feed.Feed(Row(0, lat, lon));
    server.OnReadable(feed_id, 0);
  }

  const std::vector<std::string> got =
      FramesOfType(sub.TakeOutput(), "report");
  const std::vector<std::string> want =
      OracleReportFrames(options.fleet, Euclidean(), arrivals);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(want, got);
  EXPECT_EQ(24, server.stats().points_ingested);
}

TEST(Serve, MultiStreamRowsAutoRegisterStreams) {
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed(Row(0, 40.0, -70.0));
  conn.Feed(Row(3, 41.0, -71.0));
  server.OnReadable(id, 0);
  EXPECT_EQ(4u, server.engine().stream_count());
  EXPECT_EQ(2, server.stats().points_ingested);
}

TEST(Serve, RejectedBatchRegistersNoStream) {
  // A batch naming a new stream id but rejected by the engine (here: a
  // bare row on a timed stream) must not register that id, on a plain
  // or a durable server, nor journal it.
  testing_util::FaultFs fs(22);
  ServeOptions durable_options = SmallOptions();
  durable_options.durable.state_dir = "state";
  durable_options.durable.fs = &fs;
  for (const ServeOptions& options : {SmallOptions(), durable_options}) {
    SCOPED_TRACE(options.durable.state_dir);
    std::string before;
    {
      MotifServer server = MakeServer(options);
      FaultConn conn;
      const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
      conn.Feed("0,39.9,116.3,1\n");
      server.OnReadable(id, 0);
      conn.TakeOutput();
      ASSERT_TRUE(server.engine().Snapshot(&before).ok());

      conn.Feed("0,39.9,116.31\n7,39.9,116.3,2\n");
      server.OnReadable(id, 0);
      const std::vector<std::string> errors =
          FramesOfType(conn.TakeOutput(), "error");
      ASSERT_EQ(1u, errors.size());
      EXPECT_NE(std::string::npos, errors[0].find("\"engine\""));
      EXPECT_EQ(1, server.fleet_stats().streams);
      std::string after;
      ASSERT_TRUE(server.engine().Snapshot(&after).ok());
      EXPECT_TRUE(before == after);
    }
    if (options.durable_enabled()) {
      fs.Restart();
      MotifServer recovered = MakeServer(options);
      EXPECT_EQ(1, recovered.fleet_stats().streams);
      std::string bytes;
      ASSERT_TRUE(recovered.engine().Snapshot(&bytes).ok());
      EXPECT_TRUE(before == bytes);
    }
  }
}

TEST(Serve, StatsSeesRowsFedEarlierOnTheSameRead) {
  // STATS is a batch boundary: ingest rows fed before it in the same
  // buffer must already be in the engine when the frame renders.
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed(Row(0, 40.0, -70.0) + Row(0, 40.1, -70.1) + "STATS\n");
  server.OnReadable(id, 0);
  const std::vector<std::string> stats =
      FramesOfType(conn.TakeOutput(), "stats");
  ASSERT_EQ(1u, stats.size());
  EXPECT_NE(std::string::npos, stats[0].find("\"points_ingested\":2"));
}

// ---------------------------------------------------------------------------
// Tolerant parsing
// ---------------------------------------------------------------------------

TEST(Serve, GarbageRowsAnswerErrorsWithoutDisturbingIngest) {
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed("0,40.0,-70.0\nnot,a,row\n\n0,40.1,-70.1\n0,nan,inf\n");
  server.OnReadable(id, 0);
  const std::string out = conn.TakeOutput();
  EXPECT_EQ(2u, FramesOfType(out, "error").size());
  EXPECT_EQ(2, server.stats().points_ingested);
  EXPECT_EQ(2, server.stats().parse_errors);
  EXPECT_TRUE(server.Connected(id));
}

TEST(Serve, PartialLinesWaitForMoreBytes) {
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed("0,40.0");
  server.OnReadable(id, 0);
  EXPECT_EQ(0, server.stats().points_ingested);
  conn.Feed(",-70.0\n");
  server.OnReadable(id, 0);
  EXPECT_EQ(1, server.stats().points_ingested);
  EXPECT_EQ(1, server.stats().lines_in);
}

TEST(Serve, OversizedLineIsSwallowedAndAnswered) {
  ServeOptions options = SmallOptions();
  options.limits.max_line_bytes = 32;
  MotifServer server = MakeServer(options);
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();

  // Oversized line delivered across two reads: the payload between the
  // newlines must be discarded, the valid rows around it ingested.
  conn.Feed("0,40.0,-70.0\n" + std::string(40, 'x'));
  server.OnReadable(id, 0);
  conn.Feed(std::string(40, 'y') + "\n0,40.1,-70.1\n");
  server.OnReadable(id, 0);

  const std::string out = conn.TakeOutput();
  EXPECT_TRUE(HasFrame(out, "error"));
  EXPECT_EQ(2, server.stats().points_ingested);
  EXPECT_EQ(1, server.stats().oversized_lines);
  EXPECT_TRUE(server.Connected(id));
}

TEST(Serve, StreamIdPastBoundIsRejectedPerRow) {
  ServeOptions options = SmallOptions();
  options.limits.max_streams = 2;
  MotifServer server = MakeServer(options);
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed(Row(1, 40.0, -70.0) + Row(2, 40.0, -70.0));
  server.OnReadable(id, 0);
  EXPECT_TRUE(HasFrame(conn.TakeOutput(), "error"));
  EXPECT_EQ(1, server.stats().points_ingested);
  EXPECT_EQ(2u, server.engine().stream_count());
}

TEST(Serve, EofDiscardsUnterminatedTrailingBytes) {
  // A torn final frame is not a row: half-close ends the session at
  // the last complete line.
  MotifServer server = MakeServer(SmallOptions());
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed("0,40.0,-70.0\n0,40.1");
  conn.FeedEof();
  server.OnReadable(id, 0);
  EXPECT_EQ(1, server.stats().points_ingested);
  EXPECT_EQ(1, server.stats().closed_by_peer);
  EXPECT_FALSE(server.Connected(id));
  EXPECT_TRUE(conn.closed());
}

// ---------------------------------------------------------------------------
// Admission control and shedding
// ---------------------------------------------------------------------------

TEST(Serve, AtCapacityConnectionsAreShedBusy) {
  ServeOptions options = SmallOptions();
  options.limits.max_connections = 1;
  MotifServer server = MakeServer(options);

  FaultConn first;
  const MotifServer::ConnId id = server.OnAccept(first.NewSocket(), 0);
  ASSERT_NE(0u, id);

  FaultConn second;
  EXPECT_EQ(0u, server.OnAccept(second.NewSocket(), 0));
  EXPECT_TRUE(HasFrame(second.TakeOutput(), "error"));
  EXPECT_TRUE(second.closed());
  EXPECT_EQ(1, server.stats().rejected_busy);

  // The admitted connection is untouched.
  first.TakeOutput();
  first.Feed("PING\n");
  server.OnReadable(id, 0);
  EXPECT_TRUE(HasFrame(first.TakeOutput(), "pong"));
}

TEST(Serve, PendingIngestOverflowEvicts) {
  ServeOptions options = SmallOptions();
  options.limits.max_ingest_pending_bytes = 64;
  options.limits.max_line_bytes = 4096;  // lines may exceed the pending cap
  MotifServer server = MakeServer(options);
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.TakeOutput();
  conn.Feed(std::string(200, 'z'));  // no newline: unparsable pending bytes
  server.OnReadable(id, 0);
  const std::string out = conn.TakeOutput();
  EXPECT_TRUE(HasFrame(out, "error"));
  EXPECT_TRUE(HasFrame(out, "bye"));
  EXPECT_FALSE(server.Connected(id));
  EXPECT_EQ(1, server.stats().evicted_pending_overflow);
}

TEST(Serve, IdleConnectionsAreEvictedOnTick) {
  ServeOptions options = SmallOptions();
  options.limits.idle_timeout_ms = 100;
  MotifServer server = MakeServer(options);
  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 1000);
  conn.TakeOutput();
  server.Tick(1050);
  EXPECT_TRUE(server.Connected(id));
  server.Tick(1101);
  EXPECT_TRUE(HasFrame(conn.output(), "bye"));
  EXPECT_FALSE(server.Connected(id));  // queue flushed synchronously
  EXPECT_EQ(1, server.stats().evicted_idle);
}

// ---------------------------------------------------------------------------
// Bounded write queues
// ---------------------------------------------------------------------------

TEST(Serve, SlowSubscriberDropsOldestAndLearnsViaDroppedFrame) {
  ServeOptions options = SmallOptions();
  options.limits.subscriber_queue_bytes = 256;
  options.limits.subscriber_queue_high_water_bytes = 1 << 20;
  MotifServer server = MakeServer(options);

  FaultConn sub;
  const MotifServer::ConnId sub_id = server.OnAccept(sub.NewSocket(), 0);
  sub.Feed("SUB reports\n");
  server.OnReadable(sub_id, 0);
  sub.TakeOutput();
  sub.StallWrites(1 << 20);  // everything queues

  FaultConn feed;
  const MotifServer::ConnId feed_id = server.OnAccept(feed.NewSocket(), 0);
  feed.TakeOutput();
  for (int i = 0; i < 64; ++i) {
    feed.Feed(Row(0, 40.0 + 0.001 * i, -70.0));
    server.OnReadable(feed_id, 0);
  }

  EXPECT_GT(server.ConnDroppedFrames(sub_id), 0);
  EXPECT_GT(server.stats().frames_dropped, 0);
  EXPECT_TRUE(server.Connected(sub_id));  // bounded, not evicted

  // Once writable again, the subscriber hears how much it lost before
  // the next delivered broadcast.
  sub.StallWrites(0);
  server.OnWritable(sub_id, 0);
  const std::string out = sub.TakeOutput();
  const std::vector<std::string> dropped = FramesOfType(out, "dropped");
  ASSERT_FALSE(dropped.empty());
  EXPECT_NE(std::string::npos, dropped[0].find("\"frames\":"));
}

TEST(Serve, QueuePastHighWaterEvictsSlowSubscriber) {
  ServeOptions options = SmallOptions();
  options.limits.subscriber_queue_bytes = 64;
  options.limits.subscriber_queue_high_water_bytes = 128;
  MotifServer server = MakeServer(options);

  FaultConn sub;
  const MotifServer::ConnId sub_id = server.OnAccept(sub.NewSocket(), 0);
  sub.Feed("SUB all\nPING\nPING\nPING\n");  // non-droppable replies fill
  sub.StallWrites(1 << 20);
  server.OnReadable(sub_id, 0);

  FaultConn feed;
  const MotifServer::ConnId feed_id = server.OnAccept(feed.NewSocket(), 0);
  for (int i = 0; i < 64; ++i) {
    feed.Feed(Row(0, 40.0 + 0.001 * i, -70.0));
    server.OnReadable(feed_id, 0);
  }
  // Eviction is flush-then-close (the bye may still be in flight); the
  // stalled socket never drains, so the grace deadline reaps it.
  EXPECT_EQ(1, server.stats().evicted_slow);
  server.Tick(options.limits.drain_grace_ms + 1);
  EXPECT_FALSE(server.Connected(sub_id));
  EXPECT_EQ(64, server.stats().points_ingested);  // ingest unaffected
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST(Serve, DrainFlushesSubscribersThenCompletes) {
  MotifServer server = MakeServer(SmallOptions());
  FaultConn a;
  FaultConn b;
  const MotifServer::ConnId id_a = server.OnAccept(a.NewSocket(), 0);
  server.OnAccept(b.NewSocket(), 0);
  a.TakeOutput();
  b.TakeOutput();
  a.StallWrites(1);  // one EAGAIN before the bye flushes

  server.BeginDrain(1000);
  EXPECT_TRUE(server.draining());
  EXPECT_TRUE(HasFrame(b.output(), "bye"));
  EXPECT_FALSE(server.DrainComplete());

  server.OnWritable(id_a, 1001);
  EXPECT_TRUE(HasFrame(a.output(), "bye"));
  EXPECT_TRUE(server.DrainComplete());

  // Draining servers shed fresh connections with a bye.
  FaultConn late;
  EXPECT_EQ(0u, server.OnAccept(late.NewSocket(), 1002));
  EXPECT_TRUE(HasFrame(late.TakeOutput(), "bye"));
}

TEST(Serve, DrainForceClosesAfterGrace) {
  ServeOptions options = SmallOptions();
  options.limits.drain_grace_ms = 50;
  MotifServer server = MakeServer(options);
  FaultConn stuck;
  server.OnAccept(stuck.NewSocket(), 0);
  stuck.TakeOutput();
  stuck.StallWrites(1 << 20);

  server.BeginDrain(1000);
  EXPECT_FALSE(server.DrainComplete());
  server.Tick(1049);
  EXPECT_FALSE(server.DrainComplete());
  server.Tick(1051);
  EXPECT_TRUE(server.DrainComplete());
}

/// A server with one `SUB reports` subscriber and one feeding
/// connection that sends one timestamped row per read.
struct FedServer {
  explicit FedServer(const ServeOptions& options)
      : server(MakeServer(options)) {
    const MotifServer::ConnId sub_id = server.OnAccept(sub.NewSocket(), 0);
    sub.Feed("SUB reports\n");
    server.OnReadable(sub_id, 0);
    sub.TakeOutput();
    feed_id = server.OnAccept(feed.NewSocket(), 0);
  }

  void Send(std::size_t stream, double lat, double lon, double ts) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%zu,%.6f,%.6f,%.1f\n", stream, lat, lon,
                  ts);
    feed.Feed(buf);
    server.OnReadable(feed_id, 0);
  }

  std::vector<std::string> Reports() {
    return FramesOfType(sub.TakeOutput(), "report");
  }

  MotifServer server;
  FaultConn sub;
  FaultConn feed;
  MotifServer::ConnId feed_id = 0;
};

TEST(Serve, DurableShutdownKeepsReorderBufferedRows) {
  ServeOptions plain_options = SmallOptions();
  plain_options.fleet.reorder_capacity = 3;
  testing_util::FaultFs fs(21);
  ServeOptions options = plain_options;
  options.durable.state_dir = "state";
  options.durable.fs = &fs;

  // Adjacent timestamps swapped, so the reorder buffer always holds
  // points; the restart falls mid-swap.
  constexpr int kRows = 40;
  constexpr int kSplit = 23;
  const auto lat = [](int i) { return 40.0 + 0.002 * (i % 7); };
  const auto lon = [](int i) { return -70.0 + 0.001 * i; };
  const auto stamp = [](int i) { return static_cast<double>(i ^ 1); };

  FedServer plain(plain_options);
  for (int i = 0; i < kRows; ++i) plain.Send(0, lat(i), lon(i), stamp(i));
  const std::vector<std::string> want = plain.Reports();
  ASSERT_FALSE(want.empty());

  std::vector<std::string> got;
  {
    FedServer durable(options);
    for (int i = 0; i < kSplit; ++i) {
      durable.Send(0, lat(i), lon(i), stamp(i));
    }
    EXPECT_GT(durable.server.fleet_stats().reorder_buffered, 0);
    got = durable.Reports();
    ASSERT_TRUE(durable.server.Shutdown().ok());
  }
  fs.Restart();
  FedServer restarted(options);
  EXPECT_EQ(plain_options.fleet.reorder_capacity,
            restarted.server.fleet_stats().reorder_buffered);
  for (int i = kSplit; i < kRows; ++i) {
    restarted.Send(0, lat(i), lon(i), stamp(i));
  }
  for (std::string& frame : restarted.Reports()) {
    got.push_back(std::move(frame));
  }
  EXPECT_EQ(want, got);

  std::string plain_bytes;
  std::string durable_bytes;
  ASSERT_TRUE(plain.server.engine().Snapshot(&plain_bytes).ok());
  ASSERT_TRUE(restarted.server.engine().Snapshot(&durable_bytes).ok());
  EXPECT_TRUE(plain_bytes == durable_bytes);
}

// ---------------------------------------------------------------------------
// Wire-schema golden
// ---------------------------------------------------------------------------

/// One sample frame per outbound type, in a deterministic order. This
/// is the serve tier's wire contract: a diff here is a protocol change
/// and must be deliberate (FMOTIF_UPDATE_GOLDEN=1 regenerates).
std::string SampleWireSchema() {
  ServeOptions options = SmallOptions();
  options.limits.max_line_bytes = 64;
  MotifServer server = MakeServer(options);

  FaultConn conn;
  const MotifServer::ConnId id = server.OnAccept(conn.NewSocket(), 0);
  conn.Feed("SUB all\nPING\n");
  server.OnReadable(id, 0);
  for (int i = 0; i < 10; ++i) {
    conn.Feed(Row(0, 40.0 + 0.002 * (i % 3), -70.0 + 0.001 * i));
    server.OnReadable(id, 0);
  }
  conn.Feed("bogus,row\n");
  conn.Feed(std::string(80, 'x') + "\n");
  conn.Feed("STATS\nUNSUB\nQUIT\n");
  server.OnReadable(id, 0);

  std::string schema;
  for (const std::string& frame : Frames(conn.TakeOutput())) {
    schema += frame + "\n";
  }
  return schema;
}

TEST(Serve, WireSchemaMatchesGolden) {
  const std::string golden_path =
      std::string(FMOTIF_GOLDEN_DIR) + "/serve_wire.golden";
  const std::string got = SampleWireSchema();
  if (std::getenv("FMOTIF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    GTEST_SKIP() << "golden updated";
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path
                         << " (run with FMOTIF_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got);
}

// ---------------------------------------------------------------------------
// Limit validation
// ---------------------------------------------------------------------------

TEST(Serve, CreateRejectsNonsenseLimits) {
  ServeOptions options = SmallOptions();
  options.limits.max_connections = 0;
  EXPECT_FALSE(MotifServer::Create(options, Euclidean()).ok());

  options = SmallOptions();
  options.limits.subscriber_queue_high_water_bytes = 16;
  options.limits.subscriber_queue_bytes = 64;
  EXPECT_FALSE(MotifServer::Create(options, Euclidean()).ok());

  options = SmallOptions();
  options.limits.max_line_bytes = 4;
  EXPECT_FALSE(MotifServer::Create(options, Euclidean()).ok());
}

}  // namespace
}  // namespace frechet_motif
