// serve_live: `fmotif serve` over loopback TCP, driven open loop by one
// generator thread (see params.h).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "durable/durable_fleet.h"
#include "geo/metric.h"
#include "params.h"
#include "serve/motif_server.h"
#include "serve/serve_loop.h"
#include "serve/serve_socket.h"
#include "similarity/frechet.h"
#include "stream/motif_fleet_engine.h"
#include "stream/window_state.h"
#include "workloads.h"
#include "wrappers.h"

namespace fmbench {
namespace {

namespace fm = frechet_motif;
using JoinSet = std::set<std::pair<long long, long long>>;

fm::FleetOptions MakeFleetOptions(double join_epsilon) {
  fm::FleetOptions options;
  options.stream.window_length = kServeWindow;
  options.stream.slide_step = kServeSlide;
  options.stream.min_length_xi = kServeXi;
  options.stream.threads = 1;  // one loop thread does all the work
  options.join_epsilon = join_epsilon;
  options.reorder_capacity = kServeReorder;
  return options;
}

/// The join threshold: a low quantile of the pairwise DFDs between the
/// streams' first windows, so some pairs match and others cross the
/// threshold as the windows slide.
double PickJoinEpsilon(const std::vector<FeedRow>& feed) {
  std::vector<std::vector<fm::Point>> first(kServeStreams);
  for (const FeedRow& r : feed) {
    auto& pts = first[r.stream];
    if (static_cast<int>(pts.size()) < kServeWindow) {
      pts.push_back(fm::LatLon(r.lat, r.lon));
    }
  }
  std::vector<double> dfd;
  for (int a = 0; a < kServeStreams; ++a) {
    for (int b = a + 1; b < kServeStreams; ++b) {
      dfd.push_back(std::move(fm::DiscreteFrechet(fm::Trajectory(first[a]),
                                                  fm::Trajectory(first[b]),
                                                  fm::Haversine()))
                        .value());
    }
  }
  std::sort(dfd.begin(), dfd.end());
  return dfd[static_cast<std::size_t>(kServeJoinQuantile *
                                      static_cast<double>(dfd.size() - 1))];
}

/// Integer after `"key":` in a one-line JSON frame (first occurrence).
long long FieldInt(const std::string& frame, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const std::size_t at = frame.find(k);
  if (at == std::string::npos) return -1;
  return std::strtoll(frame.c_str() + at + k.size(), nullptr, 10);
}

bool IsType(const std::string& frame, const char* type) {
  const std::string prefix = std::string("{\"type\":\"") + type + "\"";
  return frame.compare(0, prefix.size(), prefix) == 0;
}

/// The [[a,b],...] pairs after `"key":` in a join_delta frame.
std::vector<std::pair<long long, long long>> FieldPairs(const std::string& frame,
                                                        const char* key) {
  std::vector<std::pair<long long, long long>> out;
  const std::string k = std::string("\"") + key + "\":[";
  std::size_t at = frame.find(k);
  if (at == std::string::npos) return out;
  at += k.size();
  while (at < frame.size() && frame[at] == '[') {
    char* end = nullptr;
    const long long a = std::strtoll(frame.c_str() + at + 1, &end, 10);
    const long long b = std::strtoll(end + 1, &end, 10);
    out.emplace_back(a, b);
    at = static_cast<std::size_t>(end - frame.c_str()) + 1;  // past ']'
    if (at < frame.size() && frame[at] == ',') ++at;
  }
  return out;
}

void ApplyDelta(const std::vector<std::pair<long long, long long>>& entered,
                const std::vector<std::pair<long long, long long>>& left,
                JoinSet* set) {
  for (const auto& p : left) set->erase(p);
  for (const auto& p : entered) set->insert(p);
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// One report frame as the subscriber saw it.
struct Received {
  std::string frame;
  double at = 0.0;
};

/// Everything one server lifecycle measured.
struct PassResult {
  std::vector<Received> reports;
  JoinSet joined;
  std::int64_t dropped_frames_phase1 = 0;
  std::size_t rows_sent = 0;
  /// End row (exclusive) of every send: the prefix, each phase-1 round,
  /// each phase-2 buffer.
  std::vector<std::size_t> chunk_ends;
  /// Traced pass only: the server's own ingest batches, as end rows.
  std::vector<std::size_t> server_batch_ends;
  std::size_t phase1_first_row = 0;
  std::size_t phase1_end_row = 0;
  std::vector<double> row_due;  // indexed by row - phase1_first_row
  std::vector<double> lateness;
  std::int64_t backlog_peak = 0;
  std::size_t phase2_rows = 0;
  double phase2_s = 0.0;
  long long stats_points_ingested = -1;
  double loop_cpu_s = 0.0;
  fm::ServeStats serve_stats;
  fm::FleetStats fleet_stats;
  fm::IncrementalJoinStats join_stats;
  std::int64_t bound_rescans = 0;
  double recovery_open_s = 0.0;
  std::uint64_t replayed_records = 0;
  DurableCounts durable;
  SocketCounts sockets;
  std::string error;
};

/// One server lifecycle: set-up (server, loop thread, connections,
/// first windows), phase 1, phase 2, then shutdown and a timed recovery.
/// The calling thread is the generator.
class ServerRun {
 public:
  ServerRun(const std::vector<FeedRow>& feed, std::size_t prefix, double eps,
          std::string state_dir, Tracer* tracer)
      : feed_(feed),
        prefix_(prefix),
        eps_(eps),
        state_dir_(std::move(state_dir)),
        tracer_(tracer) {}
  ~ServerRun() {
    Stop();
    std::error_code ec;
    std::filesystem::remove_all(state_dir_, ec);
  }
  ServerRun(const ServerRun&) = delete;
  ServerRun& operator=(const ServerRun&) = delete;

  /// Starts the server and feeds the prefix until every stream has
  /// reported once; a failure is left in result().error.
  void Start();
  /// Open loop at `rate` rows/s, in rounds of one row per stream.
  void Phase1(double seconds, double rate);
  /// As fast as the socket accepts, at most kServeMaxInFlightRows rows
  /// not yet covered by a report.
  void Phase2(double seconds);
  /// Stops the loop, collects counters, checkpoints and times recovery.
  void Finish();

  PassResult& result() { return r_; }
  double eps() const { return eps_; }

 private:
  void Stop();
  void ReadAvailable();
  void Wait(double until, bool want_write);
  void SendOn(int fd, const std::string& bytes);
  void HandleFrame(const std::string& frame, bool subscriber, double at);
  /// Appends row `row`'s line to `buf` and accounts it as sent.
  void QueueRow(std::size_t row, std::string* buf);
  void SendCommand(const char* line);
  bool PumpUntil(const std::function<bool()>& done, double timeout);
  void PumpQuiet(double quiet);
  std::int64_t Backlog() const { return total_sent_ - total_covered_; }

  const std::vector<FeedRow>& feed_;
  std::size_t prefix_;
  double eps_;
  std::string state_dir_;
  Tracer* tracer_;

  std::optional<TimingFs> timing_fs_;
  std::optional<fm::PosixListener> listener_;
  std::optional<TimingListener> timing_listener_;
  std::optional<fm::MotifServer> server_;
  std::atomic<bool> stop_{false};
  fm::Status loop_status_;
  double loop_cpu_s_ = 0.0;
  std::thread loop_;  // declared after everything the loop uses
  int feeder_ = -1;
  int subscriber_ = -1;
  std::string feeder_in_;
  std::string subscriber_in_;

  std::size_t next_row_ = 0;
  bool subscribed_ = false;
  int pongs_ = 0;
  int stats_replies_ = 0;
  std::string last_stats_;
  double last_stats_at_ = 0.0;
  double last_input_at_ = 0.0;
  bool in_phase1_ = false;
  std::vector<long long> covered_ = std::vector<long long>(kServeStreams, 0);
  std::int64_t total_sent_ = 0;
  std::int64_t feeder_bytes_ = 0;
  /// Feeder stream offset just past each sent row.
  std::vector<std::int64_t> row_end_;
  std::int64_t total_covered_ = 0;
  int streams_reported_ = 0;
  PassResult r_;
};

void ServerRun::Start() {
  std::error_code ec;
  std::filesystem::remove_all(state_dir_, ec);
  fm::ServeOptions options;
  options.fleet = MakeFleetOptions(eps_);
  options.durable.state_dir = state_dir_;
  options.durable.sync_each_record = true;
  if (tracer_ != nullptr) {
    timing_fs_.emplace(*tracer_);
    options.durable.fs = &*timing_fs_;
  }
  fm::StatusOr<fm::MotifServer> server =
      fm::MotifServer::Create(options, fm::Haversine());
  if (!server.ok()) {
    r_.error = "server: " + server.status().message();
    return;
  }
  server_.emplace(std::move(server).value());
  if (timing_fs_) timing_fs_->ResetCounts();  // drop the opening checkpoint
  fm::StatusOr<fm::PosixListener> listener =
      fm::PosixListener::Create("127.0.0.1", 0);
  if (!listener.ok()) {
    r_.error = "listener: " + listener.status().message();
    return;
  }
  listener_.emplace(std::move(listener).value());
  fm::ServeListener* transport = &*listener_;
  if (tracer_ != nullptr) {
    timing_listener_.emplace(*listener_, *tracer_,
                             options.limits.max_read_bytes_per_call);
    transport = &*timing_listener_;
  }
  loop_ = std::thread([this, transport] {
    const double cpu0 = ThreadCpuSeconds();
    std::int64_t span = -1;
    if (tracer_ != nullptr) {
      span = tracer_->Begin("serve.loop", -1, 0);
      timing_fs_->set_parent(span);
      timing_listener_->set_parent(span);
    }
    fm::ServeLoopOptions loop_options;
    loop_options.stop_atomic = &stop_;
    loop_options.poll_interval_ms = 10;
    loop_options.max_runtime_ms = 170000;
    loop_status_ = fm::RunServeLoop(*server_, *transport, loop_options);
    if (tracer_ != nullptr) tracer_->End(span);
    loop_cpu_s_ = ThreadCpuSeconds() - cpu0;
  });

  feeder_ = ConnectLoopback(listener_->port());
  subscriber_ = ConnectLoopback(listener_->port());
  if (feeder_ < 0 || subscriber_ < 0) {
    r_.error = "cannot connect to the server";
    return;
  }
  SendOn(subscriber_, "SUB all\n");
  if (!PumpUntil([&] { return subscribed_; }, 10.0)) {
    r_.error = "no subscribed frame";
    return;
  }
  std::string prefix;
  for (; next_row_ < prefix_; ++next_row_) QueueRow(next_row_, &prefix);
  SendOn(feeder_, prefix);
  r_.chunk_ends.push_back(next_row_);
  if (!PumpUntil([&] { return streams_reported_ == kServeStreams; }, 60.0)) {
    r_.error = "the first windows never reported";
  }
}

void ServerRun::QueueRow(std::size_t row, std::string* buf) {
  *buf += feed_[row].line;
  feeder_bytes_ += static_cast<std::int64_t>(feed_[row].line.size());
  row_end_.push_back(feeder_bytes_);
  ++total_sent_;
  r_.rows_sent = static_cast<std::size_t>(total_sent_);
  if (in_phase1_) r_.backlog_peak = std::max(r_.backlog_peak, Backlog());
}

void ServerRun::SendCommand(const char* line) {
  feeder_bytes_ += static_cast<std::int64_t>(std::strlen(line));
  SendOn(feeder_, line);
}

void ServerRun::HandleFrame(const std::string& frame, bool subscriber,
                          double at) {
  last_input_at_ = at;
  if (!subscriber) {
    if (IsType(frame, "pong")) {
      ++pongs_;
    } else if (IsType(frame, "stats")) {
      ++stats_replies_;
      last_stats_ = frame;
      last_stats_at_ = at;
    } else if (IsType(frame, "error")) {
      r_.error = "server error frame: " + frame;
    }
    return;
  }
  if (IsType(frame, "report")) {
    r_.reports.push_back({frame, at});
    const long long stream = FieldInt(frame, "stream");
    if (stream >= 0 && stream < kServeStreams) {
      const long long covered = FieldInt(frame, "window_start") + kServeWindow;
      if (covered_[static_cast<std::size_t>(stream)] == 0) ++streams_reported_;
      total_covered_ += covered - covered_[static_cast<std::size_t>(stream)];
      covered_[static_cast<std::size_t>(stream)] = covered;
    }
  } else if (IsType(frame, "join_delta")) {
    ApplyDelta(FieldPairs(frame, "entered"), FieldPairs(frame, "left"),
               &r_.joined);
  } else if (IsType(frame, "subscribed")) {
    subscribed_ = true;
  } else if (IsType(frame, "dropped")) {
    if (in_phase1_) ++r_.dropped_frames_phase1;
  } else if (IsType(frame, "error")) {
    r_.error = "server error frame: " + frame;
  }
}

void ServerRun::ReadAvailable() {
  char buf[65536];
  for (int which = 0; which < 2; ++which) {
    const int fd = which == 0 ? subscriber_ : feeder_;
    std::string& in = which == 0 ? subscriber_in_ : feeder_in_;
    while (fd >= 0) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      const double at = NowSeconds();
      in.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = in.find('\n'); nl != std::string::npos;
           nl = in.find('\n', start)) {
        HandleFrame(in.substr(start, nl - start), which == 0, at);
        start = nl + 1;
      }
      in.erase(0, start);
    }
  }
}

void ServerRun::Wait(double until, bool want_write) {
  pollfd fds[2] = {{subscriber_, POLLIN, 0},
                   {feeder_, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)), 0}};
  const double wait = std::max(0.0, until - NowSeconds());
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait);
  ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
  ::ppoll(fds, 2, &ts, nullptr);
  ReadAvailable();
}

void ServerRun::SendOn(int fd, const std::string& bytes) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + at, bytes.size() - at,
                             MSG_NOSIGNAL);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Wait(NowSeconds() + 0.01, true);
    } else {
      r_.error = "send failed";
      return;
    }
  }
}

bool ServerRun::PumpUntil(const std::function<bool()>& done, double timeout) {
  const double deadline = NowSeconds() + timeout;
  while (!done()) {
    if (NowSeconds() > deadline || !r_.error.empty()) return false;
    Wait(std::min(deadline, NowSeconds() + 0.01), false);
  }
  return true;
}

void ServerRun::PumpQuiet(double quiet) {
  last_input_at_ = NowSeconds();
  const double deadline = NowSeconds() + 30.0;
  while (NowSeconds() - last_input_at_ < quiet && NowSeconds() < deadline) {
    Wait(last_input_at_ + quiet, false);
  }
}

void ServerRun::Phase1(double seconds, double rate) {
  in_phase1_ = true;
  r_.phase1_first_row = next_row_;
  const std::size_t reports_before = r_.reports.size();
  const double start = NowSeconds();
  OpenLoopSchedule schedule(start + 0.002,
                            static_cast<double>(kServeStreams) / rate);
  std::int64_t round = 0;
  while (r_.error.empty() && next_row_ + kServeStreams <= feed_.size()) {
    const double now = NowSeconds();
    if (now - start >= seconds &&
        r_.reports.size() - reports_before >=
            static_cast<std::size_t>(kServeMinSlideRows)) {
      break;
    }
    if (schedule.DueCount(now) > round) {
      std::string bytes;
      for (int s = 0; s < kServeStreams; ++s, ++next_row_) {
        QueueRow(next_row_, &bytes);
        r_.row_due.push_back(schedule.Due(round));
      }
      SendOn(feeder_, bytes);
      schedule.MarkSent(round, NowSeconds());
      r_.chunk_ends.push_back(next_row_);
      ++round;
      continue;
    }
    Wait(schedule.Due(round), false);
  }
  r_.phase1_end_row = next_row_;
  r_.lateness = schedule.lateness();
  // Barrier: once the pong is back every phase-1 row has been ingested;
  // a short quiet period lets the last report frames arrive.
  const int pongs = pongs_;
  SendCommand("PING\n");
  PumpUntil([&] { return pongs_ > pongs; }, 30.0);
  PumpQuiet(0.03);
  in_phase1_ = false;
}

void ServerRun::Phase2(double seconds) {
  const double start = NowSeconds();
  const std::size_t first = next_row_;
  std::string out;
  std::size_t out_at = 0;
  while (r_.error.empty()) {
    ReadAvailable();
    if (out_at == out.size()) {
      if (NowSeconds() - start >= seconds || next_row_ >= feed_.size()) break;
      const std::int64_t room = kServeMaxInFlightRows - Backlog();
      if (room <= 0) {
        Wait(NowSeconds() + 0.002, false);
        continue;
      }
      out.clear();
      out_at = 0;
      for (std::int64_t k = 0; k < std::min<std::int64_t>(room, 256) &&
                               next_row_ < feed_.size();
           ++k, ++next_row_) {
        QueueRow(next_row_, &out);
      }
      r_.chunk_ends.push_back(next_row_);
    }
    const ssize_t n = ::send(feeder_, out.data() + out_at, out.size() - out_at,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_at += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Wait(NowSeconds() + 0.002, true);
    } else {
      r_.error = "send failed";
    }
  }
  r_.phase2_rows = next_row_ - first;
  // STATS is answered after every earlier line on the connection was
  // ingested, so its arrival ends the phase.
  const int replies = stats_replies_;
  SendCommand("STATS\n");
  if (!PumpUntil([&] { return stats_replies_ > replies; }, 60.0)) {
    r_.error = "no STATS reply";
  }
  r_.phase2_s = last_stats_at_ - start;
  r_.stats_points_ingested = FieldInt(last_stats_, "points_ingested");
  PumpQuiet(0.05);
}

void ServerRun::Stop() {
  if (feeder_ >= 0) ::close(feeder_);
  if (subscriber_ >= 0) ::close(subscriber_);
  feeder_ = subscriber_ = -1;
  stop_ = true;
  if (loop_.joinable()) loop_.join();
}

void ServerRun::Finish() {
  Stop();
  if (!server_) return;  // Start failed; r_.error says why
  if (!loop_status_.ok()) r_.error = "serve loop: " + loop_status_.message();
  r_.loop_cpu_s = loop_cpu_s_;
  r_.serve_stats = server_->stats();
  r_.fleet_stats = server_->fleet_stats();
  const fm::MotifFleetEngine& engine = server_->engine();
  if (engine.join_stats() != nullptr) r_.join_stats = *engine.join_stats();
  for (std::size_t s = 0; s < engine.stream_count(); ++s) {
    r_.bound_rescans += engine.stream_stats(s).bound_rescans;
  }
  if (timing_fs_) {
    timing_fs_->CloseCheckpoint();
    r_.durable = timing_fs_->counts();
  }
  if (timing_listener_) {
    r_.sockets = timing_listener_->counts();
    // Connection 0 is the feeder (it connects first).
    for (const std::int64_t end : timing_listener_->bursts(0)) {
      const auto rows = static_cast<std::size_t>(
          std::upper_bound(row_end_.begin(), row_end_.end(), end) -
          row_end_.begin());
      if (rows > 0 && (r_.server_batch_ends.empty() ||
                       rows > r_.server_batch_ends.back())) {
        r_.server_batch_ends.push_back(rows);
      }
    }
  }
  const fm::Status shutdown = server_->Shutdown();
  if (!shutdown.ok()) r_.error = "shutdown: " + shutdown.message();
  server_.reset();

  fm::DurableOptions durable;
  durable.state_dir = state_dir_;
  const double t0 = NowSeconds();
  fm::StatusOr<fm::DurableFleet> reopened =
      fm::DurableFleet::Open(MakeFleetOptions(eps_), fm::Haversine(), durable);
  r_.recovery_open_s = NowSeconds() - t0;
  if (reopened.ok()) {
    r_.replayed_records = reopened.value().recovery().replayed_records;
  } else {
    r_.error = "recovery: " + reopened.status().message();
  }
}

/// The in-process replay of every row the pass sent, one Ingest per send
/// (the server's reads tear and merge sends, but a report's content does
/// not depend on batching): the oracle frames, the send that triggered
/// each (its last row; the rows of a phase-1 round share a due time),
/// and the per-slide counters.
struct Replay {
  std::vector<std::string> frames;
  std::vector<std::size_t> trigger_row;
  JoinSet joined;
  JoinSet current;
  double ingest_s = 0.0;
  std::int64_t slides = 0;
  std::int64_t seeded = 0;
  std::int64_t carried = 0;
  std::int64_t dfd_cells = 0;
  double bounds_s = 0.0;
  double search_s = 0.0;
};

Replay ReplayRows(const std::vector<FeedRow>& feed,
                  const std::vector<std::size_t>& chunk_ends, double eps,
                  Tracer* tracer) {
  Replay out;
  fm::MotifFleetEngine engine =
      std::move(fm::MotifFleetEngine::Create(MakeFleetOptions(eps), fm::Haversine()))
          .value();
  std::size_t begin = 0;
  for (const std::size_t end : chunk_ends) {
    std::vector<fm::FleetArrival> batch;
    for (std::size_t k = begin; k < end; ++k) {
      const FeedRow& row = feed[k];
      while (row.stream >= engine.stream_count()) (void)engine.AddStream();
      fm::FleetArrival a;
      a.stream = row.stream;
      a.point = fm::LatLon(row.lat, row.lon);
      a.has_timestamp = true;
      a.timestamp = row.ts;
      batch.push_back(a);
    }
    begin = end;
    const std::size_t k = end - 1;
    const double t0 = NowSeconds();
    fm::StatusOr<fm::FleetReport> report = engine.Ingest(batch);
    const double t1 = NowSeconds();
    out.ingest_s += t1 - t0;
    if (tracer != nullptr) {
      tracer->Record("stream.ingest", -1, static_cast<std::int64_t>(k), t0, t1);
    }
    if (!report.ok()) continue;
    for (const fm::FleetStreamUpdate& u : report.value().updates) {
      std::string frame = fm::SerializeReportFrame(u);
      frame.pop_back();
      out.frames.push_back(std::move(frame));
      out.trigger_row.push_back(k);
      ++out.slides;
      out.seeded += u.update.seeded ? 1 : 0;
      out.carried += u.update.carried ? 1 : 0;
      out.dfd_cells += u.update.stats.dfd_cells_computed;
      out.bounds_s += u.update.stats.precompute_seconds;
      out.search_s += u.update.stats.search_seconds;
    }
    std::vector<std::pair<long long, long long>> entered, left;
    for (const fm::JoinPair& p : report.value().join_delta.entered) {
      entered.emplace_back(static_cast<long long>(p.li), static_cast<long long>(p.ri));
    }
    for (const fm::JoinPair& p : report.value().join_delta.left) {
      left.emplace_back(static_cast<long long>(p.li), static_cast<long long>(p.ri));
    }
    ApplyDelta(entered, left, &out.joined);
  }
  for (const fm::JoinPair& p : engine.CurrentJoinMatches()) {
    out.current.emplace(static_cast<long long>(p.li), static_cast<long long>(p.ri));
  }
  return out;
}

/// Checks a pass against its replay; returns the phase-1 row->frame
/// latencies in ms.
std::vector<double> CheckPass(const PassResult& pass, const Replay& replay,
                              RunResult* out) {
  if (!pass.error.empty()) out->Fail(pass.error);
  out->attempted += static_cast<std::int64_t>(replay.frames.size());
  // The server drains the windows a read made due in its own order, so
  // frames are matched by (stream, window_start): each must equal the
  // replay's frame byte for byte, and every replay frame must arrive.
  std::map<std::pair<long long, long long>, std::size_t> index;
  for (std::size_t k = 0; k < replay.frames.size(); ++k) {
    index[{FieldInt(replay.frames[k], "stream"),
           FieldInt(replay.frames[k], "window_start")}] = k;
  }
  std::vector<bool> seen(replay.frames.size(), false);
  std::vector<double> latency_ms;
  std::int64_t bad = 0;
  std::string first_bad;
  auto flag = [&](const std::string& why) {
    if (bad++ == 0) first_bad = why;
  };
  for (const Received& got : pass.reports) {
    auto it = index.find({FieldInt(got.frame, "stream"),
                          FieldInt(got.frame, "window_start")});
    if (it == index.end() || seen[it->second]) {
      flag("unexpected report frame: " + got.frame);
      continue;
    }
    const std::size_t k = it->second;
    seen[k] = true;
    if (got.frame != replay.frames[k]) {
      flag("report frame differs from the replay: " + got.frame + " vs " +
           replay.frames[k]);
      continue;
    }
    const std::size_t row = replay.trigger_row[k];
    if (row >= pass.phase1_first_row && row < pass.phase1_end_row) {
      latency_ms.push_back(
          1e3 * (got.at - pass.row_due[row - pass.phase1_first_row]));
    }
  }
  for (std::size_t k = 0; k < seen.size(); ++k) {
    if (!seen[k]) flag("report frame never arrived: " + replay.frames[k]);
  }
  if (bad > 0) {
    out->Fail(first_bad + " (" + std::to_string(bad) + " frames)");
    out->failed += bad - 1;
  }
  if (pass.joined != replay.joined || pass.joined != replay.current) {
    out->Fail("accumulated join deltas differ from the replay");
  }
  if (pass.stats_points_ingested != static_cast<long long>(pass.rows_sent)) {
    out->Fail("STATS points_ingested " + std::to_string(pass.stats_points_ingested) +
              " != rows sent " + std::to_string(pass.rows_sent));
  }
  if (pass.dropped_frames_phase1 != 0) {
    out->Fail("frames dropped in phase 1");
  }
  return latency_ms;
}

/// Generates the inputs and starts a server run; returns the set-up time.
double SetUp(const RunConfig& config, int rep, Tracer* tracer,
             std::vector<FeedRow>* feed, std::unique_ptr<ServerRun>* run) {
  const double t0 = NowSeconds();
  run->reset();
  std::size_t prefix = 0;
  *feed = MakeServeFeed(config.seed, &prefix);
  const double eps = PickJoinEpsilon(*feed);
  *run = std::make_unique<ServerRun>(
      *feed, prefix, eps,
      config.work_dir + "/serve-state-" + std::to_string(::getpid()) + "-" +
          std::to_string(rep),
      tracer);
  (*run)->Start();
  return NowSeconds() - t0;
}

struct PassSummary {
  std::vector<FeedRow> feed;
  PassResult pass;
  Replay replay;
  std::vector<double> latency_ms;
  double eps = 0.0;
};

PassSummary RunPass(const RunConfig& config, double seconds, int setup_reps,
                    Tracer* tracer, double* setup_s, RunResult* out) {
  PassSummary summary;
  std::vector<FeedRow>& feed = summary.feed;
  std::unique_ptr<ServerRun> run;
  int rep = 0;
  *setup_s = MedianSetupSeconds(setup_reps, [&] {
    return SetUp(config, rep++, tracer, &feed, &run);
  });
  summary.eps = run->eps();
  if (run->result().error.empty()) {
    run->Phase1(seconds * kServePhase1Share, kServeRowsPerSecond);
    run->Phase2(seconds * (1.0 - kServePhase1Share));
  }
  run->Finish();
  summary.pass = std::move(run->result());
  run.reset();
  // The traced pass replays the server's own batches, so the replayed
  // ingest time is the time the loop spent in the engine.
  const std::vector<std::size_t>& batches =
      tracer != nullptr && !summary.pass.server_batch_ends.empty()
          ? summary.pass.server_batch_ends
          : summary.pass.chunk_ends;
  summary.replay = ReplayRows(feed, batches, summary.eps, tracer);
  summary.latency_ms = CheckPass(summary.pass, summary.replay, out);
  return summary;
}

double LateP99Ms(const PassResult& pass) {
  std::vector<double> late_ms;
  for (double l : pass.lateness) late_ms.push_back(1e3 * l);
  const double p = HighestSupportedPercentile(late_ms.size());
  return p > 0 ? TailPercentile(late_ms, std::min(p, 99.0)).value_or(0.0) : 0.0;
}

std::string LateReason(double late_p99_ms) {
  return "generator p99 lateness " + std::to_string(late_p99_ms) +
         " ms exceeds " + std::to_string(kServeMaxLateP99Ms) + " ms";
}

}  // namespace

RunResult RunServeLive(const RunConfig& config) {
  RunResult out;
  double setup_s = 0.0;
  if (!config.trace) {
    const PassSummary s =
        RunPass(config, config.seconds, kServeSetupReps, nullptr, &setup_s, &out);
    const double late_p99 = LateP99Ms(s.pass);
    if (late_p99 > kServeMaxLateP99Ms) {
      out.invalid_reason = LateReason(late_p99);
      return out;
    }
    const std::optional<double> p99 = TailPercentile(s.latency_ms, 99.0);
    if (!p99) {
      out.invalid_reason = "fewer than 1000 phase-1 slide rows: no p99";
      return out;
    }
    const double p50 = Median(s.latency_ms);
    const double rate = static_cast<double>(s.pass.phase2_rows) / s.pass.phase2_s;
    const auto n = static_cast<std::int64_t>(s.latency_ms.size());
    out.values["setup_s"] = setup_s;
    out.values["throughput_per_s"] = rate;
    out.values["peak_rss_mb"] = PeakRssMb();
    out.figures = {
        {"setup_s", setup_s, "s", kServeSetupReps},
        {"row_to_frame_p50_ms", p50, "ms", n},
        {"row_to_frame_p99_ms", *p99, "ms", n},
        {"serve_points_per_s", rate, "rows/s",
         static_cast<std::int64_t>(s.pass.phase2_rows)},

        {"offered_rows_per_s", kServeRowsPerSecond, "rows/s", 0},
        {"gen_late_p99_ms", late_p99, "ms",
         static_cast<std::int64_t>(s.pass.lateness.size())},
        {"backlog_peak_rows", static_cast<double>(s.pass.backlog_peak), "rows", 0},
        {"join_epsilon_m", s.eps, "m", 0},
        {"report_frames", static_cast<double>(s.pass.reports.size()), "count", 0},
        {"peak_rss_mb", out.values["peak_rss_mb"], "MB", 0},
    };
    return out;
  }

  // Traced run: an untraced reference pass, then a traced pass, each as
  // long as an untraced run so the traced pass holds a checkpoint.
  const PassSummary plain =
      RunPass(config, config.seconds, 1, nullptr, &setup_s, &out);
  Tracer tracer(true);
  const PassSummary traced =
      RunPass(config, config.seconds, 1, &tracer, &setup_s, &out);
  for (const PassSummary* pass : {&plain, &traced}) {
    if (LateP99Ms(pass->pass) > kServeMaxLateP99Ms) {
      out.invalid_reason = LateReason(LateP99Ms(pass->pass));
      return out;
    }
  }
  const PassResult& p = traced.pass;
  const Replay& r = traced.replay;
  auto& v = out.values;
  const double slides = static_cast<double>(std::max<std::int64_t>(r.slides, 1));
  v["core.ground_distances"] = static_cast<double>(p.fleet_stats.ground_distances_computed);
  v["similarity.dfd_cells"] = static_cast<double>(r.dfd_cells);
  v["similarity.cells_per_s"] = r.search_s > 0 ? static_cast<double>(r.dfd_cells) / r.search_s : 0.0;
  v["stream.ingest_s"] = r.ingest_s;
  v["stream.bounds_s"] = r.bounds_s;
  v["stream.search_s"] = r.search_s;
  v["stream.slides"] = static_cast<double>(r.slides);
  v["stream.seeded_share"] = static_cast<double>(r.seeded) / slides;
  v["stream.carried_share"] = static_cast<double>(r.carried) / slides;
  v["stream.dfd_cells_per_slide"] = static_cast<double>(r.dfd_cells) / slides;
  v["stream.bound_rescans"] = static_cast<double>(p.bound_rescans);
  v["stream.reordered"] = static_cast<double>(p.fleet_stats.reordered);
  v["stream.late_dropped"] = static_cast<double>(p.fleet_stats.late_dropped);
  v["stream.coalesced_slides"] = static_cast<double>(p.fleet_stats.coalesced_slides);
  v["join.pairs_reverified"] = static_cast<double>(p.join_stats.pairs_reverified);
  v["join.verdicts_carried"] = static_cast<double>(p.join_stats.verdicts_carried);
  const double verdicts =
      static_cast<double>(p.join_stats.pairs_reverified + p.join_stats.verdicts_carried);
  v["join.carried_share"] =
      verdicts > 0 ? static_cast<double>(p.join_stats.verdicts_carried) / verdicts : 0.0;
  v["join.entered"] = static_cast<double>(p.join_stats.entered_total);
  v["join.left"] = static_cast<double>(p.join_stats.left_total);
  v["durable.append_s"] = p.durable.append_s;
  v["durable.appends"] = static_cast<double>(p.durable.appends);
  v["durable.bytes"] = static_cast<double>(p.durable.bytes);
  v["durable.sync_s"] = p.durable.sync_s;
  v["durable.syncs"] = static_cast<double>(p.durable.syncs);
  v["durable.checkpoint_s"] = p.durable.checkpoint_s;
  v["durable.checkpoints"] = static_cast<double>(p.durable.checkpoints);
  v["durable.snapshot_bytes"] = static_cast<double>(p.durable.snapshot_bytes);
  v["durable.recovery_open_s"] = p.recovery_open_s;
  v["durable.replayed_records"] = static_cast<double>(p.replayed_records);
  v["serve.read_s"] = p.sockets.read_s;
  v["serve.write_s"] = p.sockets.write_s;
  v["serve.bytes_in"] = static_cast<double>(p.sockets.bytes_in);
  v["serve.bytes_out"] = static_cast<double>(p.sockets.bytes_out);
  v["serve.frames_pushed"] = static_cast<double>(p.serve_stats.frames_pushed);
  v["serve.frames_dropped"] = static_cast<double>(p.serve_stats.frames_dropped);
  v["serve.loop_cpu_s"] = p.loop_cpu_s;
  // CPU only: fsync waits happen off the loop thread's CPU.
  v["serve.self_s"] =
      p.loop_cpu_s - r.ingest_s - p.durable.cpu_s - p.sockets.cpu_s;
  v["serve.backlog_peak_rows"] = static_cast<double>(p.backlog_peak);
  v["gen.late_p99_ms"] = LateP99Ms(p);

  // WindowState::Append alone: each stream's released points (timestamp
  // order, the reorder buffer's tail excluded) through a fresh window.
  std::vector<std::vector<const FeedRow*>> per_stream(kServeStreams);
  for (std::size_t k = 0; k < p.rows_sent; ++k) {
    per_stream[traced.feed[k].stream].push_back(&traced.feed[k]);
  }
  double append_s = 0.0;
  for (std::vector<const FeedRow*>& rows : per_stream) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const FeedRow* a, const FeedRow* b) { return a->ts < b->ts; });
    if (rows.size() > static_cast<std::size_t>(kServeReorder)) {
      rows.resize(rows.size() - kServeReorder);
    }
    fm::WindowState window =
        std::move(fm::WindowState::Create(MakeFleetOptions(traced.eps).stream,
                                          fm::Haversine(), false))
            .value();
    for (const FeedRow* row : rows) {
      const double a0 = NowSeconds();
      (void)window.Append(0, fm::LatLon(row->lat, row->lon), &row->ts);
      const double a1 = NowSeconds();
      tracer.Record("stream.append", -1, 0, a0, a1);
      append_s += a1 - a0;
    }
  }
  v["stream.append_s"] = append_s;
  const double cpu_per_row_plain =
      plain.pass.loop_cpu_s / static_cast<double>(plain.pass.rows_sent);
  const double cpu_per_row_traced = p.loop_cpu_s / static_cast<double>(p.rows_sent);
  v["trace.overhead_share"] = cpu_per_row_traced / cpu_per_row_plain - 1.0;
  v["trace.unattributed_share"] =
      (v["serve.self_s"] / static_cast<double>(p.rows_sent)) / cpu_per_row_plain;
  tracer.WriteJsonl(config.work_dir + "/serve_live-seed" +
                    std::to_string(config.seed) + ".spans.jsonl");
  return out;
}

}  // namespace fmbench
