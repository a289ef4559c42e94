#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "data/datasets.h"
#include "geo/point.h"
#include "params.h"
#include "util/random.h"
#include "util/simd.h"

#ifndef FMBENCH_BUILD_TYPE
#define FMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FMBENCH_COMPILER
#define FMBENCH_COMPILER "unknown"
#endif

namespace fmbench {

namespace fm = frechet_motif;

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> TailPercentile(std::vector<double> v, double p,
                                     int min_beyond) {
  if (v.empty() || !(p > 0.0 && p < 100.0)) return std::nullopt;
  const std::size_t n = v.size();
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::max<std::size_t>(rank, 1);
  if (n - rank < static_cast<std::size_t>(min_beyond)) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double HighestSupportedPercentile(std::size_t count, int min_beyond) {
  double best = 0.0;
  std::vector<double> probe(count, 0.0);
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (TailPercentile(probe, p, min_beyond).has_value()) best = p;
  }
  return best;
}

// ---------------------------------------------------------------------------

std::int64_t Tracer::Begin(const std::string& name, std::int64_t parent,
                           std::int64_t trace_id) {
  if (!enabled_) return -1;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = parent;
  s.trace_id = trace_id;
  s.name = name;
  s.start = now;
  s.end = now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::End(std::int64_t id) {
  if (id < 0) return;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::int64_t Tracer::Record(const std::string& name, std::int64_t parent,
                            std::int64_t trace_id, double start, double end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = parent;
  s.trace_id = trace_id;
  s.name = name;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace_id << ",\"name\":\"" << s.name
        << "\",\"start\":" << JsonNumber(s.start)
        << ",\"end\":" << JsonNumber(s.end) << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> index;
  for (std::size_t k = 0; k < spans.size(); ++k) index[spans[k].id] = k;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const double lo = spans[k].start;
    const double hi = spans[k].end;
    auto& iv = children[k];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = 0.0;
    bool open = false;
    for (const auto& [a0, b0] : iv) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[k] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> by_name;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    by_name[spans[k].name] += self[k];
  }
  return by_name;
}

std::map<std::string, double> DurationByName(const std::vector<Span>& spans) {
  std::map<std::string, double> by_name;
  for (const Span& s : spans) by_name[s.name] += s.end - s.start;
  return by_name;
}

// ---------------------------------------------------------------------------

std::int64_t OpenLoopSchedule::DueCount(double now) const {
  if (now < start_) return 0;
  return static_cast<std::int64_t>(std::floor((now - start_) / interval_)) + 1;
}

double OpenLoopSchedule::MarkSent(std::int64_t k, double sent) {
  const double late = std::max(0.0, sent - Due(k));
  lateness_.push_back(late);
  return late;
}

// ---------------------------------------------------------------------------

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out->append(buf);
}

Trajectory Generate(fm::DatasetKind kind, int length, std::uint64_t seed) {
  fm::DatasetOptions options;
  options.length = length;
  options.seed = seed;
  return std::move(fm::MakeDataset(kind, options)).value();
}

// A uniform double in [0, 1) from a 64-bit seed.
double UnitFrom(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

std::string TrajectoryCsv(const Trajectory& t) {
  std::string out = "lat,lon,timestamp\n";
  out.reserve(static_cast<std::size_t>(t.size()) * 64);
  for (fm::Index i = 0; i < t.size(); ++i) {
    AppendDouble(&out, t[i].lat());
    out.push_back(',');
    AppendDouble(&out, t[i].lon());
    out.push_back(',');
    AppendDouble(&out, t.has_timestamps() ? t.timestamp(i) : 0.0);
    out.push_back('\n');
  }
  return out;
}

Trajectory ShiftLongitude(const Trajectory& t, double dlon) {
  std::vector<fm::Point> points;
  points.reserve(static_cast<std::size_t>(t.size()));
  for (fm::Index i = 0; i < t.size(); ++i) {
    points.push_back(fm::LatLon(t[i].lat(), t[i].lon() + dlon));
  }
  if (!t.has_timestamps()) return Trajectory(std::move(points));
  return Trajectory(std::move(points), t.timestamps());
}

BatchInputs MakeBatchInputs(std::uint64_t seed) {
  // Query cost depends enormously on the recording (0.09 s to 14 s at
  // n=1500 across MakeDataset seeds), so a seed-drawn recording cannot
  // give a steady figure in a run of seconds. The recordings are
  // therefore fixed per kind, and the run's seed moves each one to its
  // own longitude: new bytes, a fresh answer to compute, the same work.
  BatchInputs in;
  std::uint64_t k = 0;
  for (fm::DatasetKind kind : fm::kAllDatasetKinds) {
    const Trajectory base = Generate(kind, kBatchLength, /*seed=*/42);
    const double dlon = -30.0 + 60.0 * UnitFrom(DeriveSeed(seed, k++));
    in.names.push_back(fm::DatasetName(kind));
    in.csv.push_back(TrajectoryCsv(ShiftLongitude(base, dlon)));
  }
  return in;
}

std::vector<Trajectory> MakeFleetStreams(std::uint64_t seed) {
  // As for the batch queries, per-slide cost at W=512 depends strongly on
  // the recording, so the recordings are fixed and the seed moves each
  // stream to its own longitude.
  std::vector<Trajectory> out;
  for (int s = 0; s < kFleetStreams; ++s) {
    const Trajectory base = Generate(fm::DatasetKind::kGeoLifeLike,
                                     kFleetStreamLength,
                                     42 + static_cast<std::uint64_t>(s));
    const double dlon =
        -30.0 + 60.0 * UnitFrom(DeriveSeed(seed, 100 + static_cast<unsigned>(s)));
    out.push_back(ShiftLongitude(base, dlon));
  }
  return out;
}

std::vector<FeedRow> MakeServeFeed(std::uint64_t seed,
                                   std::size_t* prefix_rows) {
  const int streams = kServeStreams;
  const int length = kServeStreamLength;
  // Per-stream send order: point indices with a seeded share of adjacent
  // pairs swapped (never overlapping, so each row moves one place).
  // The recordings are fixed and moved to a seeded longitude, as for the
  // other workloads: the join's work depends on how close the streams
  // run, which varies too much between drawn recordings.
  std::vector<Trajectory> tracks;
  std::vector<std::vector<int>> order(static_cast<std::size_t>(streams));
  const double dlon = -30.0 + 60.0 * UnitFrom(DeriveSeed(seed, 200));
  for (int s = 0; s < streams; ++s) {
    tracks.push_back(ShiftLongitude(
        Generate(fm::DatasetKind::kGeoLifeLike, length,
                 1000 + static_cast<std::uint64_t>(s)),
        dlon));
    fm::Rng rng(DeriveSeed(seed, 300 + static_cast<unsigned>(s)));
    std::vector<int>& o = order[static_cast<std::size_t>(s)];
    for (int i = 0; i < length; ++i) o.push_back(i);
    for (int i = 0; i + 1 < length; ++i) {
      if (rng.NextDouble() < kServeSwapShare) {
        std::swap(o[static_cast<std::size_t>(i)],
                  o[static_cast<std::size_t>(i + 1)]);
        ++i;
      }
    }
  }
  auto row = [&](int s, int pos) {
    const Trajectory& t = tracks[static_cast<std::size_t>(s)];
    const int idx = order[static_cast<std::size_t>(s)][static_cast<std::size_t>(pos)];
    FeedRow r;
    r.stream = static_cast<std::uint32_t>(s);
    r.lat = t[idx].lat();
    r.lon = t[idx].lon();
    r.ts = t.timestamp(idx);
    r.line = std::to_string(s);
    r.line.push_back(',');
    AppendDouble(&r.line, r.lat);
    r.line.push_back(',');
    AppendDouble(&r.line, r.lon);
    r.line.push_back(',');
    AppendDouble(&r.line, r.ts);
    r.line.push_back('\n');
    return r;
  };
  std::vector<FeedRow> feed;
  std::vector<int> next(static_cast<std::size_t>(streams), 0);
  for (int s = 0; s < streams; ++s) {
    const int pre =
        std::min(length, kServeWindow + kServeReorder + s % kServeStagger);
    for (int k = 0; k < pre; ++k) feed.push_back(row(s, next[static_cast<std::size_t>(s)]++));
  }
  *prefix_rows = feed.size();
  bool more = true;
  while (more) {
    more = false;
    for (int s = 0; s < streams; ++s) {
      int& n = next[static_cast<std::size_t>(s)];
      if (n < length) {
        feed.push_back(row(s, n++));
        more = true;
      }
    }
  }
  return feed;
}

std::string InputFingerprintBytes(const std::string& workload,
                                  std::uint64_t seed) {
  std::string bytes;
  if (workload == "batch_motif") {
    for (const std::string& csv : MakeBatchInputs(seed).csv) bytes += csv;
  } else if (workload == "fleet_replay") {
    for (const Trajectory& t : MakeFleetStreams(seed)) bytes += TrajectoryCsv(t);
  } else if (workload == "serve_live") {
    std::size_t prefix = 0;
    for (const FeedRow& r : MakeServeFeed(seed, &prefix)) bytes += r.line;
    bytes += std::to_string(prefix);
  }
  return bytes;
}

// ---------------------------------------------------------------------------

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t at = colon + 1;
        while (at < line.size() && line[at] == ' ') ++at;
        return line.substr(at);
      }
    }
  }
  return "unknown";
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string HostStampJson(const std::string& git_describe) {
  const std::string build_type = FMBENCH_BUILD_TYPE;
  const bool release = build_type == "Release" || build_type == "RelWithDebInfo";
  const bool clean = !git_describe.empty() && git_describe != "unknown" &&
                     git_describe.find("dirty") == std::string::npos;
  std::string why;
  if (!release) why += "non-release build; ";
  if (!clean) why += "dirty or unknown source tree; ";
  if (!why.empty()) why.resize(why.size() - 2);
  std::ostringstream o;
  o << "{\"cpu\":\"" << Escape(CpuModel()) << "\",\"nproc\":"
    << std::thread::hardware_concurrency() << ",\"simd\":\""
    << fm::SimdLevelName(fm::ActiveSimdLevel()) << "\",\"compiler\":\""
    << Escape(FMBENCH_COMPILER) << "\",\"build_type\":\"" << Escape(build_type)
    << "\",\"git\":\"" << Escape(git_describe.empty() ? "unknown" : git_describe)
    << "\",\"baseline_ok\":" << (why.empty() ? "true" : "false")
    << ",\"baseline_refused_because\":\"" << why << "\"}";
  return o.str();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace fmbench
