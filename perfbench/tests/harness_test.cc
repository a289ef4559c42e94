// Tests of the benchmark's own harness: the percentile rule, self time,
// open-loop timing and seeded input generation. Exits non-zero on the
// first failed check; `python3 perfbench/run.py --selftest` runs it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  using fmbench::TailPercentile;
  // p99 needs at least 10 samples beyond it, i.e. >= 1000 samples.
  CHECK(!TailPercentile(OneTo(999), 99.0).has_value());
  CHECK(TailPercentile(OneTo(1000), 99.0).has_value());
  CHECK(Near(*TailPercentile(OneTo(1000), 99.0), 990.0));
  // p90 needs >= 100.
  CHECK(!TailPercentile(OneTo(99), 90.0).has_value());
  CHECK(Near(*TailPercentile(OneTo(100), 90.0), 90.0));
  CHECK(Near(*TailPercentile(OneTo(101), 90.0), 91.0));
  // The median needs 20 samples under the same rule.
  CHECK(!TailPercentile(OneTo(19), 50.0).has_value());
  CHECK(fmbench::HighestSupportedPercentile(999) == 90.0);
  CHECK(fmbench::HighestSupportedPercentile(1000) == 99.0);
  CHECK(fmbench::HighestSupportedPercentile(10000) == 99.9);
  CHECK(fmbench::HighestSupportedPercentile(5) == 0.0);
  CHECK(Near(fmbench::Median({3, 1, 2}), 2.0));
  CHECK(Near(fmbench::Median({4, 1, 2, 3}), 2.5));
}

fmbench::Span MakeSpan(std::int64_t id, std::int64_t parent, double start,
                       double end, const char* name = "x") {
  fmbench::Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.name = name;
  return s;
}

void TestSelfTime() {
  // Parent [0,10]; children [1,3] and [2,5] overlap, [4,6] overlaps the
  // second, [9,12] runs past the parent's end: covered = [1,6] + [9,10].
  // Child [1,3] has a nested grandchild [1.5,2.5].
  const std::vector<fmbench::Span> spans = {
      MakeSpan(0, -1, 0, 10, "root"), MakeSpan(1, 0, 1, 3, "a"),
      MakeSpan(2, 0, 2, 5, "b"),      MakeSpan(3, 0, 4, 6, "b"),
      MakeSpan(4, 0, 9, 12, "c"),     MakeSpan(5, 1, 1.5, 2.5, "d")};
  const std::vector<double> self = fmbench::SelfTimes(spans);
  CHECK(Near(self[0], 10 - 5 - 1));
  CHECK(Near(self[1], 2 - 1));
  CHECK(Near(self[2], 3));
  CHECK(Near(self[5], 1));
  const auto by_name = fmbench::SelfTimeByName(spans);
  CHECK(Near(by_name.at("b"), 5));
  // A child with the parent's exact interval leaves no self time.
  CHECK(Near(fmbench::SelfTimes({MakeSpan(7, -1, 0, 1), MakeSpan(8, 7, 0, 1)})[0], 0));
}

void TestOpenLoopTiming() {
  // Rows due every 1 ms. The server needs 0.1 ms per row but stalls for
  // 20 ms when row 5 arrives; rows queue behind the stall.
  fmbench::OpenLoopSchedule schedule(0.0, 0.001);
  CHECK(schedule.DueCount(-0.5) == 0);
  CHECK(schedule.DueCount(0.0) == 1);
  CHECK(schedule.DueCount(0.00250) == 3);
  double free_at = 0.0;
  std::vector<double> latency;
  std::vector<double> service;
  for (int k = 0; k < 40; ++k) {
    const double sent = schedule.Due(k);
    CHECK(Near(schedule.MarkSent(k, sent), 0.0));
    const double begin = std::max(sent, free_at);
    free_at = begin + 0.0001 + (k == 5 ? 0.020 : 0.0);
    latency.push_back(schedule.LatencyOf(k, free_at));
    service.push_back(free_at - begin);
  }
  CHECK(latency[4] < 0.001);
  // Later rows waited for the stall although their own service was fast:
  // their latency from the due time shows it.
  CHECK(service[8] < 0.001);
  CHECK(latency[8] > 0.015);
  CHECK(latency[20] > 0.0005);
  CHECK(latency[39] < 0.001);  // the queue drained
  // A generator that itself stalls sends late: the lateness is recorded
  // and latency still counts from the due time, not the send time.
  fmbench::OpenLoopSchedule late(0.0, 0.001);
  CHECK(Near(late.MarkSent(3, 0.010), 0.007));
  CHECK(Near(late.LatencyOf(3, 0.0101), 0.0071));
  CHECK(late.lateness().size() == 1);
}

void TestInputsAreSeeded() {
  for (const std::string& w : fmbench::WorkloadNames()) {
    const std::string a = fmbench::InputFingerprintBytes(w, 7);
    CHECK(!a.empty());
    CHECK(a == fmbench::InputFingerprintBytes(w, 7));
    CHECK(a != fmbench::InputFingerprintBytes(w, 8));
  }
}

void TestResultTablesAreWellFormed() {
  for (const auto* specs : {&fmbench::EndToEndSpecs(), &fmbench::PerLayerSpecs()}) {
    for (const fmbench::MetricSpec& s : *specs) {
      const std::string better = s.better;
      CHECK(better == "lower" || better == "higher");
      CHECK(std::string(s.name).size() <= 64);
    }
  }
  CHECK(std::string(fmbench::EndToEndSpecs()[0].name) == "setup_s");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestOpenLoopTiming();
  TestInputsAreSeeded();
  TestResultTablesAreWellFormed();
  if (failures == 0) std::printf("fmbench_harness_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
