#ifndef FMBENCH_WORKLOADS_H_
#define FMBENCH_WORKLOADS_H_

// The three workloads and the metric tables they report into. The
// tables are the benchmark's contract: BENCHMARK.json lists exactly
// these names and units (`run.py --selftest` checks it), every
// end-to-end metric is reported by every workload, and every per-layer
// metric by every traced run (0 where the workload does not exercise
// that layer).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace fmbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

/// End-to-end metrics, measured with tracing off. Each workload maps
/// its own user-visible figures onto these (see README.md).
const std::vector<MetricSpec>& EndToEndSpecs();

/// Per-layer metrics, from the traced run.
const std::vector<MetricSpec>& PerLayerSpecs();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where span JSONL files and serve state directories go.
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Set when the run must not be reported (e.g. the open-loop
  /// generator fell behind schedule past the benchmark's bound).
  std::string invalid_reason;
  /// Metric values by name (the printed set comes from the spec tables).
  std::map<std::string, double> values;
  /// Human-readable figures under the workload's own names, with units
  /// and sample counts, printed before the result line.
  std::vector<Metric> figures;
  /// Oracle mismatch descriptions (printed to stderr).
  std::vector<std::string> mismatches;

  void Fail(const std::string& why) {
    correct = false;
    ++failed;
    mismatches.push_back(why);
  }
};

/// Threads handed to the library: never more runnable threads than the
/// host has cores.
int LibraryThreads(int wanted);

/// Median of `reps` calls to `setup`, each returning seconds; the last
/// call's state is what the workload keeps.
double MedianSetupSeconds(int reps, const std::function<double()>& setup);

RunResult RunBatchMotif(const RunConfig& config);
RunResult RunFleetReplay(const RunConfig& config);
RunResult RunServeLive(const RunConfig& config);

/// Names of the workloads, in definition order.
const std::vector<std::string>& WorkloadNames();

}  // namespace fmbench

#endif  // FMBENCH_WORKLOADS_H_
