#ifndef FRECHET_MOTIF_BENCH_BENCH_COMMON_H_
#define FRECHET_MOTIF_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trajectory.h"
#include "data/datasets.h"
#include "util/flags.h"

namespace frechet_motif {
namespace bench {

/// Shared bench configuration parsed from the command line.
///
/// Defaults are laptop-scale so the whole harness finishes in minutes;
/// `--full` switches every sweep to the paper's settings (n up to 10000,
/// ξ up to 400) — expect multi-hour runs for the BruteDP rows, exactly as
/// the paper reports.
struct BenchConfig {
  bool full = false;
  std::int64_t repeats = 1;     // trajectories averaged per cell ("10" in §6.1)
  std::uint64_t seed = 42;
  std::vector<std::int64_t> lengths;  // trajectory-length sweep
  std::vector<std::int64_t> xis;      // minimum-motif-length sweep
  std::int64_t xi = 0;                // fixed ξ for length sweeps
  std::int64_t n = 0;                 // fixed n for ξ sweeps
  std::int64_t tau = 32;

  /// --smoke: shrink every measurement to a CI-sized sanity run (seconds,
  /// not minutes). Timings are still reported but are not meaningful.
  bool smoke = false;

  /// --threads=N: worker threads handed to the algorithms under test
  /// (0 = all hardware threads).
  std::int64_t threads = 1;

  /// --json[=path]: write machine-readable results here ("" disables;
  /// bare --json defaults to BENCH_kernels.json in the working directory).
  std::string json_path;
};

/// Parses flags (--full, --smoke, --repeats=, --seed=, --lengths=, --xis=,
/// --xi=, --n=, --tau=, --threads=, --json[=path]) and fills defaults
/// appropriate for the given bench. Exits the process with a message on
/// malformed flags; `--help` prints the flags and exits 0 before any
/// work.
BenchConfig ParseBenchConfig(int argc, char** argv,
                             const std::vector<std::int64_t>& default_lengths,
                             const std::vector<std::int64_t>& default_xis,
                             std::int64_t default_xi, std::int64_t default_n);

/// One measured kernel data point for the machine-readable JSON output.
struct KernelResult {
  /// Kernel identifier, e.g. "dfd_on_range_matrix".
  std::string name;
  /// Problem size the kernel ran at (subtrajectory length, matrix side...).
  std::int64_t n = 0;
  /// Worker threads the kernel used.
  std::int64_t threads = 1;
  /// Mean wall-clock nanoseconds per operation.
  double ns_per_op = 0.0;
  /// Operations timed to produce the mean.
  std::int64_t iterations = 0;
  /// Additional numeric facts about the run (e.g. work counters such as
  /// dfd_cells_per_slide), emitted verbatim as extra JSON fields.
  std::map<std::string, double> extras;
};

/// `git describe --always --dirty` of the working tree the bench runs in,
/// or "unknown" when git is unavailable. Recorded in the JSON output so a
/// benchmark number is always attributable to a commit.
std::string GitDescribe();

/// Writes the result set as a JSON document:
///   {"bench": ..., "git": ..., "smoke": ..., "kernels": [{...}, ...]}
/// Returns false (with a message on stderr) when the file cannot be
/// written.
bool WriteKernelJson(const std::string& path, const std::string& bench_name,
                     const BenchConfig& config,
                     const std::vector<KernelResult>& results);

/// Generates the r-th repeat trajectory for a dataset/length cell
/// (deterministic in config.seed).
Trajectory MakeBenchTrajectory(DatasetKind kind, Index length,
                               const BenchConfig& config, std::int64_t repeat);

/// Prints a standard bench header (figure id, settings).
void PrintHeader(const std::string& figure, const std::string& description,
                 const BenchConfig& config);

}  // namespace bench
}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_BENCH_BENCH_COMMON_H_
