#ifndef FRECHET_MOTIF_TESTS_TEST_UTIL_H_
#define FRECHET_MOTIF_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/distance_matrix.h"
#include "core/trajectory.h"
#include "util/random.h"

namespace frechet_motif {
namespace testing_util {

/// Seed for a randomized (fuzz-style) test: `default_seed` unless the
/// FMOTIF_FUZZ_SEED environment variable overrides it. The seed in use
/// is printed unconditionally, so any failure report carries what is
/// needed to reproduce it:
///
///     FMOTIF_FUZZ_SEED=<printed seed> ctest -R <test> --output-on-failure
inline std::uint64_t FuzzSeed(std::uint64_t default_seed) {
  std::uint64_t seed = default_seed;
  if (const char* env = std::getenv("FMOTIF_FUZZ_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::fprintf(stderr,
               "[fuzz] seed = %llu (rerun with FMOTIF_FUZZ_SEED=%llu)\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(seed));
  return seed;
}

/// Iteration count for a randomized test: `default_rounds` unless
/// FMOTIF_FUZZ_ROUNDS overrides it (CI's extended-fuzz job raises it).
inline int FuzzRounds(int default_rounds) {
  if (const char* env = std::getenv("FMOTIF_FUZZ_ROUNDS");
      env != nullptr && *env != '\0') {
    const long rounds = std::strtol(env, nullptr, 10);
    if (rounds > 0) return static_cast<int>(rounds);
  }
  return default_rounds;
}

/// Random non-negative symmetric "ground distance" matrix with zero
/// diagonal (n x n). The motif algorithms only read dG through a
/// DistanceMatrix (its MatrixView), so algorithm-agreement tests can use
/// arbitrary matrices — adversarial inputs that real metrics rarely
/// produce.
inline DistanceMatrix MakeRandomSelfMatrix(Index n, std::uint64_t seed,
                                           double scale = 100.0) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(n) * n, 0.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      const double d = rng.NextDouble(0.0, scale);
      values[static_cast<std::size_t>(i) * n + j] = d;
      values[static_cast<std::size_t>(j) * n + i] = d;
    }
  }
  return DistanceMatrix::FromValues(n, n, std::move(values)).value();
}

/// Random rectangular non-negative matrix (n x m), for the cross-trajectory
/// variant.
inline DistanceMatrix MakeRandomCrossMatrix(Index n, Index m,
                                            std::uint64_t seed,
                                            double scale = 100.0) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(n) * m);
  for (double& v : values) v = rng.NextDouble(0.0, scale);
  return DistanceMatrix::FromValues(n, m, std::move(values)).value();
}

/// Independent DFD reference over rows i..ie and columns j..je of `dg`:
/// fills the whole dF table with the textbook recurrence (Eiter & Mannila
/// 1994) — no rolling rows, no threshold, no SIMD — so it shares no code
/// with the library kernels it checks. min/max only ever select one of the
/// input values, so it agrees with every kernel bit for bit on NaN-free
/// input.
inline double ReferenceRangeDfd(const DistanceMatrix& dg, Index i, Index ie,
                                Index j, Index je) {
  const Index la = ie - i + 1;
  const Index lb = je - j + 1;
  std::vector<double> f(static_cast<std::size_t>(la) * lb);
  const auto at = [&](Index p, Index q) -> double& {
    return f[static_cast<std::size_t>(p) * lb + q];
  };
  for (Index p = 0; p < la; ++p) {
    for (Index q = 0; q < lb; ++q) {
      const double d = dg.Distance(i + p, j + q);
      double reach = d;
      if (p > 0 && q > 0) {
        reach = std::min({at(p - 1, q), at(p - 1, q - 1), at(p, q - 1)});
      } else if (p > 0) {
        reach = at(p - 1, q);
      } else if (q > 0) {
        reach = at(p, q - 1);
      }
      at(p, q) = std::max(d, reach);
    }
  }
  return at(la - 1, lb - 1);
}

/// Small planar random-walk trajectory (coordinates in meters, for use
/// with the Euclidean metric).
inline Trajectory MakePlanarWalk(Index n, std::uint64_t seed,
                                 double step = 10.0) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  double x = 0.0;
  double y = 0.0;
  for (Index i = 0; i < n; ++i) {
    points.emplace_back(x, y);
    x += rng.NextGaussian(0.0, step);
    y += rng.NextGaussian(0.0, step);
  }
  return Trajectory(std::move(points));
}

}  // namespace testing_util
}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_TESTS_TEST_UTIL_H_
