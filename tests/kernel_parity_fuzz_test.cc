/// Kernel-parity fuzz tier: the explicit-SIMD DFD kernels
/// (src/similarity/frechet.cc) must return **bit-identical** doubles to
/// the scalar kernel on every input — exact distances below the threshold,
/// and the *same* lower bound when the threshold early-exit fires. The
/// reassociation argument (min/max-only, NaN-free inputs) is in
/// docs/PERFORMANCE.md; this tier is the empirical enforcement across
/// random matrices, adversarial shapes, thresholds, and every SIMD level
/// the running build + CPU can execute. Seeded via FMOTIF_FUZZ_SEED,
/// rounds via FMOTIF_FUZZ_ROUNDS (see test_util.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "motif/motif.h"
#include "similarity/euclidean.h"
#include "similarity/frechet.h"
#include "test_util.h"
#include "util/random.h"
#include "util/simd.h"

namespace frechet_motif {
namespace {

using testing_util::FuzzRounds;
using testing_util::FuzzSeed;
using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;
using testing_util::ReferenceRangeDfd;

/// Every level the running build and CPU can execute, scalar first. With
/// FRECHET_MOTIF_SIMD=OFF (or FMOTIF_SIMD=scalar) this is just {scalar} —
/// the parity assertions then degenerate to determinism checks, which is
/// exactly what the scalar-only CI leg wants.
std::vector<SimdLevel> AvailableLevels() {
  ClearSimdLevelCap();
  const SimdLevel widest = ActiveSimdLevel();
  std::vector<SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(widest); ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  return levels;
}

/// Pins a SIMD level for one computation; the destructor clears the cap
/// even when an ASSERT unwinds mid-test.
class ScopedSimdCap {
 public:
  explicit ScopedSimdCap(SimdLevel level) { SetSimdLevelCap(level); }
  ~ScopedSimdCap() { ClearSimdLevelCap(); }
  ScopedSimdCap(const ScopedSimdCap&) = delete;
  ScopedSimdCap& operator=(const ScopedSimdCap&) = delete;
};

double RangeDfdAtLevel(const DistanceMatrix& m, Index i, Index ie, Index j,
                       Index je, double threshold, SimdLevel level) {
  ScopedSimdCap cap(level);
  FrechetScratch scratch;
  return DiscreteFrechetOnRange(m, i, ie, j, je, threshold, &scratch).value();
}

/// Asserts the full parity + threshold-contract bundle for one range:
///  * the exact scalar value equals the independent full-table oracle
///    (testing_util::ReferenceRangeDfd), which shares no code with the
///    kernels under test;
///  * every SIMD level returns the scalar kernel's bits, per threshold —
///    they share the early-exit schedule, so even above-threshold lower
///    bounds match;
///  * a value <= threshold is the exact DFD, a value above it is a lower
///    bound that itself exceeds the threshold (the documented contract).
void CheckRange(const DistanceMatrix& m, Index i, Index ie, Index j, Index je,
                const std::vector<SimdLevel>& levels) {
  const double exact =
      RangeDfdAtLevel(m, i, ie, j, je, kNoFrechetThreshold, SimdLevel::kScalar);
  ASSERT_EQ(ReferenceRangeDfd(m, i, ie, j, je), exact)
      << "kernel/oracle divergence at range (" << i << ".." << ie << ", " << j
      << ".." << je << ")";
  const double thresholds[] = {kNoFrechetThreshold,
                               0.0,
                               0.5 * exact,
                               exact,
                               std::nextafter(exact, 0.0),
                               1.0000001 * exact + 1e-9};
  for (const double threshold : thresholds) {
    const double scalar =
        RangeDfdAtLevel(m, i, ie, j, je, threshold, SimdLevel::kScalar);
    for (const SimdLevel level : levels) {
      const double got = RangeDfdAtLevel(m, i, ie, j, je, threshold, level);
      ASSERT_EQ(scalar, got)
          << "SIMD level " << SimdLevelName(level) << " diverges at range ("
          << i << ".." << ie << ", " << j << ".." << je << ") threshold "
          << threshold;
    }
    // Threshold contract, against the scalar exact value.
    if (scalar <= threshold) {
      ASSERT_EQ(exact, scalar);
    } else {
      ASSERT_LE(scalar, exact);
      ASSERT_GT(scalar, threshold);
    }
  }
}

TEST(KernelParityFuzz, RandomRangesBitIdenticalAcrossLevels) {
  const std::vector<SimdLevel> levels = AvailableLevels();
  const std::uint64_t seed = FuzzSeed(20260808);
  const int rounds = FuzzRounds(8);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const Index n = static_cast<Index>(rng.NextInt(2, 300));
    const DistanceMatrix m = MakeRandomSelfMatrix(n, rng.NextUint64());
    // Full range plus random subranges (degenerate ones included: the
    // NextInt bounds allow single-row and single-column ranges).
    CheckRange(m, 0, n - 1, 0, n - 1, levels);
    for (int r = 0; r < 6; ++r) {
      const Index i = static_cast<Index>(rng.NextInt(0, n - 1));
      const Index ie = static_cast<Index>(rng.NextInt(i, n - 1));
      const Index j = static_cast<Index>(rng.NextInt(0, n - 1));
      const Index je = static_cast<Index>(rng.NextInt(j, n - 1));
      CheckRange(m, i, ie, j, je, levels);
    }
  }
}

TEST(KernelParityFuzz, RectangularMatricesAgree) {
  const std::vector<SimdLevel> levels = AvailableLevels();
  const std::uint64_t seed = FuzzSeed(977);
  const int rounds = FuzzRounds(6);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const Index n = static_cast<Index>(rng.NextInt(2, 160));
    const Index mm = static_cast<Index>(rng.NextInt(2, 160));
    const DistanceMatrix m = MakeRandomCrossMatrix(n, mm, rng.NextUint64());
    CheckRange(m, 0, n - 1, 0, mm - 1, levels);
  }
}

TEST(KernelParityFuzz, BoundaryLengthsExhaustive) {
  // Every length around the vector widths (2/4/8 lanes) and the
  // checkpoint-stride doublings: the tail handling and the dense-to-
  // sparse schedule transition live exactly here.
  const std::vector<SimdLevel> levels = AvailableLevels();
  const std::uint64_t seed = FuzzSeed(4242);
  std::vector<Index> lengths;
  for (Index n = 2; n <= 34; ++n) lengths.push_back(n);
  for (const Index n : {63, 64, 65, 127, 128, 129, 255, 256, 257, 300}) {
    lengths.push_back(static_cast<Index>(n));
  }
  Rng rng(seed);
  for (const Index n : lengths) {
    const DistanceMatrix m = MakeRandomSelfMatrix(n, rng.NextUint64());
    CheckRange(m, 0, n - 1, 0, n - 1, levels);
  }
}

TEST(KernelParityFuzz, DegenerateAndAdversarialShapes) {
  const std::vector<SimdLevel> levels = AvailableLevels();

  // Single cell.
  CheckRange(DistanceMatrix::FromValues(1, 1, {3.5}).value(), 0, 0, 0, 0,
             levels);

  // Single row / single column ranges of a larger matrix.
  const DistanceMatrix m = MakeRandomSelfMatrix(40, FuzzSeed(7));
  CheckRange(m, 5, 5, 0, 39, levels);
  CheckRange(m, 0, 39, 7, 7, levels);
  CheckRange(m, 11, 11, 23, 23, levels);

  // All-equal cells: every min/max tie at once.
  std::vector<double> flat(static_cast<std::size_t>(20) * 20, 2.25);
  CheckRange(DistanceMatrix::FromValues(20, 20, std::move(flat)).value(), 0,
             19, 0, 19, levels);

  // Extreme magnitudes (still finite and NaN-free, per the kernel
  // contract): denormal-adjacent tiny values and near-overflow huge ones.
  CheckRange(MakeRandomSelfMatrix(30, 11, /*scale=*/1e-300), 0, 29, 0, 29,
             levels);
  CheckRange(MakeRandomSelfMatrix(30, 13, /*scale=*/1e300), 0, 29, 0, 29,
             levels);

  // Zero matrix: the exact DFD is 0, so every threshold is immediately
  // reached and the first-row/corner paths dominate.
  std::vector<double> zeros(static_cast<std::size_t>(12) * 12, 0.0);
  CheckRange(DistanceMatrix::FromValues(12, 12, std::move(zeros)).value(), 0,
             11, 0, 11, levels);
}

TEST(KernelParityFuzz, MotifArgminInvariantAcrossLevelsAndThreads) {
  // End-to-end argmin check: the motif search's winning candidate — not
  // just its distance — must be independent of the dispatched kernel and
  // of the thread count. Distances are bit-identical across levels, so
  // any candidate difference would be a dispatch bug.
  const std::vector<SimdLevel> levels = AvailableLevels();
  const Trajectory walk = MakePlanarWalk(150, FuzzSeed(31337));
  FindMotifOptions options;
  options.algorithm = MotifAlgorithm::kBtm;
  options.min_length_xi = 12;

  MotifResult reference;
  {
    ScopedSimdCap cap(SimdLevel::kScalar);
    reference = FindMotif(walk, Euclidean(), options).value();
  }
  ASSERT_TRUE(reference.found);
  for (const SimdLevel level : levels) {
    for (const int threads : {1, 4}) {
      ScopedSimdCap cap(level);
      options.threads = threads;
      const MotifResult got = FindMotif(walk, Euclidean(), options).value();
      ASSERT_TRUE(got.found);
      EXPECT_EQ(reference.best, got.best)
          << "level " << SimdLevelName(level) << " threads " << threads;
      EXPECT_EQ(reference.distance, got.distance)
          << "level " << SimdLevelName(level) << " threads " << threads;
    }
  }
}

TEST(KernelParityFuzz, ActiveLevelRespectsCapsAndNeverExceedsCompiled) {
  ClearSimdLevelCap();
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(CompiledSimdLevel()));
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
  SetSimdLevelCap(SimdLevel::kScalar);
  EXPECT_EQ(SimdLevel::kScalar, ActiveSimdLevel());
  ClearSimdLevelCap();
  SimdLevel parsed = SimdLevel::kScalar;
  EXPECT_TRUE(ParseSimdLevel("avx2", &parsed));
  EXPECT_EQ(SimdLevel::kAvx2, parsed);
  EXPECT_FALSE(ParseSimdLevel("mmx", &parsed));
  EXPECT_STREQ("avx512", SimdLevelName(SimdLevel::kAvx512));
}

}  // namespace
}  // namespace frechet_motif
