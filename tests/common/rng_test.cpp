#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/stats.hpp"

namespace edc {
namespace {

TEST(Pcg32, DeterministicForSeed) {
  Pcg32 a(123, 4);
  Pcg32 b(123, 4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(Pcg32, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextU32() == b.NextU32();
  EXPECT_LT(same, 3);
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a(1, 1), b(1, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextU32() == b.NextU32();
  EXPECT_LT(same, 3);
}

TEST(Pcg32, BoundedIsInRangeAndRoughlyUniform) {
  Pcg32 rng(7);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 100000; ++i) {
    u32 v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (int c : buckets) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Pcg32, BoundedZeroAndOne) {
  Pcg32 rng(8);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Pcg32, DoubleInUnitInterval) {
  Pcg32 rng(9);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    stats.Add(d);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Pcg32, ExponentialHasRequestedMean) {
  Pcg32 rng(10);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextExponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Pcg32, GaussianMoments) {
  Pcg32 rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Pcg32, ParetoIsHeavyTailedAboveScale) {
  Pcg32 rng(12);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.NextPareto(2.0, 1.5), 2.0);
  }
}

TEST(Pcg32, ZipfSkewsTowardSmallValues) {
  Pcg32 rng(13);
  std::array<int, 100> counts{};
  for (int i = 0; i < 100000; ++i) {
    u32 v = rng.NextZipf(100, 1.0);
    ASSERT_LT(v, 100u);
    ++counts[v];
  }
  EXPECT_GT(counts[0], counts[9] * 2);
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Pcg32, ZipfZeroExponentIsUniformish) {
  Pcg32 rng(14);
  std::array<int, 10> counts{};
  for (int i = 0; i < 50000; ++i) ++counts[rng.NextZipf(10, 0.0)];
  for (int c : counts) EXPECT_GT(c, 3500);
}

TEST(Pcg32, NextBelowMatchesNextBool) {
  for (double p : {-0.5, 0.0, 1e-300, 0.03, 0.04, 0.12, 0.4, 0.5,
                   1.0 - 1e-16, 1.0, 1.5}) {
    const u64 threshold = Pcg32::BoolThreshold(p);
    Pcg32 a(21, 5);
    Pcg32 b = a;
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(b.NextBelow(threshold), a.NextBool(p)) << "p=" << p;
    }
    EXPECT_EQ(a, b) << "p=" << p;
  }
}

TEST(Pcg32, BoolThresholdIsCeilOfScaledProbability) {
  constexpr double kTwo53 = 9007199254740992.0;
  EXPECT_EQ(Pcg32::BoolThreshold(0.0), 0u);
  EXPECT_EQ(Pcg32::BoolThreshold(1.0), u64{1} << 53);
  EXPECT_EQ(Pcg32::BoolThreshold(0.5), u64{1} << 52);
  for (double p : {0.03, 0.04, 0.05, 0.12, 0.4, 0.7, 1e-20}) {
    EXPECT_EQ(Pcg32::BoolThreshold(p),
              static_cast<u64>(std::ceil(p * kTwo53)))
        << p;
  }
}

TEST(ZipfSampler, MatchesNextZipfDrawForDraw) {
  // Every preset's (n, s) pairs plus the edges: n <= 2, s <= 0, the log
  // branch (s = 1), a steep exponent, s just off 1, and an n above the
  // table cap (closed form on every draw).
  const u32 ns[] = {0, 1, 2, 10, 27, 512, 2500, 4000, 6000,
                    ZipfSampler::kMaxTabledN + 1};
  const double ss[] = {-1.0, 0.0, 0.5, 0.7, 0.8, 0.9, 1.0, 1.0 + 1e-7,
                       1.05, 1.1, 2.0};
  for (u32 n : ns) {
    for (double s : ss) {
      ZipfSampler sampler(n, s);
      Pcg32 a(n * 31u + 7u, 3);
      Pcg32 b = a;
      for (int i = 0; i < 4000; ++i) {
        const u32 want = a.NextZipf(n, s);
        ASSERT_EQ(sampler.Sample(b), want)
            << "n=" << n << " s=" << s << " draw " << i;
      }
      EXPECT_EQ(a, b) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfSampler, TableRankMatchesClosedFormAtEveryBoundary) {
  // Next to each B_k the table must hand over to H⁻¹: probe the
  // neighbouring doubles and points just outside the guard band, for every
  // rank of the fin (4000 words) and prxy (6000) vocabularies and of the
  // other generator samplers.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<u32, double> cases[] = {
      {4000, 1.05}, {6000, 1.05}, {2500, 1.1}, {10, 0.8},
      {27, 0.7},    {512, 0.9},   {300, 1.0},  {300, 2.0}};
  for (auto [n, s] : cases) {
    ZipfSampler z(n, s);
    for (u32 k = 1; k < n; ++k) {
      const double b = z.Boundary(k);
      const double probes[] = {std::nextafter(b, -kInf), b,
                               std::nextafter(b, kInf), b * (1 - 3e-9),
                               b * (1 + 3e-9)};
      for (double u : probes) {
        ASSERT_EQ(z.Rank(u), z.ExactRank(u))
            << "n=" << n << " s=" << s << " k=" << k << " u=" << u;
      }
      // Straddling B_k: ranks k and k + 1.
      EXPECT_EQ(z.Rank(b * (1 - 3e-9)), k);
      EXPECT_EQ(z.Rank(b * (1 + 3e-9)), k + 1);
    }
  }
}

TEST(ZipfSampler, SharedAcrossCallersIsDeterministic) {
  const ZipfSampler z(4000, 1.05);
  Pcg32 a(5);
  Pcg32 b(5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(z.Sample(a), z.Sample(b));
}

TEST(Pcg32, DeriveGivesIndependentDeterministicStreams) {
  Pcg32 a = Pcg32::Derive(99, 1);
  Pcg32 a2 = Pcg32::Derive(99, 1);
  Pcg32 b = Pcg32::Derive(99, 2);
  EXPECT_EQ(a.NextU64(), a2.NextU64());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU32() == b.NextU32();
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace edc
